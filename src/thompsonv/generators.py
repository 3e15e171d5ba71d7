"""The standard four-element generating set of V and words over it.

Any finite generating set changes word length only by a multiplicative
constant; this fixed choice is recorded in report metadata so that lengths
are comparable across runs. Words are tuples of signed symbols and evaluate
left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import permutations as perms
from .elements import Element
from .trees import LEAF, Address, ParseError, Tree, leaf_addresses, node_at

GENERATOR_NAMES = ("x0", "x1", "c", "pi")

_GENERATOR_TEXT = {
    "x0": "(.,(.,.))|((.,.),.)|[1,2,3]",
    "x1": "(.,(.,(.,.)))|(.,((.,.),.))|[1,2,3,4]",
    "c": "(.,(.,.))|(.,(.,.))|[2,3,1]",
    "pi": "(.,(.,.))|(.,(.,.))|[2,1,3]",
}


@dataclass(frozen=True, slots=True)
class GenSymbol:
    name: str
    exp: int = 1

    def __post_init__(self) -> None:
        if self.name not in GENERATOR_NAMES:
            raise ValueError(f"unknown generator {self.name!r}")
        if self.exp not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {self.exp}")

    def inverse(self) -> GenSymbol:
        return GenSymbol(self.name, -self.exp)

    def __str__(self) -> str:
        return self.name if self.exp == 1 else f"{self.name}^-1"


Word = tuple[GenSymbol, ...]


# The eight right-multiplication moves in breadth-first search order: the
# generators x0 x1 c pi, then their inverses.
MOVES: dict[GenSymbol, Element] = {
    GenSymbol(name): Element.parse(text) for name, text in _GENERATOR_TEXT.items()
}
MOVES.update({s.inverse(): g.inverse() for s, g in list(MOVES.items())})


def _carets(t: Tree) -> list[Address]:
    """Addresses of t's carets, shallowest first."""
    carets = {(num >> k, exp - k) for num, exp in leaf_addresses(t) for k in range(1, exp + 1)}
    return sorted(carets, key=lambda a: a[1])


def _graft(t: Tree, subtrees: Iterator[Tree]) -> Tree:
    """t with its leaves, left to right, replaced by the subtrees."""
    if t.left is None:
        return next(subtrees)
    return Tree(_graft(t.left, subtrees), _graft(t.right, subtrees))


def _local_move(g: Element) -> Callable[[Element], Element]:
    """e -> e * g for reduced e, rewriting only the top of e's range tree.

    Fit: split range leaves (with their domain leaves) until the range tree
    holds g's domain tree Dg at its top; Dg's leaf i then holds a subtree S_i.
    Permute: hang S_i at leaf tau(i) of g's range tree Rg and move each block
    of range indices with it. Cancel: only Rg's carets can cancel, since the
    carets inside each S_i are e's own and e is reduced; try them bottom-up.
    """
    fit, blocks = _carets(g.domain_tree), leaf_addresses(g.domain_tree)
    cancel = _carets(g.range_tree)[::-1]
    order = perms.invert_perm(g.perm)  # the block that lands on each leaf of Rg

    def move(e: Element) -> Element:
        for a in fit:
            node, r = node_at(e.range_tree, *a)
            if node.left is None:
                e = e.expand_leaf(e.perm.index(r) + 1)
        subtrees = [node_at(e.range_tree, *a) for a in blocks]
        renumber = [0] * (e.n_leaves + 1)
        first = 1
        for i in order:
            node, r = subtrees[i - 1]
            renumber[r : r + node.leaves] = range(first, first + node.leaves)
            first += node.leaves
        range_ = _graft(g.range_tree, (subtrees[i - 1][0] for i in order))
        e = Element(e.domain_tree, range_, tuple(map(renumber.__getitem__, e.perm)))
        for a in cancel:
            node, r = node_at(e.range_tree, *a)
            if node.left is LEAF and node.right is LEAF:
                e = e.cancel_pair(e.perm.index(r) + 1) or e
        return e

    return move


# The same eight moves as local rewrites: LOCAL_MOVES[s](e) == e * MOVES[s] for reduced e.
LOCAL_MOVES = {s: _local_move(g) for s, g in MOVES.items()}


def standard_generators() -> list[Element]:
    """The elements x0, x1, c, pi, in that order."""
    return [MOVES[GenSymbol(name)] for name in GENERATOR_NAMES]


def format_word(word: Word) -> str:
    return " ".join(str(s) for s in word)


def parse_word(text: str) -> Word:
    """Whitespace-separated symbols, each optionally suffixed by ^-1."""
    out: list[GenSymbol] = []
    offset = 0
    for token in text.split():
        offset = text.index(token, offset)
        name, sep, suffix = token.partition("^")
        if name not in GENERATOR_NAMES or (sep and suffix != "-1"):
            raise ParseError(f"bad word symbol {token!r}", offset)
        out.append(GenSymbol(name, -1 if sep else 1))
        offset += len(token)
    return tuple(out)


def invert_word(word: Word) -> Word:
    return tuple(s.inverse() for s in reversed(word))


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs; keeps spliced conjugates short."""
    out: list[GenSymbol] = []
    for s in word:
        if out and out[-1].name == s.name and out[-1].exp == -s.exp:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def power_word(symbol_name: str, n: int) -> Word:
    s = GenSymbol(symbol_name, 1 if n >= 0 else -1)
    return (s,) * abs(n)


def evaluate_word(word: Word) -> Element:
    """Left-to-right product of the symbols; the empty word is the identity.

    Neighbours are multiplied in rounds, so no product re-walks a long prefix;
    the product is associative and reduced diagrams are unique.
    """
    factors = [MOVES[s] for s in word] or [Element.identity()]
    while len(factors) > 1:
        pairs = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[len(factors) & ~1 :]
    return factors[0]
