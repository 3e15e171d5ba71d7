"""The standard four-element generating set of V and words over it.

Any finite generating set changes word length only by a multiplicative
constant; this fixed choice is recorded in report metadata so that lengths
are comparable across runs. Words are tuples of signed symbols and evaluate
left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

from . import permutations as perms
from .elements import Element
from .trees import LEAF, ParseError, Tree, split_leaf, tree_text

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


def _local_move(g: Element) -> Callable[..., Element]:
    """e -> e * g for reduced e, rewriting only the top of e's range tree.

    Plan, from e's range tree alone. Fit: descend it once along g's domain tree
    Dg in pre-order, noting each range leaf at a caret of Dg as one to split;
    Dg's leaf i then holds a subtree S_i. Permute: build g's range tree Rg with
    S_i at leaf tau(i), and renumber S_i's range indices to match (none move if
    tau = id). Apply, to e: split the noted range leaves' domain leaves, update
    and renumber the permutation. Cancel: only Rg's carets can, as e is reduced,
    once over two leaves, so only if two leaf S_i hang from one of them;
    `Element.cancel_pair` tries them bottom-up and right to left, so no
    cancellation renumbers a caret still to come. `move(e, plans, memo)` keeps
    each plan in `plans` by range tree, so a search makes it once per range
    tree, and each split of a domain tree in `memo`, (tree, leaf) ->
    `split_leaf(tree, leaf)`, which one search shares between its moves. The
    parts come from a valid element, so the product is built unchecked.
    """
    fit = [ch == "(" for ch in tree_text(g.domain_tree) if ch in "(."]  # Dg in pre-order: caret?
    order = [i - 1 for i in perms.invert_perm(g.perm)]  # the S_i on each leaf of Rg
    s_at = iter(order)  # Rg in reversed pre-order: None at a caret, else the S_i at the leaf
    graft = [None if ch == "(" else next(s_at) for ch in tree_text(g.range_tree) if ch in "(."]
    graft.reverse()
    # the S_i under each caret of Rg over two leaves: no caret cancels unless one of these does
    triples = zip(graft, graft[1:], graft[2:])
    cherries = [(i, j) for i, j, c in triples if c is None and i is not None and j is not None]
    moves_indices = not perms.is_identity(g.perm)

    def plan(tree: Tree) -> tuple:
        """(range leaves to split, renumbering, new tree, S_i sizes along `graft`, 0 at carets)."""
        stack, blocks, splits, first = [tree], [], [], 1
        for caret in fit:
            node = stack.pop()
            if not caret:
                blocks.append((node, first))
                first += node.leaves
                continue
            if node.left is None:  # split range leaf `first`; nodes to its right keep their shape
                splits.append(first)
                node = Tree(LEAF, LEAF)
            stack += (node.right, node.left)
        renumber = None
        if moves_indices:
            renumber, start = [0] * first, first  # the fit leaves `first` one past the last leaf
            for i in reversed(order):
                node, r = blocks[i]
                start -= node.leaves
                renumber[r : r + node.leaves] = range(start, start + node.leaves)
        trees: list[Tree] = []
        for i in graft:
            trees.append(Tree(trees.pop(), trees.pop()) if i is None else blocks[i][0])
        cancels = any(blocks[i][0] is LEAF and blocks[j][0] is LEAF for i, j in cherries)
        sizes = [0 if i is None else blocks[i][0].leaves for i in graft] if cancels else None
        pack = bytes if first <= 256 else tuple  # bytes hold a search's small tables in less room
        return pack(splits), renumber and pack(renumber), trees[0], sizes and pack(sizes)

    def move(e: Element, plans: dict | None = None, memo: dict | None = None) -> Element:
        plans = {} if plans is None else plans
        memo = {} if memo is None else memo
        if (p := plans.get(e.range_tree)) is None:
            p = plans[e.range_tree] = plan(e.range_tree)
        splits, renumber, range_tree, sizes = p
        domain, perm = e.domain_tree, e.perm
        for r in splits:  # domain leaf i maps to range leaf r, and its halves to r and r + 1
            i = perm.index(r) + 1
            if (split := memo.get((domain, i))) is None:
                split = memo[domain, i] = split_leaf(domain, i)
            domain, perm = split, [v + (v > r) for v in perm]
            perm.insert(i, r + 1)
        if renumber:
            perm = map(renumber.__getitem__, perm)
        e = Element._trusted(domain, range_tree, tuple(perm))
        if sizes:
            stack, first = [], range_tree.leaves + 1
            for size in sizes:  # `first` steps back to each node's first leaf
                if not size:
                    stack.append(stack.pop() + stack.pop())
                    if stack[-1] == 2 and (merged := e.cancel_pair(e.perm.index(first) + 1)):
                        e, stack[-1] = merged, 1
                else:
                    stack.append(size)
                    first -= size
        return e

    return move


# The same eight moves as local rewrites: LOCAL_MOVES[s](e) == e * MOVES[s] for reduced e.
LOCAL_MOVES = {s: _local_move(g) for s, g in MOVES.items()}
_RUN = 32  # symbols per run in `evaluate_word`; of 16, 32 and 64 the fastest over N = 8-1024


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

    Runs of `_RUN` symbols fold through `LOCAL_MOVES` from the identity, so their
    elements stay small; the product being associative, the runs' products are
    multiplied with `*` in rounds of neighbours, so none re-walks a long prefix.
    """
    runs = [word[i : i + _RUN] for i in range(0, len(word), _RUN)] or [()]
    factors = [reduce(lambda e, s: LOCAL_MOVES[s](e), run, Element.identity()) for run in runs]
    while len(factors) > 1:
        pairs = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[len(factors) & ~1 :]
    return factors[0]
