"""Full ordered binary trees: the two halves of a tree-pair diagram.

Trees are immutable values. Internal nodes are carets; leaves are numbered
1..n from left to right. Every caret has exactly two children, so a tree with
N carets has N+1 leaves. Leaf counts and hashes are computed once at
construction so that the search oracle can use trees as cheap keys.

A leaf's address (num, exp) names its dyadic interval [num/2^exp, (num+1)/2^exp);
the root's is (0, 0). Two leaves hang from one caret exactly when their
addresses are the left and right halves of one interval (`halves`): that one
rule rebuilds trees from their leaves (`tree_of`) and reduces diagrams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .intervals import DyadicInterval


class ParseError(ValueError):
    """Malformed text; `offset` is the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True, eq=False)
class Tree:
    left: Tree | None = None
    right: Tree | None = None
    leaves: int = field(init=False, compare=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise ValueError("a caret needs exactly two children")
        if self.left is None:
            object.__setattr__(self, "leaves", 1)
            object.__setattr__(self, "_hash", hash((0, 0)))
        else:
            object.__setattr__(self, "leaves", self.left.leaves + self.right.leaves)
            object.__setattr__(self, "_hash", hash((self.left._hash, self.right._hash)))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def carets(self) -> int:
        return self.leaves - 1

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        if self._hash != other._hash or self.leaves != other.leaves:
            return False
        if self.left is None or other.left is None:
            return self.left is None and other.left is None
        return self.left == other.left and self.right == other.right

    def __str__(self) -> str:
        return tree_text(self)


LEAF = Tree()


def right_comb(carets_: int) -> Tree:
    """Tree in which every left child is a leaf; 0 carets gives a leaf."""
    if carets_ < 0:
        raise ValueError("caret count must be non-negative")
    t = LEAF
    for _ in range(carets_):
        t = Tree(LEAF, t)
    return t


def tree_text(t: Tree) -> str:
    parts: list[str] = []

    def emit(node: Tree) -> None:
        if node.is_leaf:
            parts.append(".")
        else:
            parts.append("(")
            emit(node.left)
            parts.append(",")
            emit(node.right)
            parts.append(")")

    emit(t)
    return "".join(parts)


class Scanner:
    """Cursor over text that skips whitespace and reports byte offsets."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            got = self.peek() or "end of input"
            raise ParseError(f"expected {ch!r}, got {got!r}", self.pos)
        self.pos += 1

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def done(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected trailing {self.text[self.pos]!r}", self.pos)


def parse_tree_at(sc: Scanner) -> Tree:
    ch = sc.peek()
    if ch == ".":
        sc.pos += 1
        return LEAF
    if ch == "(":
        sc.pos += 1
        left = parse_tree_at(sc)
        sc.expect(",")
        right = parse_tree_at(sc)
        sc.expect(")")
        return Tree(left, right)
    raise ParseError(f"expected '.' or '(', got {ch or 'end of input'!r}", sc.pos)


def parse_tree(text: str) -> Tree:
    sc = Scanner(text)
    t = parse_tree_at(sc)
    sc.done()
    return t


Address = tuple[int, int]


def halves(a: Address, b: Address) -> Address | None:
    """The interval whose left and right halves are `a` and `b`, else None."""
    (num, exp), (num_b, exp_b) = a, b
    if exp == exp_b and num_b == num + 1 and not num & 1:
        return (num >> 1, exp - 1)
    return None


def leaf_addresses(t: Tree) -> list[Address]:
    """Addresses of the leaves, left to right; the root owns (0, 0)."""
    out: list[Address] = []
    stack = [(t, 0, 0)]
    while stack:
        node, num, exp = stack.pop()
        while node.left is not None:
            exp += 1
            stack.append((node.right, (num << 1) | 1, exp))
            node, num = node.left, num << 1
        out.append((num, exp))
    return out


def tree_of(addresses: list[Address]) -> Tree:
    """The tree whose leaves have these addresses; ValueError unless they tile [0, 1)."""
    stack: list[tuple[Address, Tree]] = []
    for a in addresses:
        t = LEAF
        while stack and (whole := halves(stack[-1][0], a)):
            t = Tree(stack.pop()[1], t)
            a = whole
        stack.append((a, t))
    if len(stack) != 1 or stack[0][0] != (0, 0):
        raise ValueError("addresses do not tile [0, 1) as the leaves of a tree")
    return stack[0][1]


def leaf_intervals(t: Tree) -> list[DyadicInterval]:
    """Dyadic intervals of the leaves, left to right; the root owns [0, 1)."""
    return [DyadicInterval(num, exp) for num, exp in leaf_addresses(t)]


def replace_leaf(t: Tree, i: int, sub: Tree) -> Tree:
    """Graft `sub` in place of leaf i (1-indexed)."""
    if not 1 <= i <= t.leaves:
        raise ValueError(f"leaf index {i} out of range")
    if t.is_leaf:
        return sub
    if i <= t.left.leaves:
        return Tree(replace_leaf(t.left, i, sub), t.right)
    return Tree(t.left, replace_leaf(t.right, i - t.left.leaves, sub))


def refine(a: Tree, b: Tree) -> Tree:
    """Smallest tree refining both arguments (union of their subdivisions)."""
    if a.is_leaf:
        return b
    if b.is_leaf:
        return a
    return Tree(refine(a.left, b.left), refine(a.right, b.right))


def fringe_subtrees(coarse: Tree, fine: Tree) -> list[Tree]:
    """Subtrees of `fine` hanging at the leaf positions of `coarse`.

    Requires that `fine` refines `coarse`.
    """
    out: list[Tree] = []

    def walk(c: Tree, f: Tree) -> None:
        if c.is_leaf:
            out.append(f)
            return
        if f.is_leaf:
            raise ValueError("tree does not refine the coarse tree")
        walk(c.left, f.left)
        walk(c.right, f.right)

    walk(coarse, fine)
    return out


def graft_fringe(t: Tree, subs: list[Tree]) -> Tree:
    """Replace leaf i of t by subs[i-1] for every leaf."""
    if len(subs) != t.leaves:
        raise ValueError("one subtree per leaf required")
    it = iter(subs)

    def walk(node: Tree) -> Tree:
        if node.is_leaf:
            return next(it)
        return Tree(walk(node.left), walk(node.right))

    return walk(t)


def spine_rotations_to_comb(t: Tree) -> list[int]:
    """Right-spine rotation schedule turning t into the right comb.

    Each entry k is a right rotation ((A,B),C) -> (A,(B,C)) applied at the
    node k steps down the right spine. The schedule is non-decreasing in k,
    which keeps the generator words it induces short.
    """
    ks: list[int] = []
    k = 0
    s = t
    while not s.is_leaf:
        if s.left.is_leaf:
            s = s.right
            k += 1
        else:
            s = Tree(s.left.left, Tree(s.left.right, s.right))
            ks.append(k)
    return ks


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def random_tree(carets_: int, rng) -> Tree:
    """Uniform full binary tree with the given caret count.

    Splits the root caret with exact Catalan weights, so every shape has
    probability 1/catalan(carets).
    """
    if carets_ == 0:
        return LEAF
    r = rng.randrange(catalan(carets_))
    acc = 0
    for k in range(carets_):
        acc += catalan(k) * catalan(carets_ - 1 - k)
        if r < acc:
            return Tree(random_tree(k, rng), random_tree(carets_ - 1 - k, rng))
    raise AssertionError("catalan weights do not sum")
