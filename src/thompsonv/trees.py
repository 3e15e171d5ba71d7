"""Full ordered binary trees: the two halves of a tree-pair diagram.

Internal nodes are carets; leaves are numbered 1..n from left to right. Every
caret has exactly two children, so a tree with N carets has N+1 leaves.

Trees are interned: `Tree(left, right)` returns the one live node of that
shape, so equal trees are the same object, `==` and hashing are identity, and
diagrams share their common subtrees. Nodes are immutable, and a node no live
tree uses is freed: the node table maps (left, right) to a weak reference
whose death callback drops the entry unless it names a newer node.

A leaf's address (num, exp) names its dyadic interval [num/2^exp, (num+1)/2^exp);
the root's is (0, 0). Two leaves hang from one caret exactly when their
addresses are the left and right halves of one interval (`halves`): that one
rule rebuilds trees from their leaves (`tree_of`) and reduces diagrams. Text
is written through the addresses and read with a stack, so no walk recurses.
"""

from __future__ import annotations

import re
from _weakref import _remove_dead_weakref, ref
from threading import Lock

_SPACE = re.compile(r"\s*")  # on str, \s is exactly str.isspace and \d str.isdecimal
_INT = re.compile(r"\s*(\d*)")


class ParseError(ValueError):
    """Malformed text; `offset` is the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class _NodeRef(ref):
    """A weak reference to a node that keeps its key in the node table."""

    __slots__ = ("key",)


class Tree:
    """One node per shape: a leaf `Tree()`, or a caret `Tree(left, right)`."""

    __slots__ = ("left", "right", "leaves", "__weakref__")
    _nodes: dict[tuple[Tree | None, Tree | None], _NodeRef] = {}
    _lock = Lock()

    left: Tree | None
    right: Tree | None
    leaves: int

    def __new__(cls, left: Tree | None = None, right: Tree | None = None) -> Tree:
        node = (entry := cls._nodes.get((left, right))) and entry()  # None if new or freed
        if node is None:
            if (left is None) != (right is None):
                raise ValueError("a caret needs exactly two children")
            with cls._lock:  # two threads must not create two nodes of one shape
                node = (entry := cls._nodes.get((left, right))) and entry()
                if node is None:
                    node = object.__new__(cls)
                    object.__setattr__(node, "left", left)
                    object.__setattr__(node, "right", right)
                    object.__setattr__(node, "leaves", left.leaves + right.leaves if left else 1)
                    entry = _NodeRef(node, _forget)
                    entry.key = (left, right)
                    cls._nodes[entry.key] = entry
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (Tree, (self.left, self.right))  # copies and unpickling intern again

    @property
    def carets(self) -> int:
        return self.leaves - 1

    def __str__(self) -> str:
        return tree_text(self)

    def __repr__(self) -> str:
        return f"parse_tree({tree_text(self)!r})"


def _forget(entry: _NodeRef, nodes=Tree._nodes, remove=_remove_dead_weakref) -> None:
    """A node died: drop its entry unless that names a newer node. This can run inside
    `Tree.__new__`'s lock or at exit, so it takes no lock and reads no global."""
    remove(nodes, entry.key)


LEAF = Tree()

Address = tuple[int, int]


def right_comb(carets_: int) -> Tree:
    """Tree in which every left child is a leaf; 0 carets gives a leaf."""
    if carets_ < 0:
        raise ValueError("caret count must be non-negative")
    t = LEAF
    for _ in range(carets_):
        t = Tree(LEAF, t)
    return t


def _low_zeros(bits: int) -> int:
    """Trailing zero bits of a positive int."""
    return (bits & -bits).bit_length() - 1


def tree_text(t: Tree) -> str:
    """Text form, leaf by leaf: leaf (num, exp) is the first leaf of one caret
    per trailing 0 of num's exp bits, and the last leaf of one per trailing 1."""
    return ",".join(
        "(" * _low_zeros(num | 1 << exp) + "." + ")" * _low_zeros(num + 1)
        for num, exp in leaf_addresses(t)
    )


class Scanner:
    """Cursor over text that skips whitespace and reports byte offsets."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def expect(self, ch: str) -> None:
        if (got := self.peek()) != ch:
            raise ParseError(f"expected {ch!r}, got {got or 'end of input'!r}", self.pos)
        self.pos += 1

    def read_int(self) -> int:
        digits = _INT.match(self.text, self.pos)
        self.pos = digits.end()
        if not digits[1]:
            raise ParseError("expected an integer", self.pos)
        return int(digits[1])

    def done(self) -> None:
        if ch := self.peek():
            raise ParseError(f"unexpected trailing {ch!r}", self.pos)


def parse_tree_at(sc: Scanner) -> Tree:
    """Read one tree in one pass. The stack holds the open carets: None while
    a caret's left child is read, then that child."""
    text, pos = sc.text, sc.pos
    stack: list[Tree | None] = []
    t = None  # the subtree just read
    while True:
        ch = text[pos : pos + 1]
        if ch.isspace():
            pos = _SPACE.match(text, pos).end()
            ch = text[pos : pos + 1]
        if t is None:  # a subtree starts here
            if ch == "(":
                stack.append(None)
            elif ch == ".":
                t = LEAF
            else:
                raise ParseError(f"expected '.' or '(', got {ch or 'end of input'!r}", pos)
        elif not stack:
            sc.pos = pos
            return t
        else:  # a left child waits for ',', a right child ends its caret
            want = "," if stack[-1] is None else ")"
            if ch != want:
                sc.pos = pos
                sc.expect(want)
            if stack[-1] is None:
                stack[-1], t = t, None
            else:
                t = Tree(stack.pop(), t)
        pos += 1


def parse_tree(text: str) -> Tree:
    sc = Scanner(text)
    t = parse_tree_at(sc)
    sc.done()
    return t


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


def _path(t: Tree, i: int, cut: bool) -> tuple[list[tuple[Tree, bool]], Tree]:
    """Steps (parent, went right) from the root towards leaf i, steering by leaf counts,
    and the node reached: a leaf, or with `cut` the first caret splitting i from i+1."""
    path = []
    while t.left is not None and not (cut and i == t.left.leaves):
        right = i > t.left.leaves
        path.append((t, right))
        if right:
            i -= t.left.leaves
        t = t.right if right else t.left
    return path, t


def _rebuild(path: list[tuple[Tree, bool]], node: Tree) -> Tree:
    for parent, right in reversed(path):
        node = Tree(parent.left, node) if right else Tree(node, parent.right)
    return node


def split_leaf(t: Tree, i: int) -> Tree:
    """t with leaf i (1-indexed) replaced by a caret; only the path from the root is rebuilt."""
    if not 1 <= i <= t.leaves:
        raise ValueError(f"leaf index {i} out of range")
    return _rebuild(_path(t, i, False)[0], Tree(LEAF, LEAF))


def merge_leaves(t: Tree, i: int) -> Tree | None:
    """t with the caret over leaves i, i+1 made a leaf; None unless they hang from one caret."""
    path, node = _path(t, i, True)
    return _rebuild(path, LEAF) if node.left is LEAF and node.right is LEAF else None


def refine(a: list[Address], b: list[Address]) -> list[tuple[Address, int, int]]:
    """Common refinement of two tilings of [0, 1) by leaf addresses, left to right.

    Each interval comes with the indices in `a` and `b` of the intervals that
    contain it. Dyadic intervals that start at one point nest, so each step
    takes the finer of a[i] and b[j] and moves past the ones that end with it.
    """
    out: list[tuple[Address, int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        (num_a, exp_a), (num_b, exp_b) = a[i], b[j]
        if exp_a >= exp_b:
            out.append((a[i], i, j))
            if num_a + 1 == (num_b + 1) << (exp_a - exp_b):  # a[i] ends b[j]
                j += 1
            i += 1
        else:
            out.append((b[j], i, j))
            if num_b + 1 == (num_a + 1) << (exp_b - exp_a):  # b[j] ends a[i]
                i += 1
            j += 1
    return out


def spine_rotations_to_comb(t: Tree) -> list[int]:
    """Right-spine rotation schedule turning t into the right comb.

    Each entry k is a right rotation ((A,B),C) -> (A,(B,C)) applied at the
    node k steps down the right spine. The schedule is non-decreasing in k,
    which keeps the generator words it induces short.

    Depth k is rotated as often as leaf k's exponent (Cannon-Floyd-Parry):
    the carets whose first leaf is leaf k, less the highest of them if it
    lies on the right spine. Both are read off the leaf's address.
    """
    ks: list[int] = []
    for k, (num, exp) in enumerate(leaf_addresses(t)):
        z = _low_zeros(num | 1 << exp)  # carets whose first leaf is leaf k
        if z and (num >> z) + 1 == 1 << (exp - z):  # the highest is on the right spine
            z -= 1
        ks += [k] * z
    return ks


def random_tree(carets_: int, rng) -> Tree:
    """Uniform full binary tree with the given caret count.

    Splits each caret with exact Catalan weights, so every shape has
    probability 1/C(carets), C(k) the k-th Catalan number. Splits are drawn in
    pre-order, and each is searched from the nearer end of its weights
    C(k) C(m-1-k), which are symmetric in k, so large trees cost little more
    than their size.
    """
    if carets_ < 0:
        raise ValueError("caret count must be non-negative")
    return _random_tree(carets_, rng, _catalan(carets_))


def _catalan(carets_: int) -> list[int]:
    """The Catalan numbers C(0) .. C(carets_); at large counts they hold most of a draw's memory."""
    cat = [1]  # C(k+1) = C(k) 2(2k+1) / (k+2)
    for k in range(carets_):
        cat.append(cat[k] * 2 * (2 * k + 1) // (k + 2))
    return cat


def _random_tree(carets_: int, rng, cat: list[int]) -> Tree:
    """`random_tree`, with `cat` holding at least C(0) .. C(carets_), so draws can share it."""

    def left_carets(m: int) -> int:
        r = rng.randrange(cat[m])
        s = min(r, cat[m] - 1 - r)
        k, acc = 0, cat[m - 1]
        while s >= acc:
            k += 1
            acc += cat[k] * cat[m - 1 - k]
        return k if s == r else m - 1 - k

    sizes = []  # caret counts of the subtrees, in pre-order
    todo = [carets_]
    while todo:
        m = todo.pop()
        sizes.append(m)
        if m:
            k = left_carets(m)
            todo += [m - 1 - k, k]
    built: list[Tree] = []
    for m in reversed(sizes):
        built.append(Tree(built.pop(), built.pop()) if m else LEAF)
    return built[0]
