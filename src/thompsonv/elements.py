"""Tree-pair diagrams with leaf permutations: elements of Thompson's group V.

An element is (domain tree, range tree, permutation); leaf i of the domain
tree maps affinely and orientation-preservingly onto leaf perm(i) of the
range tree. Diagrams are immutable; reduce() produces the unique reduced
diagram, which is the canonical form used for equality, hashing and search.

Composition convention: (a * b) means "apply a, then b", so a written word
g1 g2 ... gk evaluates left to right.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import permutations as perms
from .intervals import DyadicInterval, PiecewiseMap
from .trees import (
    LEAF,
    Address,
    Scanner,
    Tree,
    _catalan,
    _random_tree,
    halves,
    leaf_addresses,
    merge_leaves,
    parse_tree_at,
    refine,
    split_leaf,
    tree_of,
    tree_text,
)

# One leaf of a diagram: the address of a domain leaf and of its image.
Piece = tuple[Address, Address]


def _merged(p: Piece, q: Piece) -> Piece | None:
    """The piece that p and q form when both coordinates are halves, else None."""
    domain = halves(p[0], q[0])
    image = domain and halves(p[1], q[1])
    return (domain, image) if image else None


def _cancelled(pieces: list[Piece]) -> list[Piece]:
    """The pieces of the reduced diagram, in domain order.

    One left-to-right pass with a stack: a piece merges with the top while
    both its addresses are halves with the top's, so nothing is rescanned.
    Reduced diagrams are unique, so the order of merges does not matter.
    """
    stack: list[Piece] = []
    for piece in pieces:
        while stack and (whole := _merged(stack[-1], piece)):
            stack.pop()
            piece = whole
        stack.append(piece)
    return stack


def _relabel(a: Address, outer: Address, target: Address) -> Address:
    """Where `a`, an interval inside `outer`, lands when `outer` maps affinely onto `target`."""
    (num, exp), (m, f), (d, e) = a, outer, target
    s = exp - f
    return ((d << s) + num - (m << s), e + s)


@dataclass(frozen=True, slots=True, init=False)
class Element:
    """A tree-pair diagram. `==` and hashing compare diagrams, so an element and
    its expansions are unequal; `equals` compares group elements (the reduced
    diagrams). Trees are interned, so `==` is two identity checks and a
    permutation compare, while reducing walks the whole diagram.
    """

    domain_tree: Tree
    range_tree: Tree
    perm: perms.Perm

    def __init__(self, domain_tree: Tree, range_tree: Tree, perm: perms.Perm) -> None:
        perm = perms.check_perm(perm)
        n = domain_tree.leaves
        if range_tree.leaves != n or len(perm) != n:
            raise ValueError(
                f"leaf counts disagree: domain {n}, range {range_tree.leaves}, "
                f"permutation degree {len(perm)}"
            )
        object.__setattr__(self, "domain_tree", domain_tree)  # frozen: each field is set once
        object.__setattr__(self, "range_tree", range_tree)
        object.__setattr__(self, "perm", perm)

    @staticmethod
    def _trusted(domain_tree: Tree, range_tree: Tree, perm: perms.Perm) -> Element:
        """An element from parts that a valid element yields, so `__init__`'s checks are skipped."""
        e = object.__new__(Element)
        object.__setattr__(e, "domain_tree", domain_tree)
        object.__setattr__(e, "range_tree", range_tree)
        object.__setattr__(e, "perm", perm)
        return e

    # -- construction and text form --------------------------------------

    @staticmethod
    def identity() -> Element:
        return Element(LEAF, LEAF, (1,))

    @staticmethod
    def random(carets: int, rng: random.Random) -> Element:
        """Unreduced diagram from two uniform random trees and a uniform permutation."""
        if carets < 1:
            raise ValueError("caret count must be positive")
        return Element._random(carets, rng, _catalan(carets))

    @staticmethod
    def _random(carets: int, rng: random.Random, cat: list[int]) -> Element:
        """`random`, drawing both trees with the Catalan numbers `cat` (see `trees._catalan`)."""
        domain = _random_tree(carets, rng, cat)
        range_ = _random_tree(carets, rng, cat)
        images = list(range(1, carets + 2))
        rng.shuffle(images)
        return Element(domain, range_, tuple(images))

    @staticmethod
    def parse(text: str) -> Element:
        sc = Scanner(text)
        domain = parse_tree_at(sc)
        sc.expect("|")
        range_ = parse_tree_at(sc)
        sc.expect("|")
        sc.expect("[")
        images = [sc.read_int()]
        while sc.peek() == ",":
            sc.pos += 1
            images.append(sc.read_int())
        sc.expect("]")
        sc.done()
        return Element(domain, range_, tuple(images))

    def text(self) -> str:
        images = ",".join(str(v) for v in self.perm)
        return f"{tree_text(self.domain_tree)}|{tree_text(self.range_tree)}|[{images}]"

    def __str__(self) -> str:
        return self.text()

    @property
    def n_leaves(self) -> int:
        return self.domain_tree.leaves

    # -- reduction --------------------------------------------------------

    def _pieces(self) -> list[Piece]:
        images = leaf_addresses(self.range_tree)
        return list(zip(leaf_addresses(self.domain_tree), [images[v - 1] for v in self.perm]))

    @staticmethod
    def _from_pieces(pieces: list[Piece]) -> Element:
        """The diagram whose leaves are these pieces, domains left to right."""
        images = [image for _, image in pieces]
        top = max(exp for _, exp in images)
        order = sorted(range(len(images)), key=lambda j: images[j][0] << (top - images[j][1]))
        return Element._trusted(
            tree_of([domain for domain, _ in pieces]),
            tree_of([images[j] for j in order]),
            perms.invert_perm(tuple(j + 1 for j in order)),
        )

    def reducible_pairs(self) -> list[int]:
        """Leaf indices i where a caret pair can be cancelled.

        Leaves i and i+1 must be the two halves of one interval (they hang
        from one caret), and so must their images, in the same order.
        """
        pieces = self._pieces()
        return [i for i in range(1, len(pieces)) if _merged(pieces[i - 1], pieces[i])]

    def reduce_step(self, i: int) -> Element:
        """Cancel the caret pair over leaves i, i+1; renumber the permutation."""
        whole = self.cancel_pair(i)
        if whole is None:
            raise ValueError(f"no reducible pair at leaf {i}")
        return whole

    def cancel_pair(self, i: int) -> Element | None:
        """reduce_step(i), or None unless leaves i, i+1 and their images are caret pairs."""
        if not 1 <= i < self.n_leaves or self.perm[i] != self.perm[i - 1] + 1:
            return None
        r = self.perm[i - 1]
        domain = merge_leaves(self.domain_tree, i)
        range_ = domain and merge_leaves(self.range_tree, r)
        if range_ is None:
            return None
        images = self.perm[:i] + self.perm[i + 1 :]
        return Element._trusted(domain, range_, tuple(v - (v > r) for v in images))

    def reduce(self) -> Element:
        """Unique reduced diagram of the same group element; self if already reduced."""
        pieces = self._pieces()
        stack = _cancelled(pieces)
        return self if len(stack) == len(pieces) else Element._from_pieces(stack)

    def is_reduced(self) -> bool:
        return not self.reducible_pairs()

    def expand_leaf(self, i: int) -> Element:
        """Split leaf i and its image: the inverse of one reduction step."""
        if not 1 <= i <= self.n_leaves:
            raise ValueError(f"leaf index {i} out of range")
        r = self.perm[i - 1]
        images = [v + (v > r) for v in self.perm]
        images.insert(i, r + 1)
        return Element._trusted(
            split_leaf(self.domain_tree, i), split_leaf(self.range_tree, r), tuple(images)
        )

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: Element) -> Element:
        """Composition "apply self, then other", reduced.

        The range leaves of self and the domain leaves of other both tile
        [0, 1). Each interval of their common refinement is pulled back
        through self and pushed on through other: one piece of the product.
        """
        if not isinstance(other, Element):
            return NotImplemented
        middle = leaf_addresses(self.range_tree)
        theirs = other._pieces()
        inside: list[list[tuple[Address, int]]] = [[] for _ in middle]
        for c, i, j in refine(middle, [domain for domain, _ in theirs]):
            inside[i].append((c, j))
        # domain order: each domain leaf of self, split as its image is
        pieces = [
            (_relabel(c, middle[v - 1], domain), _relabel(c, *theirs[j]))
            for domain, v in zip(leaf_addresses(self.domain_tree), self.perm)
            for c, j in inside[v - 1]
        ]
        return Element._from_pieces(_cancelled(pieces))

    def inverse(self) -> Element:
        return Element._trusted(self.range_tree, self.domain_tree, perms.invert_perm(self.perm))

    def __pow__(self, n: int) -> Element:
        if n < 0:
            return self.inverse() ** (-n)
        out = Element.identity()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def equals(self, other: Element) -> bool:
        """Group equality: the reduced diagrams coincide."""
        return self.reduce() == other.reduce()

    def is_identity(self) -> bool:
        return self.reduce() == Element.identity()

    # -- invariants ---------------------------------------------------------

    def caret_count(self) -> int:
        """Carets of the reduced diagram (both trees always agree)."""
        return self.reduce().domain_tree.carets

    # Expanding a leaf keeps the cluster count, an identity permutation and a
    # cyclic shift, so the next three read any diagram of the element.
    def cluster_count(self) -> int:
        """Clusters of the permutation: B."""
        return len(perms._cluster_breaks(self.perm)) + 1

    def in_f(self) -> bool:
        return perms.is_identity(self.perm)

    def in_t(self) -> bool:
        return perms.cyclic_shift(self.perm) is not None

    def interval_map(self) -> PiecewiseMap:
        """Right-continuous map view of the reduced diagram."""
        pieces = self.reduce()._pieces()
        return PiecewiseMap(tuple((DyadicInterval(*d), DyadicInterval(*m)) for d, m in pieces))

