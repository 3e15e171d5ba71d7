"""Dyadic intervals and piecewise affine maps of [0, 1).

Endpoint arithmetic is exact: an interval of width 1/2^exp starting at
num/2^exp is the integer pair (num, exp), and adjacency tests are integer
cross-multiplications. `fractions.Fraction` appears only as a read-only view
for callers and tests; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class DyadicInterval:
    """Half-open interval [num/2^exp, (num+1)/2^exp) inside [0, 1)."""

    num: int
    exp: int

    def __post_init__(self) -> None:
        if self.exp < 0:
            raise ValueError(f"negative exponent {self.exp}")
        if not 0 <= self.num < (1 << self.exp):
            raise ValueError(f"[{self.num}/2^{self.exp}, ...) is not inside [0, 1)")

    @property
    def left(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    @property
    def right(self) -> Fraction:
        return Fraction(self.num + 1, 1 << self.exp)

    @property
    def width(self) -> Fraction:
        return Fraction(1, 1 << self.exp)

    def abuts(self, other: DyadicInterval) -> bool:
        """True when this interval ends exactly where `other` begins."""
        return (self.num + 1) << other.exp == other.num << self.exp

    def contains(self, point: Fraction) -> bool:
        return self.left <= point < self.right

    def __str__(self) -> str:
        return f"[{self.left},{self.right})"


def _check_tiling(intervals: list[DyadicInterval], side: str) -> None:
    if not intervals:
        raise ValueError(f"{side} side of a piecewise map has no pieces")
    if intervals[0].num != 0:
        raise ValueError(f"{side} intervals do not start at 0")
    for a, b in zip(intervals, intervals[1:]):
        if not a.abuts(b):
            raise ValueError(f"{side} intervals have a gap or overlap at {a.right}")
    last = intervals[-1]
    if last.num + 1 != 1 << last.exp:
        raise ValueError(f"{side} intervals do not end at 1")


@dataclass(frozen=True)
class PiecewiseMap:
    """Right-continuous bijection of [0, 1) built from affine dyadic pieces.

    pieces[i] = (source, target). Sources tile [0, 1) in left-to-right order;
    targets tile [0, 1) in the order given by the underlying leaf permutation.
    Each piece maps its source affinely and orientation-preservingly onto its
    target.
    """

    pieces: tuple[tuple[DyadicInterval, DyadicInterval], ...]

    def __post_init__(self) -> None:
        _check_tiling([s for s, _ in self.pieces], "source")
        targets = [t for _, t in self.pieces]
        top = max(t.exp for t in targets)  # left ends compared as integers over 2^top
        _check_tiling(sorted(targets, key=lambda t: t.num << (top - t.exp)), "target")

    def __len__(self) -> int:
        return len(self.pieces)

    def apply(self, point: Fraction) -> Fraction:
        """Evaluate the map at an exact rational point of [0, 1)."""
        if not 0 <= point < 1:
            raise ValueError(f"point {point} outside [0, 1)")
        for src, tgt in self.pieces:
            if src.contains(point):
                return tgt.left + (point - src.left) * (tgt.width / src.width)
        raise AssertionError("source intervals do not cover [0, 1)")

    def component_count(self) -> int:
        """Connected components of the closure of the graph of the map.

        Consecutive pieces belong to one component exactly when the target of
        piece i ends where the target of piece i+1 begins.
        """
        count = 1
        for (_, t1), (_, t2) in zip(self.pieces, self.pieces[1:]):
            if not t1.abuts(t2):
                count += 1
        return count

    def __str__(self) -> str:
        return "; ".join(f"{s} -> {t}" for s, t in self.pieces)


def graph_components(pmap: PiecewiseMap) -> int:
    return pmap.component_count()
