"""Permutations in one-line notation and their cluster structure.

A permutation of degree n is the tuple (s(1), ..., s(n)) of 1-indexed images.
A cluster is a maximal run of consecutive positions whose images are also
consecutive; the number of clusters is the invariant driving the improved
metric bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Perm = tuple[int, ...]


def check_perm(images: Iterable[int]) -> Perm:
    p = tuple(images)
    n = len(p)
    if n == 0:
        raise ValueError("permutation must have degree at least 1")
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{p} is not a bijection of 1..{n}")
    return p


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_identity(p: Perm) -> bool:
    return all(v == i + 1 for i, v in enumerate(p))


def invert_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def cyclic_shift(p: Perm) -> int | None:
    """The c with s(i) = ((i-1+c) mod n)+1, or None if p is not cyclic."""
    n = len(p)
    c = p[0] - 1
    for i, v in enumerate(p):
        if v != (i + c) % n + 1:
            return None
    return c


@dataclass(frozen=True)
class ClusterPartition:
    """Maximal runs (first, last), 1-indexed inclusive, covering 1..n."""

    runs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.runs)

    def sizes(self) -> list[int]:
        return [last - first + 1 for first, last in self.runs]


def _cluster_breaks(p: Perm) -> list[int]:
    """The positions i in 1..n-1 with s(i+1) != s(i)+1, where a cluster ends."""
    return [i for i in range(1, len(p)) if p[i] != p[i - 1] + 1]


def cluster_runs(p: Perm) -> ClusterPartition:
    """Partition of 1..n into maximal runs with s(i+j) = s(i)+j."""
    ends = [0, *_cluster_breaks(check_perm(p)), len(p)]
    return ClusterPartition(tuple((a + 1, b) for a, b in zip(ends, ends[1:])))


def adjacent_swap(n: int, i: int) -> Perm:
    """Transposition of i and i+1 inside 1..n."""
    if not 1 <= i < n:
        raise ValueError(f"no adjacent pair at {i} in degree {n}")
    out = list(range(1, n + 1))
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)

