"""Cluster collapse: conjugation-free tree surgery that shrinks a diagram.

Pre- and post-composing an element with order-preserving elements can reshape
both trees at will. Giving every cluster the same comb on both sides makes it
cancel to one leaf, so the result has one leaf per cluster and depends only on
the order of the clusters' images: it is counted, not multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import permutations as perms
from .elements import Element
from .trees import Tree, right_comb


@dataclass(frozen=True)
class CollapseResult:
    y: Element
    z: Element
    collapsed: Element
    y_diagram_carets: int
    z_diagram_carets: int


def _cluster_tree(sizes: list[int]) -> Tree:
    """Right comb with one leaf per cluster, each grafted with its own comb."""
    t = right_comb(sizes[-1] - 1)
    for k in reversed(sizes[:-1]):
        t = Tree(right_comb(k - 1), t)
    return t


def collapse_clusters(x: Element) -> CollapseResult:
    """Order-preserving y, z with y*x*z reduced to one leaf per cluster.

    The diagrams of y and z have caret_count(x) carets per tree. Each cluster's
    comb cancels to one leaf and no caret more does, as clusters are maximal,
    so y*x*z is (comb, comb, tau) with tau ranking the clusters' first images.
    """
    x = x.reduce()
    partition = perms.cluster_runs(x.perm)
    sizes = partition.sizes()
    by_image = sorted(range(len(partition)), key=lambda k: x.perm[partition.runs[k][0] - 1])
    ident = perms.identity_perm(x.n_leaves)
    a = _cluster_tree(sizes)
    a_image = _cluster_tree([sizes[k] for k in by_image])
    y = Element(a, x.domain_tree, ident)
    z = Element(x.range_tree, a_image, ident)
    comb = right_comb(len(partition) - 1)
    collapsed = Element(comb, comb, perms.invert_perm(tuple(k + 1 for k in by_image)))
    return CollapseResult(y, z, collapsed, a.carets, a_image.carets)
