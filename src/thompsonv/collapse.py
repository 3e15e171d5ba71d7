"""Cluster collapse: conjugation-free tree surgery that shrinks a diagram.

Pre- and post-composing an element with order-preserving elements can reshape
both trees at will. Choosing the reshaped trees so that every cluster carries
the same comb on both sides makes each cluster cancel to a single leaf: the
result has one leaf per cluster and an all-singleton induced permutation.
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

    The constructed diagrams of y and z each have exactly caret_count(x)
    carets per tree before any incidental reduction; the collapsed element
    has cluster_count(x) leaves and only singleton clusters.
    """
    x = x.reduce()
    partition = perms.cluster_runs(x.perm)
    domain_sizes = partition.sizes()
    image_order = sorted(partition.runs, key=lambda run: x.perm[run[0] - 1])
    image_sizes = [last - first + 1 for first, last in image_order]

    ident = perms.identity_perm(x.n_leaves)
    a = _cluster_tree(domain_sizes)
    a_image = _cluster_tree(image_sizes)
    y = Element(a, x.domain_tree, ident)
    z = Element(x.range_tree, a_image, ident)
    collapsed = y * x * z
    return CollapseResult(y, z, collapsed, a.carets, a_image.carets)
