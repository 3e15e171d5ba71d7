"""Tree-pair diagram algebra for Thompson's group V.

Canonical forms, the cluster invariant, word-metric bounds, constructive
cluster collapse, word synthesis, and an exact Cayley-graph length oracle.
"""

from .elements import Element
from .intervals import DyadicInterval, PiecewiseMap, graph_components
from .permutations import ClusterPartition, cluster_runs
from .trees import LEAF, ParseError, Tree, parse_tree, right_comb, tree_text

__all__ = [
    "Element",
    "DyadicInterval",
    "PiecewiseMap",
    "graph_components",
    "ClusterPartition",
    "cluster_runs",
    "LEAF",
    "ParseError",
    "Tree",
    "parse_tree",
    "right_comb",
    "tree_text",
]
