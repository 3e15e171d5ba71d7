"""Shared helpers: random diagrams, random expansions, random-order reduction."""

from __future__ import annotations

import random

from thompsonv.elements import Element
from thompsonv.trees import LEAF, Tree


def left_comb(carets: int) -> Tree:
    """Tree in which every right child is a leaf."""
    t = LEAF
    for _ in range(carets):
        t = Tree(t, LEAF)
    return t


def random_raw_element(carets: int, rng: random.Random) -> Element:
    return Element.random(carets, rng)


def random_element(carets: int, rng: random.Random) -> Element:
    return Element.random(carets, rng).reduce()


def expand_randomly(x: Element, rng: random.Random, steps: int) -> Element:
    """Blow up a diagram by splitting random leaves; same group element."""
    for _ in range(steps):
        x = x.expand_leaf(rng.randint(1, x.n_leaves))
    return x


def reduce_random_order(x: Element, rng: random.Random) -> Element:
    """Apply reduction steps in random order until none applies."""
    while True:
        pairs = x.reducible_pairs()
        if not pairs:
            return x
        x = x.reduce_step(rng.choice(pairs))
