"""Constructive word synthesis over the standard generators.

Every element factors as (shape part) * (permutation part) * (shape part):
the shape parts are order-preserving and come from right-spine rotation
schedules, the permutation part lives on a right comb and is a product of
adjacent-leaf swaps realized as conjugates of pi by comb cycles. Words are
correctness witnesses; their lengths are polynomial in the caret count and
reported, not optimized.
"""

from __future__ import annotations

from . import permutations as perms
from .elements import Element
from .generators import (
    GenSymbol,
    Word,
    free_reduce,
    invert_word,
    power_word,
)
from .trees import LEAF, Tree, replace_leaf, right_comb, spine_rotations_to_comb

_X0 = GenSymbol("x0")
_X1 = GenSymbol("x1")
_C = GenSymbol("c")
_PI = GenSymbol("pi")


def x_word(k: int) -> Word:
    """Word for the rotation x_k at depth k of the right spine.

    x_0 is the generator; deeper rotations are x0-conjugates, and the
    conjugating powers telescope when consecutive depths are emitted.
    """
    if k < 0:
        raise ValueError("spine depth must be non-negative")
    if k == 0:
        return (_X0,)
    return power_word("x0", k - 1) + (_X1,) + power_word("x0", -(k - 1))


def rotation_element(k: int) -> Element:
    """The element x_k as an explicit diagram (used to pin down x_word)."""
    domain = right_comb(k + 2)
    bend = Tree(Tree(LEAF, LEAF), LEAF)
    range_ = replace_leaf(right_comb(k), k + 1, bend)
    return Element(domain, range_, perms.identity_perm(k + 3))


def cycle_word(n: int) -> Word:
    """Word for the cyclic shift of the n leaves of a right comb, n >= 3.

    The shift on n+1 leaves is the shift on n leaves preceded by one extra
    rotation, giving c_n = x_{n-3} x_{n-4} ... x_1 c.
    """
    if n < 3:
        raise ValueError("comb cycles need at least 3 leaves")
    word: Word = ()
    for k in range(n - 3, 0, -1):
        word += x_word(k)
    return free_reduce(word + (_C,))


def cycle_element(n: int) -> Element:
    comb = right_comb(n - 1)
    shift = tuple(i % n + 1 for i in range(1, n + 1))
    return Element(comb, comb, shift)


def swap_word(i: int, n: int) -> Word:
    """Word for the swap of leaves i, i+1 of the n-leaf right comb, n >= 3.

    The swap at position 1 is pi itself; other positions are conjugates by
    powers of the comb cycle.
    """
    if not 1 <= i < n:
        raise ValueError(f"no adjacent pair at {i} in degree {n}")
    if i == 1:
        return (_PI,)
    cw = cycle_word(n)
    return free_reduce(invert_word(cw) * (i - 1) + (_PI,) + cw * (i - 1))


def comb_perm_word(p: perms.Perm) -> Word:
    """Word for (comb, comb, p) with p of degree n >= 3."""
    n = len(p)
    if n < 3:
        raise ValueError("comb permutation words need degree >= 3")
    word: Word = ()
    for i in perms.bubble_sort_swaps(p):
        word += swap_word(i, n)
    return free_reduce(word)


def f_normal_form_word(f: Element) -> Word:
    """Word over {x0, x1} for an order-preserving element.

    Both trees of the reduced diagram are rotated onto the right comb; the
    domain schedule is emitted inverted, the range schedule reversed. The
    non-decreasing schedules make the x0-conjugating powers telescope, so the
    word length is linear in the caret count.
    """
    if not f.in_f():
        raise ValueError("element is not order-preserving")
    f = f.reduce()
    word: Word = ()
    for k in spine_rotations_to_comb(f.domain_tree):
        word += invert_word(x_word(k))
    for k in reversed(spine_rotations_to_comb(f.range_tree)):
        word += x_word(k)
    return free_reduce(word)


def synthesize_word(x: Element) -> Word:
    """A word over all four generators evaluating to x.

    Factors x through the right comb: shape in, permutation on the comb,
    shape out. Degree-<3 diagrams are expanded first so the comb swaps exist.
    """
    x = x.reduce()
    if x.in_f():
        return f_normal_form_word(x)
    while x.n_leaves < 3:
        x = x.expand_leaf(1)
    comb = right_comb(x.n_leaves - 1)
    ident = perms.identity_perm(x.n_leaves)
    shape_in = Element(x.domain_tree, comb, ident)
    shape_out = Element(comb, x.range_tree, ident)
    word = (
        f_normal_form_word(shape_in)
        + comb_perm_word(x.perm)
        + f_normal_form_word(shape_out)
    )
    return free_reduce(word)

