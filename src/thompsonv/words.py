"""Constructive word synthesis over the standard generators.

An element x factors through its cluster collapse as x = y^-1 * collapsed * z^-1
with y, z order-preserving (collapse.collapse_clusters). The collapsed element
is (comb, comb, tau) on one leaf per cluster, so x gets the F word of y^-1, a
radix-sort word for tau and the F word of z^-1. F words have O(N) symbols and
the sort O(B log2 B), so |w| = O(N + B log2 B): the paper's bound, built.
"""

from __future__ import annotations

from . import permutations as perms
from .collapse import collapse_clusters
from .elements import Element
from .generators import GenSymbol, Word, free_reduce, parse_word, power_word
from .trees import LEAF, Tree, right_comb, spine_rotations_to_comb

_X0 = GenSymbol("x0")
_X1 = GenSymbol("x1")

# Root patterns of the radix sort: geodesic words (radius-5 BFS witnesses)
# for the diagrams that move one leaf a of the range tree onto a stack. Z is
# the zero stack, O the one stack, S the only stack so far, r the rest.
_JOIN = parse_word("x0")  # (S,(a,r)) -> ((S,a),r)
_START_Z = parse_word("pi x0")  # (O,(a,r)) -> ((a,O),r)
_TO_Z = parse_word("pi x1^-1 pi x0 x0")  # ((Z,O),(a,r)) -> (((Z,a),O),r)
_TO_O = parse_word("x0^-1 x1 x0")  # ((Z,O),(a,r)) -> ((Z,(O,a)),r)
_LAST_TO_Z = parse_word("x0^-1 c pi x0")  # ((Z,O),a) -> ((Z,a),O)
_LAST_TO_O = parse_word("x0^-1")  # ((Z,O),a) -> (Z,(O,a))
_LAST_START_Z = parse_word("x0^-1 c")  # (O,a) -> (a,O)


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
    range_ = Tree(Tree(LEAF, LEAF), LEAF)  # the bend, under k spine carets
    for _ in range(k):
        range_ = Tree(LEAF, range_)
    return Element(right_comb(k + 2), range_, perms.identity_perm(k + 3))


def comb_perm_word(p: perms.Perm) -> Word:
    """Word for (comb, comb, p): an LSD radix sort of the comb's leaves.

    Pass b walks the range leaves in order and stably splits them by bit b of
    p[i]-1 onto a zero stack Z and a one stack O, one root pattern per leaf;
    an F word then turns the tree (Z, O) back into the comb. Each pass costs
    O(len(p)) symbols. Z and O are left combs, so only their sizes are
    tracked: (Z, O) rotates z-1 times at depth 0 and o-2 times at depth z.
    """
    n = len(p)
    order = list(range(n))  # domain leaves (0-based) in range order
    word: list[GenSymbol] = []
    for b in range((n - 1).bit_length()):
        size = [0, 0]  # of Z and O; both end non-empty: keys 0 and 2^b < n differ in bit b
        for j, i in enumerate(order):
            bit = (p[i] - 1) >> b & 1
            last = j == n - 1
            if j == 0:
                pass  # the first leaf is a stack by itself
            elif all(size):
                if bit:
                    word += _LAST_TO_O if last else _TO_O
                else:
                    word += _LAST_TO_Z if last else _TO_Z
            elif not size[0] and not bit:
                word += _LAST_START_Z if last else _START_Z
            elif not last:
                word += _JOIN
            size[bit] += 1
        z, o = size
        word += _f_word([0] * (z - 1) + [z] * (o - 2), [])
        order.sort(key=lambda i: (p[i] - 1) >> b & 1)
    return free_reduce(tuple(word))


def _f_word(domain: list[int], range_: list[int]) -> Word:
    """The F element with these rotation schedules, not yet freely reduced.

    The domain schedule is emitted inverted, the range schedule reversed.
    Each x_k^e = x0^(k-1) x1^e x0^-(k-1) is emitted with its x0 powers merged
    into one pending exponent, and non-decreasing schedules make those powers
    telescope, so the word has O(N) symbols and is built in O(N) steps.
    """
    word: list[GenSymbol] = []
    pending = 0  # exponent of x0 not yet emitted
    for k, e in [(k, -1) for k in domain] + [(k, 1) for k in reversed(range_)]:
        if k == 0:
            pending += e
        else:
            word += power_word("x0", pending + k - 1)
            word.append(GenSymbol("x1", e))
            pending = 1 - k
    word += power_word("x0", pending)
    return tuple(word)


def f_normal_form_word(f: Element) -> Word:
    """Word over {x0, x1} for an order-preserving element, of O(N) symbols:
    both trees of the reduced diagram are rotated onto the right comb."""
    f = f.reduce()
    if not perms.is_identity(f.perm):
        raise ValueError("element is not order-preserving")
    domain, range_ = spine_rotations_to_comb(f.domain_tree), spine_rotations_to_comb(f.range_tree)
    return free_reduce(_f_word(domain, range_))


def synthesize_word(x: Element) -> Word:
    """A word over all four generators evaluating to x, of length O(N + B log2 B).

    x = y^-1 * collapsed * z^-1 via the cluster collapse, and collapsed is
    (comb, comb, tau) on B leaves, so tau needs no reshaping before the sort.
    Elements of F have tau = (1,) and an empty sort word.
    """
    res = collapse_clusters(x)
    word = (
        f_normal_form_word(res.y.inverse())
        + comb_perm_word(res.collapsed.perm)
        + f_normal_form_word(res.z.inverse())
    )
    return free_reduce(word)
