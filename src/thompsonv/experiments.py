"""Experiments: the sharpness counterexample family, random surveys, constants.

The counterexample family y_n lives on right combs and shows the cluster
bound is not sharp: products P_n = y_1 ... y_n have caret and cluster counts
linear in n and an explicit witness word of length linear in n, while the
cluster bound grows like n log n. Surveys compare both bounds against exact
lengths from the search oracle on seeded random elements.
"""

from __future__ import annotations

import csv
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TextIO

from . import permutations as perms
from .bounds import birget_upper, cluster_ratio_greater, new_upper
from .elements import Element
from .generators import (
    GENERATOR_NAMES,
    MOVES,
    GenSymbol,
    Word,
    free_reduce,
    parse_word,
    power_word,
)
from .search import _Budget, _ball, _steps, enumerate_ball
from .trees import _catalan, right_comb


def counterexample_y(n: int) -> Element:
    """Right-comb element with 2n+1 carets swapping leaves 2n and 2n+1."""
    if n < 1:
        raise ValueError("n must be positive")
    # refuse n before any diagram: the bytes `counterexample --n n` adds to peak RSS, fitted at
    # n = 2500-20000; the n^2 term is the combs' big-int leaf addresses
    _Budget().charge(-(-(3 * n + 8192) * n // 2))
    comb = right_comb(2 * n + 1)
    return Element(comb, comb, perms.adjacent_swap(2 * n + 2, 2 * n))


@dataclass(frozen=True)
class ConjugationReport:
    """Which composition convention validates y_n = x0^{-k} y_1 x0^{k}, k = 2n-2.

    `as_written` keeps the exponent order of the defining identity;
    `mirrored` negates the exponents. Exactly one is expected to hold for
    n >= 2 under the library's apply-left-to-right composition.
    """

    n: int
    as_written: bool
    mirrored: bool


def verify_conjugation_identity(n: int) -> ConjugationReport:
    """Check y_n = x0^{-k} y_1 x0^{k} both ways by the group law, raising x0 to k once."""
    y1 = counterexample_y(1)
    yn = counterexample_y(n)
    power = MOVES[GenSymbol("x0")] ** (2 * n - 2)
    as_written = power.inverse() * y1 * power
    mirrored = power * y1 * power.inverse()
    return ConjugationReport(n, as_written.equals(yn), mirrored.equals(yn))


def counterexample_product(n: int) -> tuple[Element, Word]:
    """P_n = y_1 y_2 ... y_n and an explicit witness word of length O(n).

    The y_j swap comb leaves 2j, 2j+1 of disjoint intervals, so P_n is the comb
    swapping every such pair, written down; it is reduced, as the comb's sibling
    leaves 2n+1, 2n+2 go to 2n, 2n+2. The word interleaves a fixed word for y_1
    with x0^2 bridges and closes with x0^{-(2n-2)}, the telescoped identity.
    """
    comb = counterexample_y(n).domain_tree
    images = (1, *(i ^ 1 for i in range(2, 2 * n + 2)), 2 * n + 2)  # i ^ 1 swaps 2j and 2j+1
    w1 = parse_word("c^-1 x1^-1 pi x1 c")  # y_1 in 5 symbols: the witness slope of 9 rests on it
    word = w1 + (power_word("x0", 2) + w1) * (n - 1) + power_word("x0", 2 - 2 * n)
    return Element(comb, comb, images), free_reduce(word)


@dataclass(frozen=True)
class SurveyRecord:
    element_text: str
    carets: int
    clusters: int
    exact_length: int | None
    birget: float
    new_bound: float


def survey_bounds(
    count: int, carets: int, radius: int, seed: int, budget_mb: int | None = None
) -> Iterator[SurveyRecord]:
    """Records for seeded random elements; exact lengths where the ball reaches.

    The arguments are checked, and the Catalan table and the ball charged to one budget and
    built, before this returns; the records are then drawn one at a time.
    """
    if count < 0:
        raise ValueError("survey count must be non-negative")
    if carets < 1:
        raise ValueError("caret count must be positive")
    budget = _Budget(budget_mb)
    if count:
        # peak RSS of `survey --count 1 --carets N`, its table and one row, fitted at N = 2500-30000
        budget.charge(-(-(carets + 3600) * carets // 7))
    ball = _ball(radius, budget, _steps(), None)
    rng = random.Random(seed)
    cat = _catalan(carets) if count else []  # one table for every draw

    def records() -> Iterator[SurveyRecord]:
        for _ in range(count):
            x = Element._random(carets, rng, cat).reduce()
            n, b = x.domain_tree.carets, x.cluster_count()
            length = ball.distance_of(x)
            yield SurveyRecord(x.text(), n, b, length, birget_upper(n), new_upper(n, b))

    return records()


SURVEY_HEADER = ["element", "N", "B", "exact_length", "birget_upper", "new_upper"]


def survey_csv(records: Iterable[SurveyRecord], out: TextIO) -> None:
    """Write the header to `out`, then each record as it arrives."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SURVEY_HEADER)
    for r in records:
        exact = "" if r.exact_length is None else r.exact_length
        row = [r.element_text, r.carets, r.clusters, exact, f"{r.birget:.6f}", f"{r.new_bound:.6f}"]
        writer.writerow(row)


@dataclass(frozen=True)
class ConstantsReport:
    """Empirical constants over a full ball: max N/len and max len/cluster bound."""

    radius: int
    generators: tuple[str, ...]
    sizes: tuple[int, ...]
    carets_over_length: float
    carets_witness: str
    length_over_bound: float
    bound_witness: str

    def lines(self) -> list[str]:
        return [
            f"radius: {self.radius}",
            f"generators: {' '.join(self.generators)}",
            f"ball_sizes: {' '.join(str(s) for s in self.sizes)}",
            f"total: {sum(self.sizes)}",
            f"max_carets_over_length: {self.carets_over_length:.6f}",
            f"max_carets_over_length_witness: {self.carets_witness}",
            f"max_length_over_cluster_bound: {self.length_over_bound:.6f}",
            f"max_length_over_cluster_bound_witness: {self.bound_witness}",
        ]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def estimate_constants(radius: int, budget_mb: int | None = None) -> ConstantsReport:
    """Exact sweep of the ball: witnesses for both sides of the metric bounds.

    The identity is excluded from the ratio denominators. The cluster-bound
    denominator carries a +1 so that caret-free elements stay finite. Both
    ratios depend on the distance, N and B alone, and N and B on the
    permutation alone (of degree N + 1), so each level compares only the first
    element of each (N, B) class; with the strict `>`, the witness is the
    first element found with the largest ratio. Ratios are compared exactly,
    and made floats only to be printed.
    """
    ball = enumerate_ball(radius, budget_mb=budget_mb, track_parents=False)
    n1, d1, w1 = 0, 1, ""  # N / d of the witness so far, 0 before any
    d2, n2, b2, w2 = 0, 0, 1, ""  # d / (N + 1 + B log2 B) of the witness so far, 0 before any
    for dist, level in enumerate(ball.levels[1:], start=1):
        firsts: dict[perms.Perm, Element] = {}  # a level has few permutations: 2,026 of 67,194 at 7
        for e in level:
            firsts.setdefault(e.perm, e)
        classes: dict[tuple[int, int], Element] = {}
        for e in firsts.values():
            classes.setdefault((e.domain_tree.carets, e.cluster_count()), e)
        for (n, b), e in classes.items():
            if n * d1 > n1 * dist:
                n1, d1, w1 = n, dist, e.text()
            if cluster_ratio_greater(dist, n, b, d2, n2, b2):
                d2, n2, b2, w2 = dist, n, b, e.text()
    c1, c2 = n1 / d1, d2 / (new_upper(n2, b2) + 1.0)
    return ConstantsReport(radius, GENERATOR_NAMES, tuple(ball.sizes()), c1, w1, c2, w2)
