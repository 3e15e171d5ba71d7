import itertools
import math
import random
from decimal import Decimal, localcontext

import pytest

from thompsonv.bounds import birget_upper, cluster_ratio_greater, new_upper


def test_birget_upper():
    assert birget_upper(0) == 0.0
    assert birget_upper(1) == 0.0
    assert birget_upper(2) == 2.0
    assert birget_upper(8) == 24.0
    with pytest.raises(ValueError):
        birget_upper(-1)


def test_new_upper():
    assert new_upper(5, 1) == 5.0  # order-preserving case: just the caret count
    assert new_upper(5, 2) == 7.0  # cyclic case: fixed additive term
    assert new_upper(4, 4) == 12.0
    assert new_upper(0, 1) == 0.0
    assert new_upper(7, 3) == pytest.approx(7 + 3 * math.log2(3))


def test_new_upper_range_check():
    for n, b in [(3, 0), (3, 5), (0, 2)]:
        with pytest.raises(ValueError):
            new_upper(n, b)


def test_cluster_ratio_greater_matches_high_precision():
    # every (d, N, B) with d <= 12 and N <= 64, ordered by d / (N + 1 + B log2 B) to 150
    # digits; each neighbour in that order and a seeded sample of pairs compare as the values do
    with localcontext() as ctx:
        ctx.prec = 150
        log2 = [None] + [Decimal(b).ln() / Decimal(2).ln() for b in range(1, 66)]
        value = {
            (d, n, b): d / (n + 1 + b * log2[b])
            for d in range(13)
            for n in range(65)
            for b in range(1, n + 2)
        }
        tie = Decimal(10) ** -120
        triples = sorted(value, key=value.get)
        rng = random.Random(28)
        pairs = list(itertools.pairwise(triples)) + [tuple(rng.sample(triples, 2)) for _ in range(5000)]
        gaps = []
        for x, y in pairs:
            gap = value[x] - value[y]
            assert cluster_ratio_greater(*x, *y) == (gap > tie), (x, y)
            assert cluster_ratio_greater(*y, *x) == (gap < -tie), (x, y)
            gaps.append(abs(gap))
        # ties, such as 1/(0 + 1) = 2/(1 + 1), are exact; every other gap is far above `tie`
        assert any(g <= tie for g in gaps) and min(g for g in gaps if g > tie) > Decimal(10) ** -30
