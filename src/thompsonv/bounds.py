"""Word-metric upper bounds from caret and cluster counts.

Both bounds hold up to a universal multiplicative constant; the constant is
estimated empirically by the search oracle, so these functions return the
bare base-2 expressions.
"""

from __future__ import annotations

import math

# Caret counts from 2^1000 up overflow a float bound (n log2 n needs n < 2^1024 / log2 n).
_MAX_CARETS = (1 << 1000) - 1
_TOO_MANY_CARETS = "caret count too large for a float bound (at most 2^1000 - 1)"


def birget_upper(n: int) -> float:
    """n * log2(n); the caret-only bound. 0 and 1 carets give 0."""
    if n < 0:
        raise ValueError("caret count must be non-negative")
    if n > _MAX_CARETS:
        raise ValueError(_TOO_MANY_CARETS)
    if n <= 1:
        return 0.0
    return n * math.log2(n)


def new_upper(n: int, b: int) -> float:
    """n + b * log2(b); the cluster bound. Requires 1 <= b <= n + 1."""
    if n < 0:
        raise ValueError("caret count must be non-negative")
    if n > _MAX_CARETS:
        raise ValueError(_TOO_MANY_CARETS)
    if not 1 <= b <= n + 1:
        raise ValueError(f"cluster count {b} outside 1..{n + 1}")
    return n + b * math.log2(b)


def cluster_ratio_greater(d1: int, n1: int, b1: int, d2: int, n2: int, b2: int) -> bool:
    """d1 / (n1 + 1 + b1 log2 b1) > d2 / (n2 + 1 + b2 log2 b2), decided in integers.

    For distances d >= 0, caret counts n >= 0 and cluster counts b >= 1. The
    denominators are positive, so this is d1 (n2 + 1 + b2 log2 b2) >
    d2 (n1 + 1 + b1 log2 b1), which holds exactly when 2 raised to each side
    compares so: 2^(d1 (n2 + 1)) b2^(b2 d1) > 2^(d2 (n1 + 1)) b1^(b1 d2).
    """
    return b2 ** (b2 * d1) << d1 * (n2 + 1) > b1 ** (b1 * d2) << d2 * (n1 + 1)
