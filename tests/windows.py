"""Window curves, the exhaustive ranges of the curve tests."""

from __future__ import annotations

from itertools import combinations
from math import gcd


def window_curves(multiplicities, dims):
    """Every gcd-1 sequence m < n_1 < ... < n_(e-1) < 2m: all minimal, as
    a sum of two generators is at least 2m."""
    return [(m,) + rest for m in multiplicities for e in dims
            for rest in combinations(range(m + 1, 2 * m), e - 1)
            if gcd(m, *rest) == 1]
