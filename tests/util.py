"""Shared builders for randomized tests, and a check of whole error messages."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from martpoly import (
    FactorModel,
    MartingaleSystem,
    OnePeriodMarket,
    system_from_rows,
)


def random_system(
    rng: random.Random,
    max_b: int = 7,
    max_n: int = 4,
    combination_rhs_only: bool = False,
) -> MartingaleSystem:
    """Integer system with the right-hand side biased toward feasibility.

    The rhs is a nonnegative combination of the payoff columns, normalized to
    a convex one half the time (so the simplex is often hit). Unless
    ``combination_rhs_only`` is set, one draw in five uses a fully random rhs
    instead, keeping plainly infeasible systems in the mix.
    """
    b = rng.randint(1, max_b)
    n = rng.randint(0, max_n)
    matrix = [[rng.randint(-9, 9) for _ in range(b)] for _ in range(n)]
    if combination_rhs_only or rng.random() < 0.8:
        weights = [Fraction(rng.randint(0, 3)) for _ in range(b)]
        total = sum(weights)
        if total and rng.random() < 0.5:
            weights = [w / total for w in weights]
        rhs = [sum(matrix[i][j] * weights[j] for j in range(b)) for i in range(n)]
    else:
        rhs = [rng.randint(-9, 9) for _ in range(n)]
    return system_from_rows(matrix, rhs, outcomes=b)


def random_market(rng: random.Random, max_b: int = 6, max_n: int = 3) -> OnePeriodMarket:
    """Market wrapper around ``random_system`` with a small random rate."""
    sys = random_system(rng, max_b=max_b, max_n=max_n)
    rate = Fraction(rng.randint(-1, 3), 10)
    spot = tuple(v / (1 + rate) for v in sys.rhs)
    return OnePeriodMarket(rate=rate, spot=spot, payoffs=sys.matrix)


def random_viable_market(
    rng: random.Random, max_b: int = 6, max_n: int = 3, max_tries: int = 200
) -> OnePeriodMarket:
    """Rejection-sample until an equivalent measure exists."""
    from martpoly import characterize

    for _ in range(max_tries):
        mkt = random_market(rng, max_b=max_b, max_n=max_n)
        if characterize(mkt).emm_exists:
            return mkt
    raise RuntimeError("failed to sample a viable market")


def random_viable_trinomial(rng: random.Random) -> FactorModel:
    """Three strictly increasing factors with the grown rate inside them."""
    from martpoly import make_factor_model

    lo = Fraction(rng.randint(0, 8), rng.randint(1, 8))
    mid = lo + Fraction(rng.randint(1, 8), rng.randint(1, 8))
    hi = mid + Fraction(rng.randint(1, 8), rng.randint(1, 8))
    # grown rate strictly between lo and hi, hitting all three middle cases
    t = Fraction(rng.randint(1, 15), 16)
    grown = lo + t * (hi - lo)
    if rng.random() < 1 / 4:
        grown = mid
    spot = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return make_factor_model([lo, mid, hi], rate=grown - 1, spot=spot)


def refuses(error: type[BaseException], message: str):
    """``pytest.raises(error)`` that also pins the whole message."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")
