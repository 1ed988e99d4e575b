"""verify's power-law fits: the standard-library slope against numpy's."""

import math
from fractions import Fraction

import numpy as np
import pytest

from abc2d import verify


@pytest.fixture(scope="module")
def fits():
    """(xs, ys) of the four log-log fits verify makes: three residual orders
    and the stationary-wave exponent."""
    calls = []
    slope = verify._loglog_slope
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_loglog_slope",
                   lambda xs, ys: calls.append((xs, ys)) or slope(xs, ys))
        verify.check_pde_residual()
        verify.check_stationary_wave()
    assert len(calls) == 4
    return calls


def test_slope_matches_polyfit(fits):
    for xs, ys in fits:
        want, _ = np.polyfit(np.log(xs), np.log(ys), 1)
        assert abs(verify._loglog_slope(xs, ys) - want) <= 1e-14


def test_slope_is_the_exact_least_squares_slope_rounded_once(fits):
    # the centred form of the normal equations, summed exactly
    for xs, ys in fits:
        us = [Fraction(math.log(x)) for x in xs]
        vs = [Fraction(math.log(y)) for y in ys]
        u_bar, v_bar = sum(us) / len(us), sum(vs) / len(vs)
        exact = (sum((u - u_bar) * (v - v_bar) for u, v in zip(us, vs))
                 / sum((u - u_bar) ** 2 for u in us))
        assert verify._loglog_slope(xs, ys) == float(exact)
