"""verify's power-law fits, the standard-library slope against numpy's, the
memory its gamma check keeps across calls, and the Kummer rows' reach."""

import gc
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from abc2d import specfn, verify


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


def test_each_oracle_input_is_computed_once_per_run(monkeypatch):
    # one quad_norm and one shot per (mu, kappa, |m + nu|, n_r), 12 of the
    # norm triangle's 18 states; a second run repeats them all, so nothing
    # is kept between runs
    calls = {"quad_norm": [], "shoot_with_nodes": []}
    quad_norm, shoot = verify.oracle.quad_norm, verify.oracle.shoot_with_nodes

    def counting_norm(qn, problem):
        w = verify.bound.effective_exponent(qn.m, problem.nu)
        calls["quad_norm"].append((problem.reduced_mass, problem.kappa, w, qn.n_r))
        return quad_norm(qn, problem)

    def counting_shot(problem, m, n_r):
        w = verify.bound.effective_exponent(m, problem.nu)
        calls["shoot_with_nodes"].append((problem.reduced_mass, problem.kappa, w, n_r))
        return shoot(problem, m, n_r)

    monkeypatch.setattr(verify.oracle, "quad_norm", counting_norm)
    monkeypatch.setattr(verify.oracle, "shoot_with_nodes", counting_shot)
    for run in (1, 2):
        for log in calls.values():
            log.clear()
        checks, rows = verify.run_all_checks(small=True)
        assert all(c.passed for c in checks) and len(rows) == 12
        assert {name: len(log) for name, log in calls.items()} == {
            "quad_norm": 12, "shoot_with_nodes": 8}, run
        assert all(len(set(log)) == len(log) for log in calls.values()), run


def test_gamma_functional_holds_no_memory_across_calls():
    # A long-lived process that repeats the check keeps no blocks from its
    # ln_gamma calls: after one warm-up call, 60 more leave the count of
    # allocated blocks, taken after a collection, all but where it was.
    verify.check_gamma_functional(40)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(60):
        verify.check_gamma_functional(40)
    gc.collect()
    assert sys.getallocatedblocks() - before <= 30


@pytest.mark.parametrize("points", [40, 100])
def test_kummer_transform_reaches_the_expansion_in_every_quadrant(points, monkeypatch):
    # the large-|z| expansion's value is returned in all four quadrants
    quadrants = set()
    expansion = specfn._asymptotic

    def recording(a, b, z):
        value, error = expansion(a, b, z)
        if error <= specfn._CONDITION_LIMIT:
            quadrants.add((z.real > 0.0, z.imag > 0.0))
        return value, error

    monkeypatch.setattr(specfn, "_asymptotic", recording)
    assert verify.check_kummer_transform(points).passed
    assert len(quadrants) == 4
