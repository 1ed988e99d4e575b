"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Two
criteria assert claims that the closed-form physics does not actually permit
(see notes printed by the tests); they are implemented exactly as stated and
fail honestly rather than being weakened:

* criterion 6: at beta = 20 the interference term is still 17.7% of sigma_C
  (|sigma_x|/sigma_C has envelope 2/sqrt(pi beta tanh(pi beta)) ~ 0.25), so
  sigma_1 cannot match the classical limit at 1e-8 nor can the ratio be
  below 1e-2 at any generic angle.
* criterion 9: sigma_1 is never negative; the opposing interference ratio is
  capped at 8/(pi e) ~ 0.93680 over all beta and theta (the beta -> 0
  supremum, attained at sin(theta/2) = 2/e).
"""

import math
import random
import time

import numpy as np
import pytest

from abc2d import scatter, verify


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def test_criterion_1_spectrum_vs_ode_oracle():
    start = time.monotonic()
    rows = verify.shooting_report(False, verify.norm_table(False))
    elapsed = time.monotonic() - start
    worst = max(r.rel_err for r in rows)
    rows_ok = all(r.passed for r in rows)
    ok = worst < 1e-6 and rows_ok and elapsed < 120.0
    _report("criterion 1 (spectrum vs ODE oracle)", ok,
            f"{len(rows)} states, worst rel err {worst:.2e} (< 1e-6), per-state "
            f"energy {'pass' if rows_ok else 'FAIL'}, "
            f"{elapsed:.1f} s (< 120 s)")
    assert ok


def test_criterion_2_degeneracy_tables():
    res = verify.check_degeneracy(12)
    _report("criterion 2 (degeneracy tables)", res.passed, res.detail)
    assert res.passed


def test_criterion_3_normalization():
    res = verify.check_norm_quadrature(verify.norm_table(False))
    ok = res.worst < 1e-6
    _report("criterion 3 (normalization)", ok,
            f"{res.detail}, worst |norm - 1| = {res.worst:.2e} (< 1e-6); "
            "no systematic deviation from the closed-form constant")
    assert ok


def test_criterion_4_gamma_identities_and_kummer_transform():
    gamma = verify.check_gamma_identities(200)
    kummer = verify.check_kummer_transform(100)
    ok = gamma.worst < 1e-11 and kummer.worst < 1e-10
    _report("criterion 4 (gamma identities, Kummer transform)", ok,
            f"gamma residual {gamma.worst:.2e} (< 1e-11) over {gamma.detail}, "
            f"transform residual {kummer.worst:.2e} (< 1e-10) over {kummer.detail}")
    assert ok


def test_criterion_5_cross_section_consistency():
    rng = random.Random(55)
    worst_c = worst_h = worst_ratio = 0.0
    for _ in range(50):
        beta = rng.uniform(0.05, 6.0) * (1 if rng.random() < 0.7 else -1)
        theta = rng.uniform(0.05, 2.0 * math.pi - 0.05)
        k = rng.uniform(0.3, 3.0)
        pc = scatter.ScatteringParams(k, beta, scatter.FluxCase.COULOMB_ONLY)
        ph = scatter.ScatteringParams(k, beta, scatter.FluxCase.HALF_INTEGER)
        sc = scatter.sigma_sample(pc, theta).sigma_total
        s2 = scatter.sigma_sample(ph, theta).sigma_total
        worst_c = max(worst_c, abs(abs(scatter.amplitude_coulomb(pc, theta)) ** 2 - sc) / sc)
        worst_h = max(worst_h, abs(abs(scatter.amplitude_half_flux(ph, theta)) ** 2 - s2) / s2)
        expected = 1.0 / math.tanh(beta * math.pi) ** 2
        worst_ratio = max(worst_ratio, abs(s2 / sc - expected) / expected)
    ok = worst_c < 1e-12 and worst_h < 1e-12 and worst_ratio < 1e-12
    _report("criterion 5 (cross-section consistency)", ok,
            f"|f_C|^2 vs sigma_C {worst_c:.2e}, |f|^2 vs sigma_2 {worst_h:.2e}, "
            f"ratio residual {worst_ratio:.2e} (all < 1e-12, 50 pairs)")
    assert ok


def test_criterion_6_limits():
    theta = math.pi
    p_ab = scatter.ScatteringParams(1.0, 1e-8, scatter.FluxCase.HALF_INTEGER)
    ab = scatter.limit_ab(scatter.FluxCase.HALF_INTEGER, 1.0, theta)
    dev_ab = abs(scatter.sigma_sample(p_ab, theta).sigma_total - ab) / ab

    # beta = 20 with mu = 1, k = 1, so v_c = k and kappa = beta
    beta = 20.0
    cl = scatter.limit_classical(beta, 1.0, 1.0, theta)
    pc = scatter.ScatteringParams(1.0, beta, scatter.FluxCase.COULOMB_ONLY)
    pi_ = scatter.ScatteringParams(1.0, beta, scatter.FluxCase.INTEGER_FLUX)
    ph = scatter.ScatteringParams(1.0, beta, scatter.FluxCase.HALF_INTEGER)
    dev_c = abs(scatter.sigma_sample(pc, theta).sigma_total - cl) / cl
    dev_2 = abs(scatter.sigma_sample(ph, theta).sigma_total - cl) / cl
    s1 = scatter.sigma_sample(pi_, theta)
    dev_1 = abs(s1.sigma_total - cl) / cl
    ratio = abs(s1.sigma_cross) / s1.sigma_coulomb

    ok_attainable = dev_ab < 1e-6 and dev_c < 1e-8 and dev_2 < 1e-8
    ok_strict = dev_1 < 1e-8 and ratio < 1e-2
    detail = (f"AB limit dev {dev_ab:.2e} (< 1e-6), classical sigma_C dev {dev_c:.2e} "
              f"and sigma_2 dev {dev_2:.2e} (< 1e-8); sigma_1 dev {dev_1:.2e} "
              f"(stated < 1e-8) and |sigma_x|/sigma_C = {ratio:.3f} (stated < 1e-2)")
    if not ok_strict:
        detail += (" -- unattainable as stated: the interference envelope "
                   "2/sqrt(pi beta tanh(pi beta)) = 0.252 at beta = 20, and "
                   "cos(d0+d1) = 0.703 at theta = pi, so sigma_x is 17.7% of "
                   "sigma_C; the ratio would need beta ~ 1.3e4 to reach 1e-2")
    _report("criterion 6 (limits)", ok_attainable and ok_strict, detail)
    assert ok_attainable and ok_strict


def test_criterion_7_field_correctness():
    orders = []
    for case, beta in ((scatter.FluxCase.COULOMB_ONLY, 1.0),
                       (scatter.FluxCase.INTEGER_FLUX, 0.7),
                       (scatter.FluxCase.HALF_INTEGER, 1.0)):
        p = scatter.ScatteringParams(1.0, beta, case)
        orders.append(verify.pde_convergence_order(p))
    orders_ok = all(abs(o - 2.0) <= 0.2 for o in orders)

    p_c = scatter.ScatteringParams(1.0, 1.0, scatter.FluxCase.COULOMB_ONLY)
    p_i = scatter.ScatteringParams(1.0, 1.0, scatter.FluxCase.INTEGER_FLUX)
    p_h = scatter.ScatteringParams(1.0, 1.0, scatter.FluxCase.HALF_INTEGER)
    parity_ok = True
    for p, sign in ((p_c, 1.0), (p_i, 1.0), (p_h, -1.0)):
        for xi, eta in ((0.6, 1.2), (1.5, -0.3)):
            a = scatter.eval_scattering_field(p, xi, eta)
            b = scatter.eval_scattering_field(p, -xi, -eta)
            parity_ok = parity_ok and (a == sign * b)

    boundary_ok = True
    for p, phase in ((p_c, 1.0), (p_i, 1.0), (p_h, -1.0)):
        a = scatter.eval_scattering_field_polar(p, 1.4, 0.8)
        b = scatter.eval_scattering_field_polar(p, 1.4, 0.8 + 2.0 * math.pi)
        boundary_ok = boundary_ok and abs(b - phase * a) < 1e-12 * abs(a)

    origin_ok = (scatter.eval_scattering_field(p_i, 0.0, 0.0) == 0.0
                 and scatter.eval_scattering_field(p_h, 0.0, 0.0) == 0.0)

    ok = orders_ok and parity_ok and boundary_ok and origin_ok
    _report("criterion 7 (field correctness)", ok,
            f"residual orders {', '.join(f'{o:.3f}' for o in orders)} (2.0 +- 0.2), "
            f"parity {'exact' if parity_ok else 'BROKEN'}, double-cover boundary "
            f"{'ok' if boundary_ok else 'BROKEN'}, origin zeros "
            f"{'exact' if origin_ok else 'BROKEN'}")
    assert ok


def test_criterion_8_stationary_wave_decomposition():
    slope = verify.stationary_fit_exponent()
    ok = slope < -1.0
    _report("criterion 8 (stationary-wave decomposition)", ok,
            f"residual fit exponent {slope:.3f} over r in [50, 200] (< -1; the "
            "incident term carries its first 1/r correction, see ledger)")
    assert ok


def test_criterion_9_negativity_phenomenon():
    p = scatter.ScatteringParams(1.0, 0.3, scatter.FluxCase.INTEGER_FLUX)
    thetas = np.linspace(0.002, 2.0 * math.pi - 0.002, 4096)
    sweep = scatter.cross_sections(p, thetas.tolist())
    totals = sweep.sigma_total
    coulombs = sweep.sigma_coulomb
    coulomb_positive = min(coulombs) > 0.0
    has_negative = min(totals) < 0.0
    detail = (f"min sigma_1 = {min(totals):.4f}, min sigma_C = {min(coulombs):.4f}")
    if not has_negative:
        detail += (" -- no negative sample exists: |sigma_x|/sigma_C is bounded "
                   "by 8/(pi e) = 0.93680 over ALL beta and theta (supremum at "
                   "beta -> 0, sin(theta/2) = 2/e; at beta = 0.3 the max is "
                   "0.9190), so sigma_1 > 0 everywhere and the stated scan "
                   "cannot exhibit a negative sample")
    _report("criterion 9 (negativity phenomenon)", has_negative and coulomb_positive,
            detail)
    assert coulomb_positive
    assert has_negative
