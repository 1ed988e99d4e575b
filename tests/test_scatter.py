import cmath
import itertools
import math
import struct

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abc2d import scatter, specfn, verify
from abc2d.errors import DomainError
from abc2d.reduction import RelativeProblem
from abc2d.scatter import (
    FORWARD_CONE,
    CrossSectionSample,
    CrossSectionSweep,
    FluxCase,
    ScatteringParams,
    amplitude_coulomb,
    amplitude_half_flux,
    cross_sections,
    eval_scattering_field,
    eval_scattering_field_polar,
    limit_ab,
    limit_classical,
    sample_scattering_field,
    scattering_params,
    sigma_sample,
    stationary_wave,
    to_parabolic,
)
from abc2d.specfn import arg_gamma, kummer_m, ln_gamma

TANH_PI_HALF = 0.49813603811037497
TANH_PI = 0.99627207622074994
COTH_PI_HALF = 0.50187093659866064
INV_TWO_PI = 0.15915494309189534
SIGMA_X_PI_BETA1 = -0.34231052734203002
C1_ABS_BETA1 = 1.4128949275231863
RATIO_PI_BETA5 = 0.34777820616942815
RATIO_SUP = 0.93679730438910657  # 8/(pi e)

P_C = ScatteringParams(1.0, 1.0, FluxCase.COULOMB_ONLY)
P_I = ScatteringParams(1.0, 1.0, FluxCase.INTEGER_FLUX)
P_H = ScatteringParams(1.0, 1.0, FluxCase.HALF_INTEGER)


class TestScatteringParams:
    def test_values(self):
        p = scattering_params(RelativeProblem.from_parameters(1.0, 1.0, 0.0), 0.5)
        assert (p.k, p.beta) == (pytest.approx(1.0), pytest.approx(1.0))
        assert p.flux_case is FluxCase.COULOMB_ONLY

    def test_repulsive_beta_negative(self):
        p = scattering_params(RelativeProblem.from_parameters(1.0, -1.0, 0.0), 0.5)
        assert p.beta == pytest.approx(-1.0)

    def test_case_detection(self):
        p = scattering_params(RelativeProblem.from_parameters(1.0, 1.0, 2.0), 0.5)
        assert p.flux_case is FluxCase.INTEGER_FLUX
        p = scattering_params(RelativeProblem.from_parameters(1.0, 1.0, -0.5), 0.5)
        assert p.flux_case is FluxCase.HALF_INTEGER


class TestCoulombCrossSection:
    def test_backscattering_value(self):
        assert sigma_sample(P_C, math.pi).sigma_total == pytest.approx(TANH_PI_HALF, rel=1e-14)

    def test_right_angle_is_tanh_pi(self):
        assert sigma_sample(P_C, math.pi / 2).sigma_total == pytest.approx(TANH_PI, rel=1e-14)

    def test_amplitude_squared_matches(self):
        for beta in (0.2, 1.0, 3.7, -1.4):
            p = ScatteringParams(1.3, beta, FluxCase.COULOMB_ONLY)
            for theta in (0.4, 1.9, math.pi, 5.1):
                assert abs(amplitude_coulomb(p, theta)) ** 2 == pytest.approx(
                    sigma_sample(p, theta).sigma_total, rel=1e-12)

    def test_even_around_backscattering(self):
        for d in (0.3, 1.1):
            a = abs(amplitude_coulomb(P_C, math.pi - d)) ** 2
            b = abs(amplitude_coulomb(P_C, math.pi + d)) ** 2
            assert a == pytest.approx(b, rel=1e-12)

    def test_vanishes_without_coulomb(self):
        assert amplitude_coulomb(ScatteringParams(1.0, 0.0, FluxCase.COULOMB_ONLY),
                                 math.pi) == 0.0
        p = ScatteringParams(1.0, 1e-10, FluxCase.COULOMB_ONLY)
        assert abs(amplitude_coulomb(p, math.pi)) < 1e-8
        assert sigma_sample(p, math.pi).sigma_total < 1e-18


class TestInterference:
    def test_backscattering_value(self):
        assert sigma_sample(P_I, math.pi).sigma_cross == pytest.approx(
            SIGMA_X_PI_BETA1, rel=1e-12)

    def test_total_is_exact_sum(self):
        s = sigma_sample(P_I, 2.2)
        assert s.sigma_total == s.sigma_coulomb + s.sigma_cross

    def test_reflection_parity(self):
        for theta in (0.7, 2.0, 3.0):
            a = sigma_sample(P_I, theta).sigma_cross
            b = sigma_sample(P_I, 2.0 * math.pi - theta).sigma_cross
            assert a == pytest.approx(b, rel=1e-11)

    def test_vanishes_with_coulomb_strength(self):
        p = ScatteringParams(1.0, 1e-8, FluxCase.INTEGER_FLUX)
        assert abs(sigma_sample(p, math.pi).sigma_cross) < 1e-3

    def test_ratio_at_beta_five(self):
        p = ScatteringParams(1.0, 5.0, FluxCase.INTEGER_FLUX)
        s = sigma_sample(p, math.pi)
        assert abs(s.sigma_cross) / s.sigma_coulomb == pytest.approx(
            RATIO_PI_BETA5, rel=1e-10)

    @pytest.mark.parametrize("beta,theta", [
        (1.0, 2.0 * math.pi / 3.0),
        (0.3, 1.0),
        (0.3, 2.0 * math.asin(2.0 / math.e)),
        (2.0, math.pi),
        (20.0, math.pi),
    ])
    def test_cross_term_is_coulomb_times_outgoing_wave(self, beta, theta):
        # sigma_x = 2 Re(f_C conj(s_out)), where s_out = -e^{2 i d0 - i pi/4}
        # / sqrt(2 pi k) is the stationary wave's outgoing coefficient and
        # d0 = arg Gamma(1/2 - i beta)
        p = ScatteringParams(1.0, beta, FluxCase.INTEGER_FLUX)
        d0 = arg_gamma(0.5 - 1j * beta)
        s_out = -cmath.exp(2j * d0 - 0.25j * math.pi) / math.sqrt(2.0 * math.pi * p.k)
        expected = 2.0 * (amplitude_coulomb(p, theta) * s_out.conjugate()).real
        got = cross_sections(p, [theta]).sigma_cross[0]
        assert abs(got - expected) <= 1e-13 * abs(expected)

    def test_large_beta_phase_matches_mpmath(self):
        # beta = 1e5 is the largest the phase-error estimate accepts at every
        # angle; the cosine argument's terms are of size beta ln beta ~ 1e6
        beta = 1e5
        thetas = [2.0 * FORWARD_CONE, 0.1, 0.5, 1.0, 2.0, math.pi, 5.0]
        sweep = cross_sections(ScatteringParams(1.0, beta, FluxCase.INTEGER_FLUX), thetas)
        with mp.workdps(50):
            b = mp.mpf(beta)
            d = mp.loggamma(mp.mpc(0.5, -b)).imag + mp.loggamma(mp.mpc(0, b)).imag
            for theta, sigma_cross in zip(thetas, sweep.sigma_cross, strict=True):
                s2 = mp.sin(mp.mpf(theta) / 2) ** 2
                amp = mp.sqrt(b * mp.tanh(mp.pi * b) / (mp.pi * s2))
                ref = -amp * mp.cos(d - b * mp.log(s2))
                assert abs(sigma_cross - ref) <= 1e-9 * amp, theta

    def test_sigma_one_never_negative(self):
        # the opposing interference reaches 92% of sigma_C at beta = 0.3 but
        # the ratio is capped at 8/(pi e) < 1 for every beta and angle
        p = ScatteringParams(1.0, 0.3, FluxCase.INTEGER_FLUX)
        sweep = cross_sections(p, np.linspace(0.01, 2.0 * math.pi - 0.01, 4096).tolist())
        ratios = [abs(sx) / sc for sx, sc in zip(sweep.sigma_cross, sweep.sigma_coulomb)]
        assert min(sweep.sigma_total) > 0.0
        assert 0.89 < max(ratios) < RATIO_SUP


class TestHalfFluxCrossSection:
    def test_backscattering_value(self):
        assert sigma_sample(P_H, math.pi).sigma_total == pytest.approx(
            COTH_PI_HALF, rel=1e-14)

    def test_amplitude_squared_matches(self):
        for beta in (0.2, 1.0, 3.7, -1.4):
            p = ScatteringParams(1.3, beta, FluxCase.HALF_INTEGER)
            for theta in (0.4, 1.9, math.pi, 5.1):
                assert abs(amplitude_half_flux(p, theta)) ** 2 == pytest.approx(
                    sigma_sample(p, theta).sigma_total, rel=1e-12)

    def test_flux_only_amplitude_at_beta_zero(self):
        # beta Gamma(-i beta) -> i: |f|^2 is the Aharonov-Bohm value and sigma_2
        thetas = [0.4, math.pi, 5.1]
        for k in (1.0, 0.37):
            p = ScatteringParams(k, 0.0, FluxCase.HALF_INTEGER)
            for theta, sigma_total in zip(thetas, cross_sections(p, thetas).sigma_total,
                                          strict=True):
                f2 = abs(amplitude_half_flux(p, theta)) ** 2
                assert f2 == pytest.approx(limit_ab(FluxCase.HALF_INTEGER, k, theta), rel=1e-12)
                assert f2 == pytest.approx(sigma_total, rel=1e-12)

    def test_flux_only_limit(self):
        p = ScatteringParams(1.0, 1e-8, FluxCase.HALF_INTEGER)
        assert sigma_sample(p, math.pi).sigma_total == pytest.approx(
            INV_TWO_PI, rel=1e-6)

    def test_ratio_to_coulomb_is_angle_free(self):
        p = ScatteringParams(1.0, 0.8, FluxCase.HALF_INTEGER)
        expected = 1.0 / math.tanh(0.8 * math.pi) ** 2
        for theta in (0.5, 1.7, math.pi, 4.4):
            s = sigma_sample(p, theta)
            assert s.sigma_total / s.sigma_coulomb == pytest.approx(expected, rel=1e-12)

    def test_dominates_coulomb(self):
        for beta in (0.1, 1.0, 5.0):
            p = ScatteringParams(1.0, beta, FluxCase.HALF_INTEGER)
            s = sigma_sample(p, 2.5)
            assert s.sigma_total >= s.sigma_coulomb


def pointwise_sample(p, theta):
    """(theta, sigma_total, sigma_coulomb, sigma_cross) at one angle, every
    factor recomputed at that angle in the order the per-angle formulas used;
    the reference that cross_sections must match bit for bit."""
    s2 = math.sin(0.5 * theta) ** 2
    sc = p.beta * math.tanh(math.pi * p.beta) / (2.0 * p.k * s2)
    if p.flux_case is FluxCase.INTEGER_FLUX:
        d0 = arg_gamma(0.5 - 1j * p.beta)
        d1 = arg_gamma(1j * p.beta)
        arg = math.remainder(d0 + d1 - p.beta * math.log(s2), 2.0 * math.pi)
        amp = math.sqrt(p.beta * math.tanh(math.pi * p.beta)) / (math.sqrt(math.pi) * p.k)
        sx = -amp * math.cos(arg) / math.sqrt(s2)
        return (theta, sc + sx, sc, sx)
    if p.flux_case is FluxCase.HALF_INTEGER:
        bcoth = 1.0 / math.pi if p.beta == 0.0 else p.beta / math.tanh(math.pi * p.beta)
        return (theta, bcoth / (2.0 * p.k * s2), sc, 0.0)
    return (theta, sc, sc, 0.0)


_EDGE = FORWARD_CONE * (1.0 + 1e-9)
SWEEP_THETAS = [_EDGE, -_EDGE, 2.0 * math.pi - _EDGE, 2.0 * math.pi + _EDGE, 0.4, math.pi,
                5.9, 2.0 * math.pi + 1.0, 4.0 * math.pi - 0.3, 13.5, 101.0]
SWEEP_PARAMS = [ScatteringParams(k, beta, case)
                for case in FluxCase for k in (1.0, 0.37)
                for beta in (0.0, 1e-8, 0.3, -3.0, 20.0, 500.0)
                if not (beta == 0.0 and case is FluxCase.INTEGER_FLUX)]


class TestCrossSections:
    @pytest.mark.parametrize("p", SWEEP_PARAMS, ids=repr)
    def test_matches_pointwise_formulas_exactly(self, p):
        sweep = cross_sections(p, SWEEP_THETAS)
        assert isinstance(sweep, CrossSectionSweep)
        assert all(type(column) is list for column in sweep)
        rows = list(zip(*sweep, strict=True))
        assert rows == [pointwise_sample(p, t) for t in SWEEP_THETAS]
        samples = [sigma_sample(p, t) for t in SWEEP_THETAS]
        assert all(isinstance(s, CrossSectionSample) for s in samples)
        assert samples == rows

    @pytest.mark.parametrize("n", [1, 17, 1024])
    def test_integer_sweep_makes_two_ln_gamma_calls(self, monkeypatch, n):
        calls = []

        def counting(z):
            calls.append(z)
            return ln_gamma(z)

        monkeypatch.setattr(specfn, "ln_gamma", counting)
        cross_sections(P_I, np.linspace(0.1, 6.0, n).tolist())
        assert len(calls) == 2


def pointwise_sweep(p, thetas):
    """The per-angle loop a sweep replaces: each angle in turn through
    _check_angle, then for integer flux the phase rule, then pointwise_sample.
    Its rows, or the exception it raises at the first refused angle."""
    integer = p.flux_case is FluxCase.INTEGER_FLUX
    if integer and p.beta == 0.0:
        raise DomainError("interference term undefined at beta = 0")
    rows = []
    for theta in thetas:
        s2 = scatter._check_angle(theta)
        if integer:
            d_size = abs(arg_gamma(0.5 - 1j * p.beta)) + abs(arg_gamma(1j * p.beta))
            if specfn._EPS * (d_size + abs(p.beta * math.log(s2))) > scatter._PHASE_ERROR_LIMIT:
                raise DomainError(f"the integer-flux phase at beta = {p.beta}, theta = {theta} "
                                  "is lost to rounding")
        rows.append(pointwise_sample(p, theta))
    return rows


def _outcome(sweep, p, thetas):
    """("rows", the rows) or (exception type, message), as text, so that nan
    rows compare equal."""
    try:
        return repr(("rows", [tuple(row) for row in sweep(p, thetas)]))
    except (DomainError, ValueError) as exc:
        return repr((type(exc).__name__, str(exc)))


# beta = 1.5e5 loses the integer-flux phase near forward only: it passes at
# ORDINARY (asserted below) and fails at NEAR_FORWARD (rows of LIBRARY_REFUSALS)
BETA_NEAR_LOST = 1.5e5
ORDINARY = [0.4, math.pi, 5.9, 13.5]
NEAR_FORWARD = [2.0 * FORWARD_CONE, 0.01, 2.0 * math.pi - 0.01]
IN_CONE = [0.0, -FORWARD_CONE / 2, 2.0 * math.pi - FORWARD_CONE / 2, 4.0 * math.pi]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _refusal_sweeps():
    """Every special angle alone, first, in the middle and last among
    ordinary angles, every ordered pair of special angles, and no angle."""
    special = NEAR_FORWARD + IN_CONE + NON_FINITE
    sweeps = [[]]
    for x in special:
        sweeps += [[x], [x] + ORDINARY, ORDINARY[:2] + [x] + ORDINARY[2:], ORDINARY + [x]]
    for x, y in itertools.permutations(special, 2):
        sweeps.append([ORDINARY[0], x, ORDINARY[1], y, ORDINARY[2]])
    return sweeps


REFUSAL_PARAMS = [ScatteringParams(1.0, beta, case) for case in FluxCase
                  for beta in (0.3, -3.0, BETA_NEAR_LOST, 1e6)]
REFUSAL_PARAMS.append(ScatteringParams(1.0, 0.0, FluxCase.INTEGER_FLUX))


class TestSweepRefusals:
    @pytest.mark.parametrize("p", REFUSAL_PARAMS, ids=repr)
    def test_same_values_or_refusal_as_the_per_angle_loop(self, p):
        for thetas in _refusal_sweeps():
            assert (_outcome(lambda p, thetas: zip(*cross_sections(p, thetas)), p, thetas)
                    == _outcome(pointwise_sweep, p, thetas)), thetas

    def test_the_near_forward_beta_passes_at_ordinary_angles(self):
        p = ScatteringParams(1.0, BETA_NEAR_LOST, FluxCase.INTEGER_FLUX)
        assert len(cross_sections(p, ORDINARY).theta) == len(ORDINARY)

    @pytest.mark.parametrize("p", [P_C, P_I, P_H], ids=repr)
    def test_a_nan_angle_gives_nan_columns(self, p):
        # the refusal of a cone angle after a nan one is a row of LIBRARY_REFUSALS
        assert math.isnan(cross_sections(p, [math.nan, 1.0]).sigma_total[0])


class TestLimits:
    def test_ab_limit_values(self):
        assert limit_ab(FluxCase.INTEGER_FLUX, 1.0, 1.0) == 0.0
        assert limit_ab(FluxCase.COULOMB_ONLY, 1.0, 1.0) == 0.0
        assert limit_ab(FluxCase.HALF_INTEGER, 1.0, math.pi) == pytest.approx(
            INV_TWO_PI, rel=1e-14)
        assert limit_ab(FluxCase.HALF_INTEGER, 2.0, math.pi / 2) == pytest.approx(
            INV_TWO_PI, rel=1e-14)

    def test_classical_value(self):
        assert limit_classical(1.0, 1.0, 1.0, math.pi) == pytest.approx(0.5)

    def test_quantum_to_classical_convergence(self):
        # mu = k = 1 so v_c = k and beta = kappa
        beta = 20.0
        cl = limit_classical(beta, 1.0, 1.0, math.pi)
        p_c = ScatteringParams(1.0, beta, FluxCase.COULOMB_ONLY)
        p_h = ScatteringParams(1.0, beta, FluxCase.HALF_INTEGER)
        bound = 2.0 * math.exp(-2.0 * math.pi * beta)
        assert abs(sigma_sample(p_c, math.pi).sigma_total / cl - 1.0) <= bound + 1e-15
        assert abs(sigma_sample(p_h, math.pi).sigma_total / cl - 1.0) <= bound + 1e-15

    def test_interference_fades_classically(self):
        ratios = []
        for beta in (5.0, 10.0, 20.0):
            p = ScatteringParams(1.0, beta, FluxCase.INTEGER_FLUX)
            s = sigma_sample(p, math.pi)
            ratios.append(abs(s.sigma_cross) / s.sigma_coulomb)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 0.2


class TestParabolicMap:
    def test_forward_examples(self):
        assert to_parabolic(2.0, 0.0) == (pytest.approx(2.0), pytest.approx(0.0))
        assert to_parabolic(1.0, 0.5 * math.pi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_round_trip(self):
        for r, theta in ((0.3, 0.2), (2.0, 3.9), (7.7, 5.5), (1.0, 9.4)):
            xi, eta = to_parabolic(r, theta)
            x, y = 0.5 * (xi * xi - eta * eta), xi * eta
            assert x == pytest.approx(r * math.cos(theta), abs=1e-13 * max(1, r))
            assert y == pytest.approx(r * math.sin(theta), abs=1e-13 * max(1, r))

    def test_double_cover(self):
        # theta and theta + 2 pi name one point of the plane: (xi, eta) flips sign
        for r, theta in ((0.3, 0.2), (2.0, 1.9)):
            xi, eta = to_parabolic(r, theta)
            xi2, eta2 = to_parabolic(r, theta + 2.0 * math.pi)
            assert xi2 == pytest.approx(-xi, abs=1e-14) and eta2 == pytest.approx(-eta, abs=1e-14)


class TestScatteringField:
    def test_integer_flux_origin_is_zero(self):
        assert eval_scattering_field(P_I, 0.0, 0.0) == 0.0

    def test_half_flux_vanishes_on_axis(self):
        for xi in (0.0, 0.8, -2.1):
            assert eval_scattering_field(P_H, xi, 0.0) == 0.0

    def test_coulomb_origin_modulus(self):
        v = eval_scattering_field(P_C, 0.0, 0.0)
        assert abs(v) == pytest.approx(C1_ABS_BETA1, rel=1e-13)

    def test_parity_even_cases(self):
        for p in (P_C, P_I):
            a = eval_scattering_field(p, 0.7, 1.1)
            b = eval_scattering_field(p, -0.7, -1.1)
            assert a == b

    def test_parity_odd_case(self):
        a = eval_scattering_field(P_H, 0.7, 1.1)
        b = eval_scattering_field(P_H, -0.7, -1.1)
        assert a == -b

    @pytest.mark.parametrize("p,phase", [(P_C, 1.0), (P_I, 1.0), (P_H, -1.0)])
    def test_double_cover_boundary_condition(self, p, phase):
        r, theta = 1.7, 0.9
        a = eval_scattering_field_polar(p, r, theta)
        b = eval_scattering_field_polar(p, r, theta + 2.0 * math.pi)
        assert abs(b - phase * a) < 1e-12 * abs(a)


class TestStationaryWave:
    def test_envelope_bound(self):
        bound = math.sqrt(2.0 / (math.pi * P_I.k))
        for r in np.geomspace(0.5, 120.0, 40):
            assert abs(stationary_wave(P_I, float(r))) * math.sqrt(r) <= bound + 1e-12

    def test_zero_locations(self):
        # phase k r + beta ln 2kr + d0 - pi/4 = pi/2 (mod pi) at the nodes
        from abc2d.specfn import arg_gamma
        d0 = arg_gamma(0.5 - 1j)
        target = 21.0 * math.pi + math.pi / 2.0
        r = 60.0
        for _ in range(60):
            g = r + math.log(2.0 * r) + d0 - math.pi / 4.0 - target
            r -= g / (1.0 + 1.0 / r)
        assert abs(stationary_wave(P_I, r)) * math.sqrt(r) < 1e-10


class TestCurrent:
    def test_upstream_flow_is_along_x(self):
        # far upstream (x ~ -112) the incident wave dominates; the current
        # Im(psi* grad psi) from centred differences in (xi, eta), rotated to
        # Cartesian axes through the conformal frame (scale xi^2 + eta^2)
        xi, eta, h = 0.25, 15.0, 0.02
        psi = eval_scattering_field(P_C, xi, eta)
        d_xi = (eval_scattering_field(P_C, xi + h, eta)
                - eval_scattering_field(P_C, xi - h, eta)) / (2.0 * h)
        d_eta = (eval_scattering_field(P_C, xi, eta + h)
                 - eval_scattering_field(P_C, xi, eta - h)) / (2.0 * h)
        h2 = xi * xi + eta * eta
        jx = (psi.conjugate() * (d_xi * xi - d_eta * eta) / h2).imag
        jy = (psi.conjugate() * (d_xi * eta + d_eta * xi) / h2).imag
        assert math.atan2(jy, jx) == pytest.approx(0.0, abs=1e-2)
        assert jx > 0.9


# (xi range, eta range, nx, ny, k).  The last is the benchmark's largest
# field dump, extent 4 at its largest k: there the s-wave's arguments reach
# |z| = 40 and over 100 of them are re-summed from one coefficient table.
GRIDS = [
    ((-2.5, 2.5), (-2.5, 2.5), 7, 7, 1.3),   # symmetric square
    ((-0.7, 3.1), (0.4, 2.9), 6, 6, 1.3),    # asymmetric ranges
    ((-1.5, 2.5), (-3.0, 1.0), 4, 9, 1.3),   # nx != ny
    ((0.0, 1.5), (-1.0, 1.0), 4, 5, 1.3),    # through the origin
    ((-4.0, 4.0), (-4.0, 4.0), 21, 21, 1.8),  # a benchmark dump
]


def pointwise_field(p, xi, eta):
    """Reference: the closed forms evaluated node by node, every factor anew."""
    k, b = p.k, p.beta
    x = 0.5 * (xi * xi - eta * eta)
    c1 = cmath.exp(0.5 * math.pi * b + ln_gamma(0.5 - 1j * b)) / math.sqrt(math.pi)
    if p.flux_case is FluxCase.COULOMB_ONLY:
        return c1 * cmath.exp(1j * k * x) * kummer_m(1j * b, 0.5, 1j * k * eta * eta)
    if p.flux_case is FluxCase.INTEGER_FLUX:
        r = 0.5 * (xi * xi + eta * eta)
        direct = cmath.exp(1j * k * x) * kummer_m(1j * b, 0.5, 1j * k * eta * eta)
        swave = cmath.exp(1j * k * r) * kummer_m(0.5 - 1j * b, 1.0, -2j * k * r)
        return c1 * (direct - swave)
    c2 = (2.0 * math.sqrt(k / math.pi)
          * cmath.exp(0.5 * math.pi * b - 0.25j * math.pi + ln_gamma(1.0 - 1j * b)))
    return c2 * cmath.exp(1j * k * x) * eta * kummer_m(0.5 + 1j * b, 1.5, 1j * k * eta * eta)


class TestSampleScatteringField:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("case", FluxCase, ids=lambda case: case.value)
    def test_matches_pointwise_evaluation_exactly(self, case, grid):
        # a grid's re-sums share one coefficient table and a single node's
        # take a running product: equal unless a sum lies near a rounding tie
        *ranges, k = grid
        p = ScatteringParams(k, 0.8, case)
        xis, etas, values = sample_scattering_field(p, *ranges)
        assert (len(xis), len(etas)) == (grid[2], grid[3])
        assert [len(line) for line in values] == [grid[3]] * grid[2]
        for xv, line in zip(xis, values):
            for ev, v in zip(etas, line):
                assert v == eval_scattering_field(p, xv, ev)
                assert v == pointwise_field(p, xv, ev)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("case", FluxCase, ids=lambda case: case.value)
    def test_kummer_once_per_separated_factor(self, case, grid, monkeypatch):
        # every argument that reaches kummer_m's dispatch: the eta factor's
        # distinct i k eta^2, then the s-wave's distinct -2 i k r, each
        # exactly once (two r a rounding apart can share one argument)
        calls = []
        dispatch = specfn._dispatch

        def counting(a, b, z, *deferred):
            calls.append(z)
            return dispatch(a, b, z, *deferred)

        monkeypatch.setattr(specfn, "_dispatch", counting)
        *ranges, k = grid
        xis, etas, _ = sample_scattering_field(ScatteringParams(k, 0.8, case), *ranges)
        expected = list(dict.fromkeys(1j * k * e * e for e in etas))
        if case is FluxCase.INTEGER_FLUX:
            rs = dict.fromkeys(0.5 * (x * x + e * e) for x in xis for e in etas)
            expected += dict.fromkeys(-2j * k * r for r in rs)
        assert calls == expected


# verify's pde_residual cases
PDE_PARAMS = [ScatteringParams(1.0, 1.0, FluxCase.COULOMB_ONLY),
              ScatteringParams(1.0, 0.7, FluxCase.INTEGER_FLUX),
              ScatteringParams(1.0, 1.0, FluxCase.HALF_INTEGER)]


class TestPdeResidual:
    @pytest.mark.parametrize("h", (0.2, 0.1, 0.05, 0.025))
    @pytest.mark.parametrize("p", PDE_PARAMS, ids=lambda p: p.flux_case.value)
    def test_is_the_five_point_formula_bit_for_bit(self, p, h):
        for xi, eta in verify._PDE_PROBES:
            c = eval_scattering_field(p, xi, eta)
            lap = (
                eval_scattering_field(p, xi + h, eta)
                + eval_scattering_field(p, xi - h, eta)
                + eval_scattering_field(p, xi, eta + h)
                + eval_scattering_field(p, xi, eta - h)
                - 4.0 * c
            ) / (h * h)
            expected = abs(lap + (p.k**2 * (xi * xi + eta * eta) + 4.0 * p.beta * p.k) * c)
            assert scatter.pde_residual(p, xi, eta, h) == expected


class TestSampleDispatch:
    def test_coulomb_sample(self):
        s = sigma_sample(P_C, 2.0)
        assert isinstance(s, CrossSectionSample)
        assert s.sigma_total == s.sigma_coulomb and s.sigma_cross == 0.0


# Spans of every scale: subnormal ends, signed zeros, spans whose step
# underflows to 0 (numpy's denormal branch) and spans near the float limit.
_ENDS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0, -1e300,
                     1.7976931348623157e308)),
    st.floats(-10.0, 10.0),
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(values):
    return [struct.pack("d", x) for x in values]


class TestLinspace:
    @settings(max_examples=500, deadline=None)
    @given(_ENDS, _ENDS, st.integers(0, 70))
    @example(0.0, 5e-324, 3)
    @example(-5e-324, 5e-324, 70)
    @example(-0.0, 1.0, 1)
    @example(-0.0, -1.0, 1)
    @example(1.0, 2.0, 0)
    def test_bit_identical_to_numpy(self, start, stop, num):
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, num).tolist()
        assert _bits(scatter.linspace(start, stop, num)) == _bits(expected)
