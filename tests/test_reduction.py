import inspect
import math

import pytest
from hypothesis import given, strategies as st

from abc2d.reduction import (
    ParticlePair,
    RelativeProblem,
    SpectralCase,
    classify_case,
    decompose_flux,
    reduce_two_body,
    validate_ratio,
)

TWO_PI = 2.0 * math.pi


class TestValidateRatio:
    def test_equal_ratios_pass(self):
        validate_ratio(ParticlePair(1, 1, 1, -3, 2, -6))

    def test_standard_parameterization(self):
        # (q, Phi/Z) and (-Z q, -Phi) with Z = 2, Phi = 4
        validate_ratio(ParticlePair(1, 1, 1, -2, 2, -4))


class TestReduceTwoBody:
    def test_equal_mass_reduction(self):
        prob = reduce_two_body(ParticlePair(2, 2, 1, -1, 1, -1))
        assert prob.reduced_mass == pytest.approx(1.0)

    def test_kappa_is_attraction_strength(self):
        # q = 1, Z = 2 -> charges (1, -2) -> kappa = Z q^2 = 2
        prob = reduce_two_body(ParticlePair(1, 1, 1, -2, 1, -2))
        assert prob.kappa == pytest.approx(2.0)

    def test_alpha_from_fluxes(self):
        # q = 1, Z = 1, Phi chosen so that q Phi / (2 pi) = 0.75
        phi = 0.75 * TWO_PI
        prob = reduce_two_body(ParticlePair(1, 1, 1, -1, phi, -phi))
        assert prob.alpha_flux == pytest.approx(0.75, abs=1e-14)
        assert prob.m0 == 0
        assert prob.nu == pytest.approx(0.75, abs=1e-14)

    def test_exchange_symmetry(self):
        a = reduce_two_body(ParticlePair(3, 5, 2, -1, 4, -2))
        b = reduce_two_body(ParticlePair(5, 3, -1, 2, -2, 4))
        assert a.reduced_mass == pytest.approx(b.reduced_mass, rel=1e-15)
        assert abs(a.kappa) == pytest.approx(abs(b.kappa), rel=1e-15)


class TestDecomposeFlux:
    @pytest.mark.parametrize(
        "alpha,m0,nu",
        [(2.75, 2, 0.75), (-0.5, -1, 0.5), (3.0, 3, 0.0), (0.0, 0, 0.0)],
    )
    def test_examples(self, alpha, m0, nu):
        assert decompose_flux(alpha) == (m0, nu)

    def test_snap_to_half(self):
        m0, nu = decompose_flux(1.5 + 3e-13)
        assert nu == 0.5 and m0 == 1

    def test_snap_up_to_integer(self):
        m0, nu = decompose_flux(2.0 - 3e-13)
        assert nu == 0.0 and m0 == 2

    @given(st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_recompose_roundtrip(self, alpha):
        m0, nu = decompose_flux(alpha)
        assert 0.0 <= nu < 1.0
        assert abs(m0 + nu - alpha) < 1e-12 * max(1.0, abs(alpha))


class TestClassifyCase:
    @pytest.mark.parametrize(
        "m0,nu,tag",
        [
            (0, 0.0, SpectralCase.PURE_COULOMB),
            (1, 0.0, SpectralCase.INTEGER_FLUX),
            (-1, 0.5, SpectralCase.HALF_INTEGER),
            (0, 0.25, SpectralCase.GENERIC_LOW),
            (2, 0.75, SpectralCase.GENERIC_HIGH),
        ],
    )
    def test_examples(self, m0, nu, tag):
        assert classify_case(m0, nu) is tag

    @given(st.integers(min_value=-50, max_value=50),
           st.floats(min_value=0.0, max_value=0.999999,
                     allow_nan=False, allow_infinity=False))
    def test_tags_partition_parameter_space(self, m0, nu):
        tag = classify_case(m0, nu)
        predicates = {
            SpectralCase.PURE_COULOMB: nu == 0.0 and m0 == 0,
            SpectralCase.INTEGER_FLUX: nu == 0.0 and m0 != 0,
            SpectralCase.GENERIC_LOW: 0.0 < nu < 0.5,
            SpectralCase.HALF_INTEGER: nu == 0.5,
            SpectralCase.GENERIC_HIGH: 0.5 < nu < 1.0,
        }
        assert sum(predicates.values()) == 1
        assert predicates[tag]


class TestRelativeProblem:
    def test_from_parameters(self):
        prob = RelativeProblem.from_parameters(1.0, 1.0, -0.5)
        assert (prob.m0, prob.nu) == (-1, 0.5)

    def test_split_follows_from_alpha(self):
        assert list(inspect.signature(RelativeProblem).parameters) == [
            "reduced_mass", "kappa", "alpha_flux"]
        prob = RelativeProblem(1.0, 1.0, 1.5 + 1e-13)
        assert (prob.m0, prob.nu) == (1, 0.5)

    @pytest.mark.parametrize("alpha", [
        0.0, 1e-13, -1e-13, 0.25, 0.5, 2.0 - 3e-13, -1.5, 1e6 + 0.75])
    def test_split_is_decompose_flux(self, alpha):
        # the split is derived, so alpha itself is kept unsnapped
        prob = RelativeProblem(1.0, 1.0, alpha)
        assert prob.alpha_flux == alpha
        assert (prob.m0, prob.nu) == decompose_flux(alpha)
        assert 0.0 <= prob.nu < 1.0
        assert abs(prob.m0 + prob.nu - alpha) < 1e-12 * max(1.0, abs(alpha))

    def test_replace_rederives_the_split(self):
        prob = RelativeProblem(1.0, 1.0, 2.75)._replace(alpha_flux=-0.5)
        assert (prob.m0, prob.nu) == (-1, 0.5)
