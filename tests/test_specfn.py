"""Special-function kernels against high-precision references and identities.

mpmath serves as the independent oracle; the frozen constants below were
evaluated with it at 40 digits.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from abc2d.errors import DomainError
from abc2d import specfn
from abc2d.specfn import _taylor, arg_gamma, kummer_m, ln_gamma

mp.mp.dps = 40

LN_SQRT_PI = 0.57236494292470009
PI_OVER_SINH_PI = 0.27202905498213316
PI_OVER_COSH_PI = 0.27101495139941835
E_MINUS_1 = 1.7182818284590452
ARG_GAMMA_HALF_MINUS_I = 0.95500772434256911


class TestLnGamma:
    def test_at_one(self):
        assert abs(ln_gamma(1.0)) < 5e-15

    def test_at_half(self):
        assert ln_gamma(0.5).real == pytest.approx(LN_SQRT_PI, abs=5e-15)
        assert ln_gamma(0.5).imag == 0.0

    def test_modulus_at_i(self):
        assert abs(cmath.exp(ln_gamma(1j))) ** 2 == pytest.approx(
            PI_OVER_SINH_PI, rel=1e-13)

    def test_near_pole_is_not_pole(self):
        ln_gamma(-2.5)
        ln_gamma(complex(-1.0, 1e-8))

    def test_against_reference_disk(self):
        rng = random.Random(101)
        worst = 0.0
        n = 0
        while n < 400:
            z = cmath.rect(rng.uniform(0.05, 50.0), rng.uniform(-math.pi, math.pi))
            if z.imag == 0.0 and z.real <= 0.0:
                continue
            ref = complex(mp.gamma(z))
            if not abs(ref) < 1e290:
                continue
            n += 1
            worst = max(worst, abs(cmath.exp(ln_gamma(z)) - ref) / abs(ref))
        assert worst < 1e-13

    # cmath.sin(pi z) overflows beyond |Im z| ~ 226; -0.5 - 1000j takes the
    # reflection branch with Im z < 0
    @pytest.mark.parametrize("z", [230j, 1000j, 0.5 - 1000j, -0.5 - 1000j, -3.7 + 300j])
    def test_large_imaginary_part(self, z):
        ref = mp.loggamma(z)
        d = ln_gamma(z) - complex(ref)
        assert abs(d.real) < 1e-14 * abs(ref)
        assert abs(math.remainder(d.imag, 2.0 * math.pi)) < 1e-14 * abs(ref)

    # finite up to |z| ~ 2.5e305: neither the products of the Stirling terms
    # nor 1/z^2 may overflow before ln Gamma does
    @pytest.mark.parametrize("z", [2e305, 0.5 - 2e305j, 2e300j, 1e160 + 1e160j])
    def test_near_the_top_of_the_double_range(self, z):
        ref = complex(mp.loggamma(z))
        got = ln_gamma(z)
        for part, expected in ((got.real, ref.real), (got.imag, ref.imag)):
            assert abs(part - expected) <= 2.0 * math.ulp(expected)

    def test_reflection_identity(self):
        rng = random.Random(7)
        for _ in range(100):
            z = complex(rng.uniform(-9.0, 9.0), rng.uniform(0.05, 9.0))
            lhs = ln_gamma(z) + ln_gamma(1.0 - z)
            rhs = cmath.log(math.pi / cmath.sin(math.pi * z))
            assert abs((lhs - rhs).real) < 1e-11
            assert abs(math.remainder((lhs - rhs).imag, 2.0 * math.pi)) < 1e-11

    def test_recurrence_identity(self):
        rng = random.Random(8)
        for _ in range(100):
            z = complex(rng.uniform(-9.0, 9.0), rng.uniform(0.05, 9.0))
            d = ln_gamma(z + 1.0) - ln_gamma(z) - cmath.log(z)
            assert abs(d.real) < 1e-12
            assert abs(math.remainder(d.imag, 2.0 * math.pi)) < 1e-12


class TestArgGamma:
    def test_real_positive(self):
        assert arg_gamma(0.5) == 0.0

    def test_value(self):
        assert arg_gamma(0.5 - 1j) == pytest.approx(ARG_GAMMA_HALF_MINUS_I, abs=1e-13)

    def test_schwarz_reflection(self):
        z = 0.5 - 1j
        assert arg_gamma(z.conjugate()) == pytest.approx(-arg_gamma(z), abs=1e-13)

    def test_small_beta_limit(self):
        # Gamma(i b) ~ 1/(i b) -> phase -pi/2
        assert arg_gamma(1e-6j) == pytest.approx(-math.pi / 2, abs=1e-4)

    def test_continuity_in_beta(self):
        prev = arg_gamma(0.05j)
        for i in range(1, 200):
            cur = arg_gamma((0.05 + i * 0.05) * 1j)
            assert abs(cur - prev) < 0.5
            prev = cur


class TestGammaModuli:
    def test_closed_forms_at_one(self):
        g0 = abs(cmath.exp(ln_gamma(1j))) ** 2
        g1 = abs(cmath.exp(ln_gamma(0.5 + 1j))) ** 2
        assert g0 == pytest.approx(PI_OVER_SINH_PI, rel=1e-14)
        assert g1 == pytest.approx(PI_OVER_COSH_PI, rel=1e-14)

    def test_zero_beta_pole(self):
        # |Gamma(i b)|^2 diverges at b = 0 (the pole is a row of LIBRARY_REFUSALS);
        # |Gamma(1/2 + i b)|^2 -> pi stays finite
        assert abs(cmath.exp(ln_gamma(0.5 + 0j))) ** 2 == pytest.approx(math.pi, rel=1e-14)

    def test_large_beta_asymptotics(self):
        # |Gamma(i b)|^2 -> 2 pi e^{-pi b}/b and |Gamma(1/2 + i b)|^2 -> 2 pi e^{-pi b}
        b = 10.0
        g0 = abs(cmath.exp(ln_gamma(1j * b))) ** 2
        g1 = abs(cmath.exp(ln_gamma(0.5 + 1j * b))) ** 2
        asym = 2.0 * math.pi * math.exp(-math.pi * b)
        assert g0 * b / asym == pytest.approx(1.0, rel=1e-12)
        assert g1 / asym == pytest.approx(1.0, rel=1e-12)

    def test_matches_ln_gamma_identities(self):
        # |Gamma(i b)|^2 = pi/(b sinh pi b), |Gamma(1/2 + i b)|^2 = pi/cosh pi b
        for b in (0.05, 0.3, 1.7, 6.0, 10.0):
            g0 = math.pi / (b * math.sinh(math.pi * b))
            g1 = math.pi / math.cosh(math.pi * b)
            assert abs(cmath.exp(ln_gamma(1j * b))) ** 2 == pytest.approx(g0, rel=1e-11)
            assert abs(cmath.exp(ln_gamma(0.5 + 1j * b))) ** 2 == pytest.approx(g1, rel=1e-11)


class TestKummer:
    def test_at_zero(self):
        assert kummer_m(2.3 - 1j, 0.7, 0.0) == 1.0

    def test_terminating_polynomial(self):
        assert kummer_m(-1.0, 1.0, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_exponential_case(self):
        # M(1, 2, z) = (e^z - 1)/z
        assert kummer_m(1.0, 2.0, 1.0).real == pytest.approx(E_MINUS_1, rel=1e-14)

    def test_termination_term_count(self):
        # degree-n polynomial: leading 1 plus n products, the (n+1)-th vanishes
        for n in (0, 1, 3, 7):
            _, _, count = _taylor(complex(-n), complex(2.0), complex(1.5))
            assert count == n + 1

    def test_kummer_transformation(self):
        rng = random.Random(23)
        for _ in range(100):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = complex(rng.uniform(0.3, 5), rng.uniform(-2, 2))
            z = cmath.rect(rng.uniform(0.1, 20.0), rng.uniform(-math.pi, math.pi))
            lhs = kummer_m(a, b, z)
            rhs = cmath.exp(z) * kummer_m(b - a, b, -z)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_against_reference_moderate(self):
        rng = random.Random(301)
        for _ in range(60):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = complex(rng.uniform(0.3, 6), rng.uniform(-2, 2))
            z = cmath.rect(rng.uniform(0.0, 15.0), rng.uniform(-math.pi, math.pi))
            ref = complex(mp.hyp1f1(a, b, z))
            assert abs(kummer_m(a, b, z) - ref) <= 1e-12 * abs(ref)

    def test_against_reference_oscillatory(self):
        # purely imaginary argument in the heavy-cancellation window; the
        # fixed-point re-sum must hold 1e-12
        rng = random.Random(302)
        for _ in range(40):
            beta = rng.uniform(0.05, 4.0)
            if rng.random() < 0.5:
                a, b = 1j * beta, 0.5
            else:
                a, b = 0.5 + 1j * beta, 1.5
            y = rng.uniform(15.0, 40.0) * (1 if rng.random() < 0.5 else -1)
            ref = complex(mp.hyp1f1(a, mp.mpf(b), 1j * y))
            assert abs(kummer_m(a, b, 1j * y) - ref) <= 1e-12 * abs(ref)

    def test_against_reference_asymptotic(self):
        rng = random.Random(303)
        for _ in range(40):
            beta = rng.uniform(0.05, 4.0)
            if rng.random() < 0.5:
                a, b = 1j * beta, 0.5
            else:
                a, b = 0.5 - 1j * beta, 1.0
            y = rng.uniform(41.0, 400.0) * (1 if rng.random() < 0.5 else -1)
            ref = complex(mp.hyp1f1(a, mp.mpf(b), 1j * y))
            assert abs(kummer_m(a, b, 1j * y) - ref) <= 5e-12 * abs(ref)

    # real z beyond the Taylor radius, where the two sectors are averaged
    # into one cos(pi a) term
    @pytest.mark.parametrize("a,b,z", [
        (0.25, 1.0, 45.0), (0.5 + 0.3j, 1.5, 50.0), (0.5, 1.5, 400.0), (0.7j, 0.5, 120.0),
        (-1.5, 1.0, 41.0), (2.5 - 1j, 3.0, 200.0), (0.3, 0.5, 100.0)])
    def test_against_reference_positive_real_axis(self, a, b, z):
        ref = complex(mp.hyp1f1(a, b, z))
        assert abs(kummer_m(a, b, z) - ref) <= 1e-12 * abs(ref)

    def test_against_reference_beyond_the_taylor_radius(self):
        # the verify row's parameter ranges at every arg z; the sector of the
        # z^{-a} term flips with the sign of Im z, so the lower-right quadrant
        # must not take the upper sign
        rng = random.Random(304)
        for _ in range(600):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = complex(rng.uniform(0.3, 5), rng.uniform(-2, 2))
            z = cmath.rect(rng.uniform(40.0, 400.0), rng.uniform(-math.pi, math.pi))
            ref = complex(mp.hyp1f1(a, b, z))
            assert abs(kummer_m(a, b, z) - ref) <= 1e-12 * abs(ref), (a, b, z)

    def test_left_half_plane_sums_its_own_series(self, monkeypatch):
        # Re z < 0 inside the Taylor radius: the series of M(a, b, z) itself,
        # not of M(b - a, b, -z), re-summed where it cancels
        calls = []
        checked = specfn._taylor_checked

        def recording(a, b, z, *deferred):
            calls.append((a, b, z))
            return checked(a, b, z, *deferred)

        monkeypatch.setattr(specfn, "_taylor_checked", recording)
        rng = random.Random(305)
        for _ in range(40):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = complex(rng.uniform(0.3, 5), rng.uniform(-2, 2))
            z = cmath.rect(rng.uniform(15.0, 40.0), rng.uniform(0.5 * math.pi, 1.5 * math.pi))
            calls.clear()
            ref = complex(mp.hyp1f1(a, b, z))
            assert abs(kummer_m(a, b, z) - ref) <= 1e-12 * abs(ref)
            assert calls == [(a, b, z)]

    @pytest.mark.parametrize("beta", [5.0, 10.0, 20.0, 50.0])
    @pytest.mark.parametrize("y", [41.0, 45.0, 60.0, 100.0, 200.0, -41.0, -45.0,
                                   -60.0, -100.0, -200.0])
    def test_field_families_beyond_the_taylor_radius(self, beta, y):
        # the Coulomb, half-integer and s-wave factors where large beta keeps
        # the expansion's smallest term above 1e-13: there the Taylor sum runs
        for a, b in ((1j * beta, 0.5), (0.5 + 1j * beta, 1.5), (0.5 - 1j * beta, 1.0)):
            ref = complex(mp.hyp1f1(a, mp.mpf(b), 1j * y))
            assert abs(kummer_m(a, b, 1j * y) - ref) <= 1e-12 * abs(ref), (a, b)

    def test_never_calls_itself(self, monkeypatch):
        calls = []
        kummer = specfn.kummer_m

        def counting(a, b, z):
            calls.append(z)
            return kummer(a, b, z)

        monkeypatch.setattr(specfn, "kummer_m", counting)
        for z in (0.0, -3.0, -25.0 + 4.0j, 30.0j, -30.0j, 60.0, -60.0 + 1.0j, -80.0j):
            for a in (-3.0, 0.7 + 0.2j):
                specfn.kummer_m(a, 1.5, z)
        assert len(calls) == 16

    @pytest.mark.parametrize("a", [1e-20, -1e-20, 1e-18, 1e-20j])
    @pytest.mark.parametrize("z", [30.0, 40.0])
    def test_tiny_upper_parameter_keeps_growing_terms(self, a, z):
        # the first terms are below 1e-16 of the sum, but the terms grow
        # until n ~ z and add up to ~1e-20 e^z / z
        ref = complex(mp.hyp1f1(a, 1, z))
        assert abs(kummer_m(a, 1.0, z) - ref) <= 1e-13 * abs(ref)

    def test_polynomial_matches_explicit_horner(self):
        # explicit coefficients (-n)_j / ((b)_j j!) summed exactly
        from fractions import Fraction
        n, b, z = 5, Fraction(3, 2), Fraction(17, 2)
        coeff, acc, zp = Fraction(1), Fraction(1), Fraction(1)
        for j in range(n):
            coeff *= Fraction(-n + j) / ((b + j) * (j + 1))
            zp *= z
            acc += coeff * zp
        got = kummer_m(float(-n), float(b), float(z))
        assert got.real == pytest.approx(float(acc), rel=1e-14)
        assert got.imag == 0.0


@pytest.fixture
def resums(monkeypatch):
    """The argument tuples of every fixed-point re-sum made during a test."""
    calls = []
    resum = specfn._taylor_fixed

    def counting(*args):
        calls.append(args)
        return resum(*args)

    monkeypatch.setattr(specfn, "_taylor_fixed", counting)
    return calls


class TestFixedPointResum:
    """The re-sum that takes over when the float Taylor series cancels."""

    def test_random_triples(self, resums):
        rng = random.Random(311)
        for i in range(120):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = complex(rng.uniform(0.3, 6), rng.uniform(-3, 3) if i % 2 else 0.0)
            z = cmath.rect(rng.uniform(8.0, 40.0), rng.uniform(-math.pi, math.pi))
            ref = complex(mp.hyp1f1(a, b, z))
            assert abs(kummer_m(a, b, z) - ref) <= 1e-12 * abs(ref), (a, b, z)
        assert len(resums) >= 40
        assert any(args[1].imag for args in resums)
        assert any(not args[1].imag for args in resums)

    def test_scattering_arguments(self, resums):
        rng = random.Random(312)
        for _ in range(60):
            beta = rng.uniform(0.05, 4.0)
            a, b = rng.choice(((1j * beta, 0.5), (0.5 + 1j * beta, 1.5), (0.5 - 1j * beta, 1.0)))
            z = 1j * rng.uniform(8.0, 40.0) * rng.choice((1, -1))
            ref = complex(mp.hyp1f1(a, mp.mpf(b), z))
            assert abs(kummer_m(a, b, z) - ref) <= 1e-12 * abs(ref), (a, b, z)
        assert len(resums) >= 30

    def test_terminating_polynomials(self, resums):
        rng = random.Random(313)
        for _ in range(60):
            n = rng.randrange(4, 40)
            b = rng.choice((1.0, 3.0, 5.0, 2.2, 3.6))
            rho = rng.uniform(20.0, 120.0)
            ref = float(mp.hyp1f1(-n, b, rho))
            got = kummer_m(float(-n), b, rho)
            assert got.imag == 0.0
            assert abs(got.real - ref) <= 1e-12 * abs(ref), (n, b, rho)
        assert len(resums) >= 30

    @pytest.mark.parametrize("n,b,rho", [
        (600, 1.0, 30.0), (800, 2.5, 40.0), (1000, 1.0, 50.0), (700, 3.0, 150.0)])
    def test_polynomials_beyond_the_float_pass(self, n, b, rho, resums):
        # degree above the float pass's 500 terms: its result is a partial
        # sum, so the re-sum runs to the last term and fixes its own bits;
        # the reference sums the coefficients exactly
        from fractions import Fraction
        fb, fz = Fraction(b), Fraction(rho)
        term = acc = Fraction(1)
        for j in range(n):
            term *= (j - n) * fz / ((fb + j) * (j + 1))
            acc += term
        got = kummer_m(float(-n), b, rho)
        assert got.imag == 0.0
        assert abs(got.real - float(acc)) <= 1e-12 * abs(float(acc))
        assert resums

    @pytest.mark.parametrize("n,b,rho", [
        (1000, 1.0, 300.0), (700, 2.5, 400.0), (900, 3.0, 250.0), (800, 1.0, 1000.0),
        (1000, 0.5, 1418.0)])
    def test_overflowing_float_pass(self, n, b, rho, resums):
        # the float pass overflows to nan, so it gives no condition estimate;
        # the re-sum takes its bits from a bound on the terms instead
        assert not cmath.isfinite(_taylor(complex(-n), complex(b), complex(rho))[0])
        ref = mp.hyp1f1(-n, b, rho)
        got = kummer_m(float(-n), b, rho)
        assert got.imag == 0.0
        assert abs(got.real - ref) <= 1e-12 * abs(ref), (n, b, rho)
        assert len(resums) == 1

    @pytest.mark.parametrize("n,b,rho", [(2000, 3.0, 150.0), (3000, 1.0, 3000.0)])
    def test_past_the_term_cap_a_term_exceeds_m(self, n, b, rho):
        # the re-sum's last term, the 1,000th, is still larger than M itself,
        # so no sum it could return is right (kummer_m refuses: LIBRARY_REFUSALS)
        cap = specfn._RESUM_MAX_TERMS
        term = mp.rf(-n, cap) * mp.mpf(rho) ** cap / (mp.rf(b, cap) * mp.factorial(cap))
        assert abs(term) > abs(mp.hyp1f1(-n, b, rho))

    @pytest.mark.parametrize("a,b,z", [(1e5, 1e4, 40.0), (2e4, 1e3, 20 + 20j),
                                       (5e4, 5e3, 38 + 3j)])
    def test_series_past_the_float_cap(self, a, b, z, resums):
        # the float pass takes all its terms without meeting its stopping rule;
        # its partial sum was returned (8.2e-9 off at the first point), and the
        # re-sum's absolute tail test could not finish the second in 1,000 terms
        assert _taylor(complex(a), complex(b), complex(z))[2] == specfn._TAYLOR_MAX_TERMS
        ref = complex(mp.hyp1f1(a, b, z))
        assert abs(kummer_m(a, b, z) - ref) <= 1e-12 * abs(ref)
        assert len(resums) == 1

    def test_past_both_caps_a_term_exceeds_m(self):
        # the 1,000th term is 1.8e105 against |M| = 2.8e57, so no sum of at most
        # 1,000 terms is right: kummer_m refuses (a row of LIBRARY_REFUSALS)
        # where it once returned the float pass's partial sum
        a, b, z = 3e4 + 2j, 2e3, 5 + 38j
        cap = specfn._RESUM_MAX_TERMS
        term = mp.rf(a, cap) * mp.mpc(z) ** cap / (mp.rf(b, cap) * mp.factorial(cap))
        assert abs(term) > abs(mp.hyp1f1(a, b, z))

    def test_overflowing_terms_past_the_bit_limit_raise(self, resums):
        # terms near 2**(1000 log2 1e300): refused before any re-sum runs
        with pytest.raises(DomainError):
            kummer_m(-1000.0, 1.0, 1e300)
        assert resums == []

    def test_huge_parameter_converts_exactly(self, resums):
        # M(a, b, z/a) -> 0F1(; b; z) as a -> oo; here a z = -40 and the
        # terms alternate, so the sum cancels and the re-sum runs with
        # a = 1e300, far beyond what round(a * 2**bits) could convert
        for a, b, z in ((1e300, 1.0, -4e-299), (-1e300, 2.5, 3.3e-299)):
            ref = float(mp.hyp0f1(b, mp.mpf(a) * mp.mpf(z)))
            got = kummer_m(a, b, z)
            assert abs(got - ref) <= 1e-12 * abs(ref)
        assert len(resums) == 2


def fraction_terms(a, b, z, bits, count):
    """Reference for _fixed_terms: t_0 = 2**bits and each part of t_n the floor
    of t_{n-1} (a+n-1) z / ((b+n-1) n) in exact rationals, up to count terms
    or the first zero term."""
    ar, ai, zr, zi, br, bi = map(Fraction, (a.real, a.imag, z.real, z.imag, b.real, b.imag))
    tr, ti = 1 << bits, 0
    terms = []
    for n in range(1, count + 1):
        ur, ui = tr * (ar + n - 1) - ti * ai, tr * ai + ti * (ar + n - 1)
        ur, ui = ur * zr - ui * zi, ur * zi + ui * zr
        cr, ci = br + n - 1, bi
        den = (cr * cr + ci * ci) * n
        tr, ti = math.floor((ur * cr + ui * ci) / den), math.floor((ui * cr - ur * ci) / den)
        terms.append((tr, ti))
        if tr == ti == 0:
            break
    return terms


@pytest.mark.parametrize("a,b,z,bits", [
    (0.3 + 1.7j, 1.5 - 2.25j, 3.7 + 11.2j, 90),     # complex b
    (0.5 + 1.3j, 1.5, 25.0j, 100),                   # real b > 0
    (0.7j, -3.5, -18.0 + 9.0j, 96),                  # real b < 0: b + n - 1 < 0 to n = 4
    (-0.3 + 1.1j, -0.3, 0.1 + 29.7j, 88),            # real b in (-1, 0)
    (-12.0, 3.0, 35.0, 84),                          # a = -12: t_13 = 0
    (0.5 - 2.0j, 1.0, 2 ** 5, 92),                   # a table's R = 2**r, r > 0
    (2.5j, -1.75 + 0.5j, 2 ** -3, 84),               # and r < 0
])
def test_fixed_terms_are_one_floor_each(a, b, z, bits):
    # each part of each term is the one floor of an exact rational, which a
    # floor of a floored product or a division by a negative (b + n - 1) n
    # in two steps can miss by a unit
    want = fraction_terms(complex(a), complex(b), z, bits, 40)
    got = list(itertools.islice(specfn._fixed_terms(complex(a), complex(b), z, bits), len(want)))
    assert got == want
    assert len(want) == (13 if a == -12.0 else 40)


# repr(kummer_m(a, b, z)) recorded from the decimal re-sum this one replaced;
# each argument takes the re-sum, so any change to its arithmetic shows here.
# The last one (Re z < 0) was re-recorded when kummer_m stopped applying
# Kummer's transformation: summed directly it is mpmath's correctly rounded
# value, where the e^z product had left it 2.7e-16 off.
GOLDEN_RESUMS = [
    ((0.5 + 1.3j, 1.5, 25.0j), "(-0.06380747287945618+0.02821828913607356j)"),
    ((0.7j, 0.5, 30.0j), "(-0.744314825837762+0.18867298757435438j)"),
    # real b < 0, recorded from the running product that floored twice there
    ((0.7j, -0.5, 30.0j), "(4.763368836618855+2.223088862790016j)"),
    ((0.5 - 2.0j, 1.0, -24.0j), "(0.10973007050824819+0.06977295480540492j)"),
    ((2.5j, 0.5, -18.0j), "(616.215062000993-1469.0241698659006j)"),
    ((-12.0, 3.0, 35.0), "(-25440.805505953183+0j)"),
    ((-7.0, 1.6, 22.5), "(-2009.592862840859+0j)"),
    ((1.5 - 0.5j, 2.0 + 1.0j, 20.0j), "(-1.9217025583437481+0.7892633195350116j)"),
    ((-2.3 + 1.1j, 3.5 - 2.0j, complex(-12.484405096414273, 27.278922804770453)),
     "(-53.33027148053992+10.566949493350783j)"),
]


@pytest.mark.parametrize("args,expected", GOLDEN_RESUMS)
def test_resum_golden_bits(args, expected, resums):
    assert repr(kummer_m(*args)) == expected
    assert len(resums) == 1


CROSSOVER = specfn._TABLE_MIN_GROUP


@pytest.mark.parametrize("size", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1])
@pytest.mark.parametrize("args,expected", GOLDEN_RESUMS)
def test_batch_matches_kummer_m_bit_for_bit(args, expected, size, resums):
    # each golden argument with size - 1 neighbours that share its (a, b) and
    # also re-sum: below the crossover one running product each, from it on
    # one coefficient table and no running product
    a, b, z = args
    zs = [z * (1 - j / 64) for j in range(size)]
    batch = specfn.kummer_m_many(a, b, zs)
    assert len(resums) == (size if size < CROSSOVER else 0)
    assert repr(batch[0]) == expected
    assert [repr(m) for m in batch] == [repr(kummer_m(a, b, z)) for z in zs]
    assert len(resums) == (2 * size if size < CROSSOVER else size)


def test_batch_evaluates_each_distinct_argument_once(monkeypatch):
    calls = []
    dispatch = specfn._dispatch

    def counting(a, b, z, *deferred):
        calls.append(z)
        return dispatch(a, b, z, *deferred)

    monkeypatch.setattr(specfn, "_dispatch", counting)
    # -50 + 0j and -50 - 0j lie on the two sides of the branch cut
    zs = [30j, 0.0, 30j, complex(-50.0, -0.0), -50.0, 0.0, complex(-50.0, -0.0)]
    batch = specfn.kummer_m_many(0.3 + 1j, 0.5, zs)
    assert [(z, math.copysign(1.0, z.imag)) for z in calls] == [
        (30j, 1.0), (0j, 1.0), (-50.0, -1.0), (-50.0, 1.0)]
    assert [repr(m) for m in batch] == [repr(kummer_m(0.3 + 1j, 0.5, z)) for z in zs]
    assert batch[3] != batch[4]
    assert specfn.kummer_m_many(0.3 + 1j, 0.5, []) == []


# (id, a, b, zs, patches of specfn, the message the loop over zs raises
# first, or its start);
# every refusal is a DomainError.  With the re-sum's term cap at 50, a
# cancelling Laguerre polynomial M(-400, 1, x), x near 30, is held back by
# the batch and then fails; M(-400, 1, 1e300) is refused by the float pass.
SHORT_CAP = (("_RESUM_MAX_TERMS", 50),)
LAGUERRE_FAILS = ("M((-400+0j), (1+0j), (30+0j)): the Taylor series has not converged "
                  "after 50 terms")
OVERFLOWS = "M((-400+0j), (1+0j), (1e+300+0j)): its Taylor terms reach 2**"
REFUSED_BATCHES = [
    ("argument", 0.7j, 0.5, [30j, 25j, complex("inf"), 20j], (),
     "M(a, b, z) needs a finite argument, got z = (inf+0j)"),
    ("argument-before-parameter", 0.7j, -1.0, [complex("nan"), 25j], (),
     "M(a, b, z) needs a finite argument, got z = (nan+0j)"),
    ("parameter", 0.7j, -1.0, [30j, complex("nan")], (), "lower parameter pole at b = -1.0"),
    ("float-pass", -400.0, 1.0, [1e300, 30.0], SHORT_CAP, OVERFLOWS),
    *((f"held-back-{n}", -400.0, 1.0, [30.0 + j for j in range(n)] + [1e300], SHORT_CAP,
       LAGUERRE_FAILS) for n in (1, CROSSOVER, CROSSOVER + 1)),
    ("held-back-alone", -400.0, 1.0, [30.0, 31.0, 32.0], SHORT_CAP, LAGUERRE_FAILS),
]


@pytest.mark.parametrize("a, b, zs, patches, message",
                         [pytest.param(*row[1:], id=row[0]) for row in REFUSED_BATCHES])
def test_batch_refuses_as_the_scalar_loop_first_does(a, b, zs, patches, message, monkeypatch):
    for name, value in patches:
        monkeypatch.setattr(specfn, name, value)
    with pytest.raises(DomainError) as scalar:
        [kummer_m(a, b, z) for z in zs]
    assert str(scalar.value).startswith(message)
    with pytest.raises(DomainError) as batch:
        specfn.kummer_m_many(a, b, zs)
    assert type(batch.value) is type(scalar.value)
    assert str(batch.value) == str(scalar.value)


def test_the_failing_laguerre_resum_is_held_back(monkeypatch):
    # the premise of the held-back rows: the batch defers the re-sums that fail
    monkeypatch.setattr(specfn, "_RESUM_MAX_TERMS", 50)
    deferred = []
    xs = [30.0 + j for j in range(CROSSOVER + 1)]
    values = [specfn._dispatch(-400 + 0j, 1 + 0j, complex(x), deferred) for x in xs]
    assert values == [None] * len(xs)
    assert [z for z, _ in deferred] == xs


def test_poly_matches_kummer_m_bit_for_bit(resums):
    # repr compares every bit, signed zeros and the +0j of the result included
    rng = random.Random(4417)
    for _ in range(200):
        n, b = rng.randint(0, 30), 100.0 * (1.0 - rng.random())
        xs = [0.0, -0.0, *(rng.uniform(0.0, 10.0 ** rng.randint(0, 3)) for _ in range(8))]
        assert [repr(m) for m in specfn.kummer_m_poly(n, b, xs)] == [
            repr(kummer_m(-n, b, x)) for x in xs], (n, b, xs)
    assert resums  # some of them cancel into a re-sum


@pytest.mark.parametrize("n, b, x, overflows", [
    (20, 1.5, 30.0, False),    # the float pass cancels; the re-sum runs
    (300, 1.0, 1000.0, True),  # the float pass overflows; bits from the term bound
])
def test_poly_matches_kummer_m_where_the_float_pass_gives_way(n, b, x, overflows, resums):
    assert math.isfinite(_taylor(float(-n), b, x)[0]) != overflows
    assert repr(specfn.kummer_m_poly(n, b, [x])) == repr([kummer_m(-n, b, x)])
    assert len(resums) == 2  # one re-sum each


# (id, n, b, xs, patches of specfn); the list over xs raises first, with
# kummer_m's message, and an empty list raises nothing
REFUSED_POLYS = [
    ("pole", 3, 0.0, [1.0, 2.0], ()),
    ("pole-before-later-argument", 3, -2.0, [1.0, math.inf], ()),
    ("argument-before-pole", 3, -2.0, [math.nan, 1.0], ()),
    ("later-argument", 3, 1.5, [1.0, 2.0, -math.inf], ()),
    ("parameter", 3, math.nan, [1.0], ()),
    ("bits", 1000, 1.0, [1.0, 1e300], ()),
    ("not-converged", 400, 1.0, [2.0, 30.0], SHORT_CAP),
]


@pytest.mark.parametrize("n, b, xs, patches",
                         [pytest.param(*row[1:], id=row[0]) for row in REFUSED_POLYS])
def test_poly_refuses_as_kummer_m_first_does(n, b, xs, patches, monkeypatch):
    for name, value in patches:
        monkeypatch.setattr(specfn, name, value)
    with pytest.raises(DomainError) as scalar:
        [kummer_m(-n, b, x) for x in xs]
    with pytest.raises(DomainError) as poly:
        specfn.kummer_m_poly(n, b, xs)
    assert str(poly.value) == str(scalar.value)
    assert specfn.kummer_m_poly(n, b, []) == []


# repr(ln_gamma(complex(x, y))) recorded from the compensated (Neumaier) sum
# that math.fsum replaced: the right half (Re z in [0.5, 60]), the reflection
# branch (Re z < 1/2 with |Im z| < 223), its log-sin form (|Im z| > 223), and
# i b, -i b, 1/2 - i b, 1/2 + i b and 1 - i b at b in {0.05, 0.3, 1, 20, 200, 1000},
# the arguments the scattering phases and field prefactors take.  68 rows were
# re-recorded when the Stirling products stopped carrying Dekker residuals;
# against mpmath, |error| / max(1, |ln Gamma|) over those rows went from at
# most 1.8e-15 to at most 3.1e-15.
GOLDEN_LN_GAMMA = [
    # right half
    ((0.5, 0.0), "(0.5723649429247009+0j)"),
    ((0.75, 0.0), "(0.203280951431297+0j)"),
    ((1.0, 0.0), "(2.9472951856845953e-15+0j)"),
    ((1.5, 0.0), "(-0.12078223763524437+0j)"),
    ((2.0, 0.0), "(2.9472951856845953e-15+0j)"),
    ((3.25, 0.0), "(0.9358019311087284+0j)"),
    ((7.0, 0.0), "(6.579251212010104+0j)"),
    ((8.999, 0.0), "(10.6024623200256+0j)"),
    ((9.0, 0.0), "(10.604602902745253+0j)"),
    ((17.5, 0.0), "(32.08111489594736+0j)"),
    ((33.3, 0.0), "(82.60372358165493+0j)"),
    ((60.0, 0.0), "(184.53382886144945+0j)"),
    ((51.47804, -47.857267), "(130.3871545281738-193.8400559618467j)"),
    ((46.966375, 58.163535), "(102.56829880973363+234.19345159899558j)"),
    ((30.388391, 7.202693), "(71.71448186628429+24.539785120345478j)"),
    ((7.37698, -44.671102), "(-43.09553752727812-135.32498558228409j)"),
    ((3.832826, -36.377058), "(-44.23949267996743-99.44370874885692j)"),
    ((34.757896, 56.131565), "(52.65168565838151+213.876137462275j)"),
    ((11.548787, 6.34831), "(14.675315109732884+15.571581179029081j)"),
    ((55.397406, -41.667335), "(151.34635539883502-170.34981674013648j)"),
    ((47.960137, 63.618022), "(101.90013697761825+258.78666453584424j)"),
    ((7.099822, 14.182386), "(-3.6329459893472835+32.31419378857607j)"),
    ((55.70785, 17.104244), "(164.54615065645007+68.87322334284204j)"),
    ((49.209821, 60.112795), "(110.54008674346926+244.63656350595753j)"),
    ((30.330816, 60.875686), "(28.98173678228554+229.06967565023837j)"),
    ((6.23784, 64.88939), "(-77.05947951287608+214.63379837485792j)"),
    ((29.368313, 51.404595), "(35.29785784175299+188.7362282430715j)"),
    ((33.603766, 30.235746), "(71.32782296520534+109.2519265896375j)"),
    # reflection branch
    ((0.25, 0.0), "(1.2880225246980759+0j)"),
    ((-0.5, 0.0), "(1.2655121234846445-3.141592653589793j)"),
    ((-2.5, 0.0), "(-0.056243716497674956-3.141592653589793j)"),
    ((-7.3, 0.0), "(-7.779101629826851+0j)"),
    ((-30.1, 0.0), "(-72.68108834488714-3.141592653589793j)"),
    ((-8.192281, 55.734103), "(-121.61097282215268+179.15456415281326j)"),
    ((-2.639816, 30.234801), "(-57.282872209590636+80.3084254875756j)"),
    ((-38.695776, 21.177617), "(-164.7373148923266+81.16943483753128j)"),
    ((-11.140159, 178.614267), "(-340.0127944694598+766.5775321703377j)"),
    ((-36.059847, -196.288663), "(-500.64062247443735-892.3184302251742j)"),
    ((-11.315043, -17.900203), "(-62.0461625512349-49.22385168090616j)"),
    ((-30.754248, 216.387902), "(-507.1467142738328+996.3333216315199j)"),
    ((-20.825961, 5.54965), "(-59.72969977437122+19.160949235638967j)"),
    ((-4.827859, -30.783888), "(-65.72094234513493-84.73534176530598j)"),
    ((-31.999113, 110.45978), "(-325.94495027097776+453.98261228737067j)"),
    ((-1.639019, 32.017559), "(-56.790076352872845+81.81752794332637j)"),
    ((-6.554643, -134.299767), "(-244.61014288669588-537.6455204711086j)"),
    ((-0.121586, -162.603894), "(-257.6633528778621-664.2867825649973j)"),
    ((-35.220867, -42.381987), "(-203.0360505537966-159.75669719157568j)"),
    ((-31.866516, 175.14858), "(-441.5797185434153+776.3211963967121j)"),
    ((-24.846284, 90.363017), "(-255.50311720162333+354.97555992314153j)"),
    ((-31.739101, -170.599723), "(-432.93535548763873-753.0286694543789j)"),
    ((-16.15104, 54.152783), "(-150.8668712740485+183.60452974948885j)"),
    ((-30.617195, -155.145045), "(-399.9547825028507-676.0149614795977j)"),
    # reflection branch, log-sin form
    ((-9.631435, 223.0), "(-404.1545264451299+966.6550017971504j)"),
    ((-18.362739, -223.5), "(-452.21268561837275-955.0790775836954j)"),
    ((-0.23719, 300.0), "(-474.5247313083631+1409.9760001932689j)"),
    ((-12.643597, -1000.0), "(-1660.6705176912258-5887.023032168915j)"),
    ((-5.917283, 5000.0), "(-7907.719936267396+37575.881602699126j)"),
    ((-11.596586, -20000.0), "(-31534.805986980176-178050.74612176575j)"),
    ((-23.824406, 1460.954303), "(-2471.1920169835603+9146.382303503891j)"),
    ((-7.236964, 2033.693687), "(-3252.536819776183+13446.021691775735j)"),
    ((-20.990348, 438.942716), "(-819.3344474751145+2197.463969895095j)"),
    ((-30.655865, -340.208774), "(-715.1481505187037-1592.6944906891504j)"),
    ((-3.358277, 2240.629409), "(-3548.418233276333+15038.669388748396j)"),
    ((-1.47269, 348.340688), "(-557.7998561231565+1687.4562444896358j)"),
    ((-8.784309, 1706.054514), "(-2748.03852934358+10975.689570606311j)"),
    ((-23.51079, -2423.770926), "(-3993.4499250572026-16427.034443213393j)"),
    # scattering arguments
    ((0.0, 0.05), "(2.9936777944560453-1.5996070890313376j)"),
    ((0.0, -0.05), "(2.9936777944560453+1.5996070890313376j)"),
    ((0.5, -0.05), "(0.5662216414572371+0.09782689623627322j)"),
    ((0.5, 0.05), "(0.5662216414572371-0.09782689623627322j)"),
    ((1.0, -0.05), "(-0.0020544790979454344+0.028810762236441044j)"),
    ((0.0, 0.3), "(1.132026553426298-1.7336169989627523j)"),
    ((0.0, -0.3), "(1.132026553426298+1.7336169989627523j)"),
    ((0.5, -0.3), "(0.3770211256102041+0.5258114466591651j)"),
    ((0.5, 0.3), "(0.3770211256102041-0.5258114466591651j)"),
    ((1.0, -0.3), "(-0.07194625089963888+0.1628206721678557j)"),
    ((0.0, 1.0), "(-0.6509231993018565-1.8724366472624296j)"),
    ((0.0, -1.0), "(-0.6509231993018565+1.8724366472624296j)"),
    ((0.5, -1.0), "(-0.6527906442043738+0.9550077243425692j)"),
    ((0.5, 1.0), "(-0.6527906442043738-0.9550077243425692j)"),
    ((1.0, -1.0), "(-0.6509231993018563+0.301640320467533j)"),
    ((0.0, 20.0), "(-31.99485413947025+39.125080293545004j)"),
    ((0.0, -20.0), "(-31.99485413947025-39.125080293545004j)"),
    ((0.5, -20.0), "(-30.496988002693257-39.91672910847333j)"),
    ((0.5, 20.0), "(-30.496988002693257+39.91672910847333j)"),
    ((1.0, -20.0), "(-28.999121865916266-40.695876620339895j)"),
    ((0.0, 200.0), "(-315.8894855090487+858.8776584791959j)"),
    ((0.0, -200.0), "(-315.8894855090487-858.8776584791959j)"),
    ((0.5, -200.0), "(-313.2403268257747-859.6636816432446j)"),
    ((0.5, 200.0), "(-313.2403268257747+859.6636816432446j)"),
    ((1.0, -200.0), "(-310.5911681425007-860.4484548059909j)"),
    ((0.0, 1000.0), "(-1573.3312659011824+5906.969797485403j)"),
    ((0.0, -1000.0), "(-1573.3312659011824-5906.969797485403j)"),
    ((0.5, -1000.0), "(-1569.877388261692-5907.755320648806j)"),
    ((0.5, 1000.0), "(-1569.877388261692+5907.755320648806j)"),
    ((1.0, -1000.0), "(-1566.423510622201-5908.540593812198j)"),
]


@pytest.mark.parametrize("xy,expected", GOLDEN_LN_GAMMA)
def test_ln_gamma_golden_bits(xy, expected):
    assert repr(ln_gamma(complex(*xy))) == expected
