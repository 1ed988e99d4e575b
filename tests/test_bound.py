import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abc2d import bound, verify
from abc2d.bound import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    BRANCH_UNSPLIT,
    QuantumNumbers,
    energy,
    eval_bound_wavefunction,
    is_acceptable,
    normalization_constant,
    sample_bound_field,
    spectrum,
    wavefunction,
)
from abc2d.reduction import RelativeProblem
from abc2d.specfn import kummer_m

C00_NU0 = 1.5957691216057307       # 4 / sqrt(2 pi)
C00_NU_HALF = 0.56418958354775629  # 1 / sqrt(pi)


def problem(nu, m0=None, mu=1.0, kappa=1.0):
    alpha = nu if m0 is None else m0 + nu
    return RelativeProblem.from_parameters(mu, kappa, alpha)


class TestAcceptability:
    def test_integer_flux_excludes_m_zero(self):
        assert not is_acceptable(QuantumNumbers(3, 0), m0=2, nu=0.0)

    def test_m_equals_m0_exemption(self):
        assert is_acceptable(QuantumNumbers(0, 0), m0=0, nu=0.0)

    def test_fractional_flux_always_regular(self):
        assert is_acceptable(QuantumNumbers(0, 0), m0=2, nu=0.5)


class TestEnergy:
    def test_coulomb_ground(self):
        assert energy(QuantumNumbers(0, 0), problem(0.0)) == pytest.approx(-2.0)

    def test_half_flux_ground(self):
        assert energy(QuantumNumbers(0, 0), problem(0.5)) == pytest.approx(-0.5)

    def test_half_flux_coincidence_pair(self):
        # |m + nu| = 1/2 for m = -1: lambda = 2 -> E = -1/8, same as (0, 1)
        p = problem(0.5)
        assert energy(QuantumNumbers(1, -1), p) == pytest.approx(-0.125)
        assert energy(QuantumNumbers(1, -1), p) == energy(QuantumNumbers(0, 1), p)

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75])
    def test_depends_only_on_effective_exponent(self, nu):
        p = problem(nu)
        for n_r in range(3):
            for m in range(-3, 4):
                for mp_ in range(-3, 4):
                    if abs(m + nu) == abs(mp_ + nu):
                        e1 = energy(QuantumNumbers(n_r, m), p)
                        e2 = energy(QuantumNumbers(n_r, mp_), p)
                        assert e1 == pytest.approx(e2, rel=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75])
    def test_quantization_closure(self, nu):
        # kappa sqrt(-mu/2E) must come back as n_r + |m+nu| + 1/2
        p = problem(nu, mu=1.3, kappa=0.7)
        for n_r in range(4):
            for m in range(-4, 5):
                e = energy(QuantumNumbers(n_r, m), p)
                lam = p.kappa * math.sqrt(-p.reduced_mass / (2.0 * e))
                assert lam == pytest.approx(n_r + abs(m + nu) + 0.5, rel=1e-12)


class TestSpectrum:
    def test_pure_coulomb_levels(self):
        levels = spectrum(problem(0.0), 3)
        assert [lv.energy for lv in levels] == pytest.approx([-2.0, -2.0 / 9.0, -0.08])
        assert [lv.degeneracy for lv in levels] == [1, 3, 5]
        assert all(lv.branch == BRANCH_UNSPLIT for lv in levels)
        assert [lv.principal_n for lv in levels] == [0, 1, 2]

    def test_integer_flux_ground_level(self):
        levels = spectrum(problem(0.0, m0=1), 3)
        assert levels[0].energy == pytest.approx(-1.0 / (2.0 * 1.5**2))
        assert [lv.degeneracy for lv in levels] == [2, 4, 6]
        assert levels[0].principal_n == 1

    def test_generic_low_interleaving(self):
        levels = spectrum(problem(0.25), 2)
        assert levels[0].energy == pytest.approx(-0.888888888888888888)
        assert levels[0].branch == BRANCH_PLUS
        assert levels[0].members == ((0, 0),)
        assert levels[1].energy == pytest.approx(-0.32)
        assert levels[1].branch == BRANCH_MINUS
        assert levels[1].members == ((0, -1),)

    def test_generic_high_swaps_order(self):
        levels = spectrum(problem(0.75), 2)
        assert levels[0].energy == pytest.approx(-0.888888888888888888)
        assert levels[0].branch == BRANCH_MINUS
        assert levels[1].energy == pytest.approx(-0.32)
        assert levels[1].branch == BRANCH_PLUS

    def test_half_integer_merged(self):
        levels = spectrum(problem(0.5), 3)
        assert levels[0].members == ((0, -1), (0, 0))
        assert [lv.degeneracy for lv in levels] == [2, 4, 6]
        assert [lv.principal_n for lv in levels] == [0, 1, 2]
        assert all(lv.branch == BRANCH_UNSPLIT for lv in levels)

    @pytest.mark.parametrize("nu,first", [(0.1, BRANCH_PLUS), (0.25, BRANCH_PLUS),
                                          (0.4, BRANCH_PLUS), (0.6, BRANCH_MINUS),
                                          (0.75, BRANCH_MINUS), (0.9, BRANCH_MINUS)])
    def test_interleaving_patterns(self, nu, first):
        levels = spectrum(problem(nu), 20)
        energies = [lv.energy for lv in levels]
        assert all(a < b for a, b in zip(energies, energies[1:]))
        branches = [lv.branch for lv in levels]
        assert branches[0] == first
        # branches strictly alternate in both orderings
        assert all(a != b for a, b in zip(branches, branches[1:]))
        ns = [lv.principal_n for lv in levels]
        if first == BRANCH_PLUS:   # N: 0, 1, 1, 2, 2, ...
            expected = [0] + [1 + (i - 1) // 2 for i in range(1, 20)]
        else:                      # N: 1, 0, 2, 1, 3, 2, ...
            expected = [1 + i // 2 if i % 2 == 0 else (i - 1) // 2
                        for i in range(20)]
        assert ns == expected

    def test_half_integer_coincidence_exact(self):
        p = problem(0.5)
        for n in range(11):
            e_plus = energy(QuantumNumbers(0, n), p)
            e_minus = energy(QuantumNumbers(0, -(n + 1)), p)
            assert e_plus == pytest.approx(e_minus, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, 0.3, 0.7, 2.5])
    def test_iter_levels_yields_the_spectrum(self, alpha):
        p = RelativeProblem.from_parameters(1.3, 0.7, alpha)
        levels = bound.iter_levels(p, 40)
        assert iter(levels) is levels
        assert list(levels) == spectrum(p, 40)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, 0.3, 0.7, 2.5])
    def test_builds_no_member_objects(self, monkeypatch, alpha):
        # members come out as (n_r, m) int pairs in closed form: no
        # QuantumNumbers per member and no is_acceptable call per member
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bound, "QuantumNumbers", counting(bound.QuantumNumbers))
        monkeypatch.setattr(bound, "is_acceptable", counting(bound.is_acceptable))
        levels = spectrum(RelativeProblem.from_parameters(1.0, 1.0, alpha), 200)
        assert calls == []
        assert all(type(n_r) is int and type(m) is int
                   for lv in levels for n_r, m in lv.members)

    def test_memory_is_constant_per_level(self):
        # a level holds its two rungs, not its members: 2000 levels at
        # nu = 1/2 have about 4 million members
        p = RelativeProblem.from_parameters(1.0, 1.0, 0.5)
        tracemalloc.start()
        try:
            levels = spectrum(p, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(lv.degeneracy for lv in levels) == 2000 * 2001
        assert peak <= 2000 * 1024


class TestRungLambda:
    """Each level's energy comes from its rung's lambda, N +- nu + 1/2."""

    @staticmethod
    def check(p, n_levels=300):
        prefactor = -p.reduced_mass * (p.kappa * p.kappa) / 2.0
        levels = spectrum(p, n_levels)
        for lv in levels:
            # the lower rung's lambda, N +- nu + 1/2 as the walk rounds it; the
            # merged levels at nu = 0 and 1/2 take the plus rung's
            sign = -1 if lv.branch == BRANCH_MINUS else 1
            lam = lv.principal_n + sign * p.nu + 0.5
            assert lv.energy == prefactor / (lam * lam), lv.principal_n
            exact = lv.principal_n + sign * Fraction(p.nu) + Fraction(1, 2)
            assert abs(Fraction(lam) - exact) <= Fraction(math.ulp(lam))
        energies = [lv.energy for lv in levels]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    @settings(deadline=None)
    @given(st.integers(min_value=-3, max_value=3),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=0.3, max_value=3.0))
    def test_random_split_flux(self, m0, nu, kappa):
        self.check(problem(nu, m0=m0, mu=1.3, kappa=kappa))

    # 0.5 - 2**-54, the largest double below 1/2, is snapped to 1/2
    @pytest.mark.parametrize("nu", [1e-11, 0.5 - 2**-54, 0.5 - 1e-11, 0.5 + 1e-11,
                                    1.0 - 1e-11])
    def test_flux_near_the_merged_cases(self, nu):
        self.check(problem(nu, mu=1.3, kappa=0.7))


class TestSpectrumAgainstEnumeration:
    """bound.spectrum (ladder walk) against verify's brute-force enumeration."""

    @given(st.integers(min_value=-4, max_value=4),
           st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                     st.sampled_from([0.0, 1e-11, 0.5 - 1e-11, 0.5, 0.5 + 1e-11,
                                      1.0 - 1e-11])),
           st.floats(min_value=0.3, max_value=3.0),
           st.integers(min_value=2, max_value=10))
    def test_levels_match_brute_force(self, m0, nu, kappa, n_cap):
        p = RelativeProblem.from_parameters(1.3, kappa, m0 + nu)
        groups = verify._enumerate_levels(p, n_cap)
        levels = spectrum(p, len(groups))
        assert [list(lv.members) for lv in levels] == [members for _, members in groups]
        for lv, (e, _) in zip(levels, groups):
            assert lv.energy == pytest.approx(e, rel=1e-14, abs=0.0)

    @staticmethod
    def check_with(monkeypatch, mutate):
        real = bound.spectrum
        monkeypatch.setattr(bound, "spectrum", lambda p, n: mutate(real(p, n)))
        return verify.check_degeneracy(8)

    def test_oracle_passes_unmodified_spectrum(self, monkeypatch):
        assert self.check_with(monkeypatch, lambda levels: levels).passed

    @pytest.mark.parametrize("index", [0, 5, 17])
    def test_oracle_rejects_dropped_member(self, monkeypatch, index):
        def drop(levels):
            lv = levels[index]
            if lv.plus_count:
                levels[index] = lv._replace(plus_count=lv.plus_count - 1)
            else:
                levels[index] = lv._replace(minus_count=lv.minus_count - 1)
            return levels

        assert not self.check_with(monkeypatch, drop).passed

    def test_oracle_pins_the_energy_of_every_listed_level(self, monkeypatch):
        # the last of the 18 listed levels lies past the enumeration box, so
        # only the merged ladders see its energy
        def shift(levels):
            lv = levels[-1]
            levels[-1] = lv._replace(energy=lv.energy * (1.0 + 1e-12))
            return levels

        assert not self.check_with(monkeypatch, shift).passed

    @pytest.mark.parametrize("index", [0, 9])
    def test_oracle_rejects_swapped_branches(self, monkeypatch, index):
        def swap(levels):
            a, b = levels[index], levels[index + 1]
            levels[index] = a._replace(branch=b.branch)
            levels[index + 1] = b._replace(branch=a.branch)
            return levels

        assert not self.check_with(monkeypatch, swap).passed


# One flux alpha = m0 + nu per draw from each of the five spectral regimes:
# pure Coulomb, integer flux, split below and above nu = 1/2, half flux.
_M0 = st.integers(min_value=-3, max_value=3)
_REGIME_ALPHA = st.one_of(
    st.just(0.0),
    _M0.filter(bool).map(float),
    st.builds(float.__add__, _M0.map(float),
              st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True)),
    st.builds(float.__add__, _M0.map(float),
              st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True)),
    _M0.map(lambda m0: m0 + 0.5),
)
_U = Fraction(1, 2**53)  # unit roundoff of a double
# The walk rounds lambda = (N +- nu) + 1/2 twice, over terms of one sign.
_LAMBDA_REL = (1 + _U) ** 2 - 1
# energy = (-mu * (kappa * kappa) / 2) / (lambda * lambda): two roundings in
# the prefactor (its halving is exact), lambda's own error twice and one
# rounding in lambda * lambda below the line, one in the division; about 8 u.
_ENERGY_REL = (1 + _U) ** 3 / ((1 - _LAMBDA_REL) ** 2 * (1 - _U)) - 1


class TestSpectrumAgainstExactArithmetic:
    """Every level of bound.spectrum against rational arithmetic: the member
    set of the k-th lowest exact lambda = n_r + |m + nu| + 1/2, and the energy
    -mu kappa^2 / (2 lambda^2) within the walk's rounding bound."""

    @staticmethod
    def exact_levels(p, n_levels):
        """(lambda, members) of the n_levels lowest levels, lambda a Fraction.

        nu = a / d is a dyadic rational, so d (n_r + |m + nu|) = n_r d +
        |m d + a| is an int: the states are grouped by it exactly.  Every
        state with n_r + |m + nu| <= cap is enumerated, and the cap holds the
        n_levels lowest levels of each regime.
        """
        a, d = p.nu.as_integer_ratio()
        cap = n_levels + 1
        groups = {}
        for m in range(-cap - 1, cap + 2):
            if p.nu == 0.0 and m == 0 and p.m0 != 0:
                continue
            w = abs(m * d + a)
            for n_r in range(cap + 1):
                if n_r * d + w <= cap * d:
                    groups.setdefault(n_r * d + w, []).append((n_r, m))
        keys = sorted(groups)[:n_levels]
        assert len(keys) == n_levels
        return [(Fraction(key, d) + Fraction(1, 2), tuple(sorted(groups[key])))
                for key in keys]

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=0.05, max_value=20.0),
           _REGIME_ALPHA, st.integers(min_value=1, max_value=60))
    def test_levels_match_rational_arithmetic(self, mu, kappa, alpha, n_levels):
        p = RelativeProblem.from_parameters(mu, kappa, alpha)
        levels = spectrum(p, n_levels)
        assert len(levels) == n_levels
        for i, (lv, (lam, members)) in enumerate(zip(levels, self.exact_levels(p, n_levels))):
            assert lv.members == members, i
            exact = -Fraction(mu) * Fraction(kappa) ** 2 / (2 * lam * lam)
            assert abs(Fraction(lv.energy) - exact) <= _ENERGY_REL * abs(exact), i


class TestMemberCells:
    """SpectrumLevel.member_cells takes each member's n_r cell from one table
    and its m cell from the other, in the member order of a loop over n_r."""

    @staticmethod
    def cells_by_loop(lv):
        """The flat (n_r, m) cells, a member at a time: for n_r = 0, 1, ...
        the minus member, then the plus member."""
        cells = []
        for n_r in range(max(lv.plus_count, lv.minus_count)):
            if n_r < lv.minus_count:
                cells += [n_r, n_r - lv.minus_n]
            if n_r < lv.plus_count:
                cells += [n_r, lv.plus_n - n_r]
        return cells

    # the five regimes (Coulomb, integer, split below and above 1/2, half) and
    # a negative flux
    @pytest.mark.parametrize("alpha", [0.0, 2.0, 0.3, 0.7, 0.5, -1.3])
    def test_two_tables_give_the_cells_of_one_loop(self, alpha):
        levels = bound.iter_levels(RelativeProblem.from_parameters(1.0, 1.0, alpha), 10**6)
        for lv in itertools.takewhile(lambda lv: lv.principal_n <= 60, levels):
            expected = self.cells_by_loop(lv)
            top = max(lv.plus_n, lv.minus_n)
            for zero in (top + 1, 2 * top + 1):
                counts, ints = range(zero), range(-zero, zero + 1)
                assert lv.member_cells(counts, ints, zero) == expected
                cells = lv.member_cells([("n_r", i) for i in counts],
                                        [("m", i) for i in ints], zero)
                assert cells == list(zip(itertools.cycle(("n_r", "m")), expected))


class TestNormalization:
    def test_coulomb_ground_constant(self):
        assert normalization_constant(QuantumNumbers(0, 0), problem(0.0)) == \
            pytest.approx(C00_NU0, rel=1e-14)

    def test_half_flux_ground_constant(self):
        assert normalization_constant(QuantumNumbers(0, 0), problem(0.5)) == \
            pytest.approx(C00_NU_HALF, rel=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75])
    def test_positive(self, nu):
        p = problem(nu, mu=0.8, kappa=1.7)
        for n_r in range(4):
            for m in range(-3, 4):
                assert normalization_constant(QuantumNumbers(n_r, m), p) > 0.0


class TestWavefunction:
    def test_origin_value_coulomb_ground(self):
        v = eval_bound_wavefunction(QuantumNumbers(0, 0), problem(0.0), 0.0, 0.7)
        assert v == pytest.approx(C00_NU0)

    def test_origin_vanishes_for_fractional_flux(self):
        p = problem(0.5)
        for qn in (QuantumNumbers(0, 0), QuantumNumbers(2, -1)):
            assert eval_bound_wavefunction(qn, p, 0.0, 0.1) == 0.0

    def test_single_valued(self):
        p = problem(0.75, m0=2)
        qn = QuantumNumbers(1, -2)
        a = eval_bound_wavefunction(qn, p, 1.3, 0.4)
        b = eval_bound_wavefunction(qn, p, 1.3, 0.4 + 2.0 * math.pi)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_angular_phase_winding(self):
        p = problem(0.0, m0=1)
        qn = QuantumNumbers(0, 2)
        r = 0.9
        a = eval_bound_wavefunction(qn, p, r, 0.0)
        b = eval_bound_wavefunction(qn, p, r, 0.5)
        # phase advances as (m - m0) theta
        assert cmath.phase(b / a) == pytest.approx(0.5, abs=1e-12)

    def test_node_count_along_radius(self):
        # n_r sign changes of the radial part
        p = problem(0.25)
        qn = QuantumNumbers(2, 1)
        rs = [0.05 * i for i in range(1, 400)]
        vals = [eval_bound_wavefunction(qn, p, r, 0.0).real for r in rs]
        flips = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
        assert flips == 2


# One state per spectral regime, flux alpha = m0 + nu: pure Coulomb, integer
# flux, split below and above nu = 1/2, and half flux.
GRID_STATES = [
    (0.0, QuantumNumbers(1, 0)),
    (2.0, QuantumNumbers(2, -1)),
    (1.3, QuantumNumbers(0, 2)),
    (-1.2, QuantumNumbers(1, 1)),
    (-2.5, QuantumNumbers(2, 0)),
]
# (span, points): odd counts put a node at the origin, even ones do not.
BOUND_GRIDS = [((-3.0, 3.0), 7), ((-3.0, 3.0), 8), ((-1.5, 2.5), 5), ((-2.0, 2.0), 6)]


class TestSampleBoundField:
    @pytest.mark.parametrize("span,points", BOUND_GRIDS)
    @pytest.mark.parametrize("alpha,qn", GRID_STATES, ids=lambda v: str(v))
    def test_matches_pointwise_evaluation_exactly(self, alpha, qn, span, points):
        p = RelativeProblem.from_parameters(0.8, 1.3, alpha)
        psi = wavefunction(qn, p)
        xs, ys, values = sample_bound_field(qn, p, span, points)
        assert len(xs) == len(ys) == points
        assert [len(line) for line in values] == [points] * points
        for x, line in zip(xs, values):
            for y, v in zip(ys, line):
                assert v == psi(math.hypot(x, y), math.atan2(y, x)), (x, y)

    @pytest.mark.parametrize("span,points", BOUND_GRIDS)
    @pytest.mark.parametrize("alpha,qn", GRID_STATES, ids=lambda v: str(v))
    def test_kummer_once_per_distinct_radius(self, alpha, qn, span, points, monkeypatch):
        calls = []

        def counting(a, b, z):
            calls.append(z)
            return kummer_m(a, b, z)

        monkeypatch.setattr(bound, "kummer_m", counting)
        p = RelativeProblem.from_parameters(0.8, 1.3, alpha)
        xs, ys, _ = sample_bound_field(qn, p, span, points)
        assert len(calls) <= len({math.hypot(x, y) for x in xs for y in ys})
