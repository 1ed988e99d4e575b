import collections
import inspect
import math
import random
import sys

import pytest
import scipy.integrate
import scipy.optimize

import abc2d.oracle as oracle_mod
from abc2d import verify
from abc2d.bound import QuantumNumbers, energy
from abc2d.errors import DomainError
from abc2d.oracle import quad_norm, shoot_with_nodes
from abc2d.reduction import RelativeProblem

E_NU025_M_MINUS1_NR1 = -0.098765432098765432  # -1/(2 * 2.25^2) = -8/81


def problem(nu, mu=1.0, kappa=1.0):
    return RelativeProblem.from_parameters(mu, kappa, nu)


class TestShooting:
    def test_coulomb_ground(self):
        e = shoot_with_nodes(problem(0.0), 0, 0)[0]
        assert e == pytest.approx(-2.0, rel=1e-6)

    def test_half_flux_ground(self):
        e = shoot_with_nodes(problem(0.5), 0, 0)[0]
        assert e == pytest.approx(-0.5, rel=1e-6)

    def test_quarter_flux_excited(self):
        e = shoot_with_nodes(problem(0.25), -1, 1)[0]
        assert e == pytest.approx(E_NU025_M_MINUS1_NR1, rel=1e-6)

    # at w = |m + nu| near 14 and above, (R, R_x) passes _RESCALE_AT on the
    # way out and is renormalized: 4 times for m = 14, 7 times for m = 20
    @pytest.mark.parametrize("nu,m,n_r", [(0.0, 1, 2), (0.25, -2, 1), (0.75, 0, 2),
                                          (0.25, 14, 0), (0.25, 20, 1)])
    def test_node_counts(self, nu, m, n_r):
        e, nodes = shoot_with_nodes(problem(nu), m, n_r)
        assert nodes == n_r
        assert e == pytest.approx(energy(QuantumNumbers(n_r, m), problem(nu)), rel=1e-9)

    def test_requires_attraction(self):
        with pytest.raises(DomainError, match="shooting requires attraction"):
            shoot_with_nodes(problem(0.0, kappa=-1.0), 0, 0)

    def test_truncated_domain_fails_to_bracket(self, monkeypatch):
        # r_max below the turning point keeps the discriminating node outside
        monkeypatch.setattr(oracle_mod, "_R_MAX", 0.8)
        with pytest.raises(DomainError, match="no Wronskian sign change"):
            shoot_with_nodes(problem(0.0), 0, 0)

    # The first node-count midpoint is the closed-form energy, so one end of
    # the root bracket sits on the eigenvalue, where the Wronskian is
    # integration noise of either sign.
    @pytest.mark.parametrize("nu,m,n_r", [
        (0.25, 0, 2), (0.25, 2, 1), (0.5, -1, 2), (0.5, 0, 2), (0.5, 2, 1), (0.75, -1, 2),
    ])
    def test_bracket_end_on_eigenvalue(self, nu, m, n_r):
        p = problem(nu)
        e, nodes = shoot_with_nodes(p, m, n_r)
        assert nodes == n_r
        assert e == pytest.approx(energy(QuantumNumbers(n_r, m), p), rel=1e-9)

    @pytest.mark.parametrize("shift", [-0.05, 1e-3, 0.1])
    def test_window_center_need_not_be_exact(self, shift):
        # nu = 0.25, m = 1, n_r = 1 with the search window centred off the
        # eigenvalue, as it would be around a wrong closed form
        w, n_r = 1.25, 1
        e_true = -0.5 / (n_r + w + 0.5) ** 2
        e, nodes = oracle_mod._solve_scaled(w, n_r, e_true * (1.0 + shift))
        assert nodes == n_r
        assert e == pytest.approx(e_true, rel=1e-9)

    def test_integration_budget(self, monkeypatch):
        # node-count bisection alone took 37 integrations per state
        calls = []
        integrate = oracle_mod._integrate

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(oracle_mod, "_integrate", counting)
        for mu, kappa, alpha, m, n_r in verify.shooting_grid(small=True):
            before = len(calls)
            shoot_with_nodes(RelativeProblem.from_parameters(mu, kappa, alpha), m, n_r)
            assert len(calls) - before <= 16, (alpha, m, n_r)

    def test_each_outward_leg_is_integrated_once(self, monkeypatch):
        # a trial energy's node count and Wronskian share one leg from x0
        calls = []
        integrate = oracle_mod._integrate

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(oracle_mod, "_integrate", counting)
        for mu, kappa, alpha, m, n_r in verify.shooting_grid(small=True):
            calls.clear()
            shoot_with_nodes(RelativeProblem.from_parameters(mu, kappa, alpha), m, n_r)
            x0 = min(args[2] for args in calls)
            starts = collections.Counter(args[1] for args in calls if args[2] == x0)
            assert max(starts.values()) == 1, (alpha, m, n_r, starts)

    def test_nontrivial_units(self):
        p = problem(0.5, mu=2.5, kappa=0.6)
        e = shoot_with_nodes(p, 0, 0)[0]
        closed = -p.reduced_mass * p.kappa**2 / (2.0 * 1.0**2)
        assert e == pytest.approx(closed, rel=1e-6)


class TestQuadNorm:
    def test_coulomb_ground(self):
        assert quad_norm(QuantumNumbers(0, 0), problem(0.0)) == pytest.approx(1.0, abs=1e-6)

    def test_half_flux_ground(self):
        assert quad_norm(QuantumNumbers(0, 0), problem(0.5)) == pytest.approx(1.0, abs=1e-6)

    def test_excited_states(self):
        p = problem(0.75)
        for qn in (QuantumNumbers(2, 0), QuantumNumbers(1, -2), QuantumNumbers(0, 3)):
            assert quad_norm(qn, p) == pytest.approx(1.0, abs=1e-6)

    def test_inaccurate_quadrature_is_refused(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_qags", lambda f, a, b, *args: (0.15, 1e-6))
        with pytest.raises(DomainError, match="norm quadrature error estimate 1.00e-06"):
            quad_norm(QuantumNumbers(0, 0), problem(0.0))


def _recorded(monkeypatch, name):
    """(args, result) of each call to oracle.<name>, which still runs."""
    calls = []
    real = getattr(oracle_mod, name)

    def recording(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(oracle_mod, name, recording)
    return calls


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _scipy_quad(f, a, b, epsabs, epsrel, limit, **kw):
    return scipy.integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, **kw)


# _qags ports QUADPACK dqagse, the routine behind scipy.integrate.quad on a
# finite interval: value and error estimate must be scipy's floats bit for bit.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestQagsMatchesScipy:
    def assert_matches_quad(self, calls):
        assert calls
        for args, ours in calls:
            assert _bits(ours) == _bits(_scipy_quad(*args)), args[1:]

    @pytest.mark.parametrize("small", [True, False])
    def test_norm_table_integrands(self, monkeypatch, small):
        calls = _recorded(monkeypatch, "_qags")
        verify.norm_table(small)
        self.assert_matches_quad(calls)

    def test_seeded_random_states(self, monkeypatch):
        calls = _recorded(monkeypatch, "_qags")
        rng = random.Random(20260)
        for _ in range(50):
            p = RelativeProblem.from_parameters(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5),
                                                rng.uniform(-2.5, 2.5))
            quad_norm(QuantumNumbers(rng.randint(0, 5), rng.randint(-5, 5)), p)
        self.assert_matches_quad(calls)

    @pytest.mark.parametrize("f", [lambda x: x ** -0.5, math.log, lambda x: x ** -0.9],
                             ids=["inv_sqrt", "log", "x^-0.9"])
    @pytest.mark.parametrize("limit", [200, 50, 10])
    def test_endpoint_singularities_extrapolate(self, monkeypatch, f, limit):
        extrapolations = _recorded(monkeypatch, "_qelg")
        ours = oracle_mod._qags(f, 0.0, 1.0, 1e-10, 1e-10, limit)
        assert extrapolations
        assert _bits(ours) == _bits(_scipy_quad(f, 0.0, 1.0, 1e-10, 1e-10, limit))

    @pytest.mark.parametrize("f,limit", [(lambda x: math.sin(1.0 / x), 10),
                                         (lambda x: x ** -0.9, 3)],
                             ids=["sin(1/x)", "x^-0.9"])
    def test_running_out_of_intervals(self, f, limit):
        ours = oracle_mod._qags(f, 0.0, 1.0, 1e-10, 1e-10, limit)
        value, err, info, *_ = _scipy_quad(f, 0.0, 1.0, 1e-10, 1e-10, limit, full_output=1)
        assert info["last"] == limit  # QUADPACK's ier = 1
        assert _bits(ours) == _bits((value, err))

    def test_invalid_tolerances_are_refused(self):
        with pytest.raises(ValueError, match="positive tolerance"):
            oracle_mod._qags(math.exp, 0.0, 1.0, 0.0, 1e-20, 50)


def _step(x):
    return -1.0 if x < 0.5 else 1.0


class TestBrent:
    def test_matches_brentq_on_every_shooting_call(self, monkeypatch):
        calls = _recorded(monkeypatch, "_brent")
        for mu, kappa, alpha, m, n_r in verify.shooting_grid(small=False):
            shoot_with_nodes(RelativeProblem.from_parameters(mu, kappa, alpha), m, n_r)
        assert calls
        for (f, xa, xb, xtol, rtol), ours in calls:
            theirs = scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol)
            assert ours.hex() == theirs.hex(), (xa, xb)

    @pytest.mark.parametrize("xa,xb,root", [(1.0, 3.0, 1.0), (-2.0, 1.0, 1.0)])
    def test_an_end_where_f_is_zero_is_the_root(self, xa, xb, root):
        assert oracle_mod._brent(lambda x: x - 1.0, xa, xb, 1e-12, 1e-10) == root

    def test_same_sign_bracket_is_a_domain_error(self):
        with pytest.raises(DomainError, match="no sign change"):
            oracle_mod._brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-10)

    def test_nonconvergence_is_a_domain_error(self):
        # bisecting [-1e300, 1e300] down to the jump takes over 1000 steps
        rtol = 4.0 * sys.float_info.epsilon
        with pytest.raises(RuntimeError, match="Failed to converge"):
            scipy.optimize.brentq(_step, -1e300, 1e300, xtol=1e-320, rtol=rtol)
        with pytest.raises(DomainError, match="did not converge in 100 iterations"):
            oracle_mod._brent(_step, -1e300, 1e300, 1e-320, rtol)


def test_ode_path_is_independent_of_hypergeometric_code():
    # the shooting solver must not touch the confluent hypergeometric series;
    # only quad_norm goes through the wavefunction evaluation
    src = inspect.getsource(oracle_mod)
    assert "kummer" not in src
    assert "specfn" not in src


# repr(shoot_with_nodes(...)) recorded before the node counts stopped at the
# sign lock and the outward legs were shared: the small verify grid, then the
# states of test_bracket_end_on_eigenvalue.
GOLDEN_SHOTS = [
    ((0.0, -1, 0), "(-0.22222222226515864, 0)"),
    ((0.0, -1, 1), "(-0.08, 1)"),
    ((0.0, 0, 0), "(-2.0, 0)"),
    ((0.0, 0, 1), "(-0.2222222222222222, 1)"),
    ((0.0, 1, 0), "(-0.22222222226515864, 0)"),
    ((0.0, 1, 1), "(-0.08, 1)"),
    ((0.5, -1, 0), "(-0.5000000000561182, 0)"),
    ((0.5, -1, 1), "(-0.125, 1)"),
    ((0.5, 0, 0), "(-0.5000000000561182, 0)"),
    ((0.5, 0, 1), "(-0.125, 1)"),
    ((0.5, 1, 0), "(-0.12500000001521985, 0)"),
    ((0.5, 1, 1), "(-0.05555555555555555, 1)"),
    ((0.25, 0, 2), "(-0.06611570247933884, 2)"),
    ((0.25, 2, 1), "(-0.035555555555555556, 1)"),
    ((0.5, -1, 2), "(-0.05555555555555555, 2)"),
    ((0.5, 0, 2), "(-0.05555555555555555, 2)"),
    ((0.5, 2, 1), "(-0.03125, 1)"),
    ((0.75, -1, 2), "(-0.06611570247933884, 2)"),
]


@pytest.mark.parametrize("state,expected", GOLDEN_SHOTS)
def test_shooting_golden_bits(state, expected):
    nu, m, n_r = state
    assert repr(shoot_with_nodes(problem(nu), m, n_r)) == expected


def _growth_stop_nodes(w, e, x0, x1, y0, dy0, tol=1e-10):
    """Node count of the outward shot under the earlier stop rule, as the
    reference: the shot runs until log |R| has grown 60 e-folds past its
    value at the outer turning point, with the same Cash-Karp steps."""
    w2 = w * w
    te = 2.0 * e
    x, y, dy = x0, y0, dy0
    h = 1e-4
    nodes = 0
    log_scale = 0.0
    x_tp = math.log(oracle_mod._outer_turning_point(e, w))
    log_at_tp = None

    def q(s):
        return w2 - 2.0 * s - te * s * s

    while x1 - x > 0.0:
        last = x + h - x1 >= 0.0
        if last:
            h = x1 - x
        k1y, k1d = dy, q(math.exp(x)) * y
        yy, dd = y + h * 0.2 * k1y, dy + h * 0.2 * k1d
        k2y, k2d = dd, q(math.exp(x + 0.2 * h)) * yy
        yy = y + h * (3.0 / 40.0 * k1y + 9.0 / 40.0 * k2y)
        dd = dy + h * (3.0 / 40.0 * k1d + 9.0 / 40.0 * k2d)
        k3y, k3d = dd, q(math.exp(x + 0.3 * h)) * yy
        yy = y + h * (0.3 * k1y + -0.9 * k2y + 1.2 * k3y)
        dd = dy + h * (0.3 * k1d + -0.9 * k2d + 1.2 * k3d)
        k4y, k4d = dd, q(math.exp(x + 0.6 * h)) * yy
        yy = y + h * (-11.0 / 54.0 * k1y + 2.5 * k2y + -70.0 / 27.0 * k3y
                      + 35.0 / 27.0 * k4y)
        dd = dy + h * (-11.0 / 54.0 * k1d + 2.5 * k2d + -70.0 / 27.0 * k3d
                       + 35.0 / 27.0 * k4d)
        k5y, k5d = dd, q(math.exp(x + h)) * yy
        yy = y + h * (1631.0 / 55296.0 * k1y + 175.0 / 512.0 * k2y
                      + 575.0 / 13824.0 * k3y + 44275.0 / 110592.0 * k4y
                      + 253.0 / 4096.0 * k5y)
        dd = dy + h * (1631.0 / 55296.0 * k1d + 175.0 / 512.0 * k2d
                       + 575.0 / 13824.0 * k3d + 44275.0 / 110592.0 * k4d
                       + 253.0 / 4096.0 * k5d)
        k6y, k6d = dd, q(math.exp(x + 0.875 * h)) * yy
        y5 = y + h * (37.0 / 378.0 * k1y + 250.0 / 621.0 * k3y
                      + 125.0 / 594.0 * k4y + 512.0 / 1771.0 * k6y)
        d5 = dy + h * (37.0 / 378.0 * k1d + 250.0 / 621.0 * k3d
                       + 125.0 / 594.0 * k4d + 512.0 / 1771.0 * k6d)
        y4 = y + h * (2825.0 / 27648.0 * k1y + 18575.0 / 48384.0 * k3y
                      + 13525.0 / 55296.0 * k4y + 277.0 / 14336.0 * k5y + 0.25 * k6y)
        d4 = dy + h * (2825.0 / 27648.0 * k1d + 18575.0 / 48384.0 * k3d
                       + 13525.0 / 55296.0 * k4d + 277.0 / 14336.0 * k5d + 0.25 * k6d)
        scale = abs(y5) + abs(h * d5) + 1e-300
        err = max(abs(y5 - y4), abs(h * (d5 - d4))) / (scale * tol)
        if err <= 1.0:
            x = x1 if last else x + h
            prev = y
            y, dy = y5, d5
            if prev != 0.0 and y != 0.0 and (prev < 0.0) != (y < 0.0):
                nodes += 1
            big = max(abs(y), abs(dy))
            if big > 1e100:
                y /= big
                dy /= big
                log_scale += math.log(big)
            log_mag = math.log(max(abs(y), abs(dy), 1e-300)) + log_scale
            if log_at_tp is None and x >= x_tp:
                log_at_tp = log_mag
            elif log_at_tp is not None and log_mag > log_at_tp + 60.0:
                break
        h *= max(0.2, min(5.0, 0.9 * err**-0.2)) if err > 0.0 else 5.0
    return nodes


@pytest.mark.parametrize("w", [0.0, 0.25, 0.5, 1.25, 2.75])
@pytest.mark.parametrize("n_r", [0, 1, 2, 3])
def test_sign_lock_stop_keeps_node_counts(w, n_r):
    # the node count may stop once R and R_x share a sign past the turning
    # point; it must agree with running on to 60 e-folds of growth.  At
    # factor 1.0, e_guess is the eigenvalue itself (the first narrowing
    # midpoint), and within about 1e-11 of it the count is roundoff under
    # either rule: the two agree there on this grid only.  On the eigenvalue
    # they are known to differ for some n_r = 4 states with w >= 3.3, so a
    # different libm could flip the 1.0 case without a real regression.
    e_guess = -0.5 / (n_r + w + 0.5) ** 2
    alpha = math.sqrt(-8.0 * e_guess)
    s0 = oracle_mod._R_START / alpha
    x1 = math.log(oracle_mod._R_MAX * oracle_mod._outer_turning_point(e_guess, w))
    c1 = -2.0 / (2.0 * w + 1.0)
    start = (math.log(s0), x1, 1.0 + c1 * s0, w * (1.0 + c1 * s0) + c1 * s0)
    nodes_at = oracle_mod._shots(w, e_guess)[0]
    factors = [1.5, 1.3, 1.1, 1.0, 0.9, 0.7, 0.5,
               1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-10, 1.0 - 1e-10]
    for f in factors:
        e = f * e_guess
        assert nodes_at(e) == _growth_stop_nodes(w, e, *start), f
