import collections
import inspect
import math
import random

import mpmath as mp
import pytest

import abc2d.oracle as oracle_mod
from abc2d import verify
from abc2d.bound import QuantumNumbers, effective_exponent, energy
from abc2d.errors import DomainError
from abc2d.oracle import quad_norm, shoot_with_nodes
from abc2d.reduction import RelativeProblem

E_NU025_M_MINUS1_NR1 = -0.098765432098765432  # -1/(2 * 2.25^2) = -8/81
# (nu, m, n_r) at mu = kappa = 1 where the closed-form energy, an end of
# the root bracket, sits so close to the eigenvalue that its Wronskian is
# integration noise; there a node count taken apart from the Wronskian
# disagreed with the Wronskian's sign
BRACKET_END_STATES = [
    (0.25, 0, 2), (0.25, 2, 1), (0.5, -1, 2), (0.5, 0, 2), (0.5, 2, 1), (0.75, -1, 2),
]


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

    # at w = |m + nu| near 14 and above, R grows by over a hundred orders
    # of magnitude on the way out, while v = R_x / R stays near w; the last
    # state takes mu and kappa away from 1
    @pytest.mark.parametrize("nu,m,n_r,mu,kappa", [
        (0.0, 1, 2, 1.0, 1.0), (0.25, -2, 1, 1.0, 1.0), (0.75, 0, 2, 1.0, 1.0),
        (0.25, 14, 0, 1.0, 1.0), (0.25, 20, 1, 1.0, 1.0), (0.25, -1, 1, 1.3, 0.7),
    ])
    def test_node_counts(self, nu, m, n_r, mu, kappa):
        p = problem(nu, mu, kappa)
        e, nodes = shoot_with_nodes(p, m, n_r)
        assert nodes == n_r
        assert e == pytest.approx(energy(QuantumNumbers(n_r, m), p), rel=1e-9)

    # The first node-count midpoint is the closed-form energy, so one end of
    # the root bracket sits on the eigenvalue, where the Wronskian is
    # integration noise of either sign; the node count follows that sign,
    # so the bracket's ends still differ in sign.
    @pytest.mark.parametrize("nu,m,n_r", BRACKET_END_STATES)
    def test_bracket_end_on_eigenvalue(self, nu, m, n_r):
        p = problem(nu)
        e, nodes = shoot_with_nodes(p, m, n_r)
        assert nodes == n_r
        assert e == pytest.approx(energy(QuantumNumbers(n_r, m), p), rel=1e-9)

    def test_no_shot_returns_the_closed_form(self):
        # the closed-form energy is an end of every root bracket, and a shot
        # that returned it bit for bit would witness nothing
        states = [*verify.shooting_grid(small=True), *verify.shooting_grid(small=False),
                  *BRACKET_END_STATES]
        for nu, m, n_r in states:
            p = problem(nu)
            e = shoot_with_nodes(p, m, n_r)[0]
            assert e != energy(QuantumNumbers(n_r, m), p), (nu, m, n_r)

    def test_strongly_curved_wronskian(self):
        # W at this state's closed-form end is 2.8e-11 and 3.7e-3 at the far
        # end of the bracket, but its local slope is 480 times the average:
        # a secant through both ends put the shot 1.89e-9 off, while the
        # zero of W lies 3.9e-12 from the closed form
        p = RelativeProblem.from_parameters(0.96591, 0.50516, 1.95256)
        e, nodes = shoot_with_nodes(p, 0, 5)
        assert nodes == 5
        assert e == pytest.approx(energy(QuantumNumbers(5, 0), p), rel=2e-10)

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
        # node-count bisection alone took 37 integrations per state, and node
        # counts taken apart from the matching Wronskian took up to 12; one
        # matching shot per trial energy is one outward and one inward leg.
        # Narrowing on to a window at most |e_guess| / 2 wide, a width the
        # first halving already gives but for rounding, took the full grid's
        # 60 rows to 203 outward legs.
        calls = collections.Counter()
        riccati = oracle_mod._riccati

        def counting(w, e, s0, s1, v0):
            calls["outward" if s1 > s0 else "inward"] += 1
            return riccati(w, e, s0, s1, v0)

        monkeypatch.setattr(oracle_mod, "_riccati", counting)
        total = 0
        for nu, m, n_r in verify.shooting_grid(small=False):
            calls.clear()
            shoot_with_nodes(problem(nu), m, n_r)
            assert calls["outward"] <= 4, (nu, m, n_r)
            assert calls["inward"] <= 4, (nu, m, n_r)
            total += calls["outward"]
        assert total <= 194

    def test_each_outward_leg_is_integrated_once(self, monkeypatch):
        # a trial energy's node count and Wronskian share one leg from s0
        calls = []
        riccati = oracle_mod._riccati

        def counting(*args):
            calls.append(args)
            return riccati(*args)

        monkeypatch.setattr(oracle_mod, "_riccati", counting)
        for nu, m, n_r in verify.shooting_grid(small=True):
            calls.clear()
            shoot_with_nodes(problem(nu), m, n_r)
            starts = collections.Counter(args[1] for args in calls if args[2] < args[3])
            assert max(starts.values()) == 1, (nu, m, n_r, starts)

    def test_nontrivial_units(self):
        p = problem(0.5, mu=2.5, kappa=0.6)
        e = shoot_with_nodes(p, 0, 0)[0]
        closed = -p.reduced_mass * p.kappa**2 / (2.0 * 1.0**2)
        assert e == pytest.approx(closed, rel=1e-6)

    def test_step_budget(self, monkeypatch):
        # the shots verify takes on the small grid, one per distinct
        # (|m + nu|, n_r): the stepper makes one fabs call per step attempt
        # and no exp, in at most 9,249 attempts; exactly 8,104, as README
        # states, pins the step sequence itself
        shots = {(effective_exponent(m, nu), n_r): (nu, m, n_r)
                 for nu, m, n_r in verify.shooting_grid(small=True)}
        assert len(shots) == 8
        counting = _CountingMath()
        monkeypatch.setattr(oracle_mod, "math", counting)
        for nu, m, n_r in shots.values():
            shoot_with_nodes(problem(nu), m, n_r)
        assert counting.exps == 0
        assert 0 < counting.fabs_calls <= 9_249
        assert counting.fabs_calls == 8_104

    @pytest.mark.parametrize("w,e,attempts", [(1.0, math.nan, 19), (math.nan, -0.1, 17)])
    def test_nan_legs_refuse_within_a_step_budget(self, w, e, attempts, monkeypatch):
        # every stage is NaN, so each error estimate is NaN and must shrink
        # the step by 0.2 until it underflows; a step factor that let the
        # NaN through would never underflow
        counting = _CountingMath(limit=100)
        monkeypatch.setattr(oracle_mod, "math", counting)
        with pytest.raises(DomainError) as exc:
            oracle_mod._riccati(w, e, 40.0, 10.0, -1.0)
        assert str(exc.value) == "step size underflow in radial integration"
        assert counting.fabs_calls == attempts

    def test_flipped_square_term_fails_the_shooting_check(self, monkeypatch):
        # the legs with the sign of v^2 flipped in v_s = (q - v^2) / s
        # integrate another equation; the small grid must end in a
        # DomainError or a failing shooting row, within ten times the step
        # attempts the unmutated legs make on it
        src = inspect.getsource(oracle_mod._riccati)
        for term in ["(q1 - y * y)", "(q - yy * yy)", "(q5 - yy * yy)"]:
            assert term in src
            src = src.replace(term, term.replace("-", "+"))
        namespace = dict(vars(oracle_mod), math=_CountingMath(limit=10 * 9_249))
        exec(src, namespace)
        monkeypatch.setattr(oracle_mod, "_riccati", namespace["_riccati"])
        try:
            result = verify.check_shooting(verify.shooting_report(True, verify.norm_table(True)))
        except DomainError:
            return
        assert not result.passed

    # an inward leg started 12 nominal e-folds k (s - s_tp) past the turning
    # point, instead of at the action bound, fails 11 of these 12 states
    @pytest.mark.parametrize("m", [5, -8, 12, 20, 30, 45])
    @pytest.mark.parametrize("n_r", [0, 3])
    def test_large_m(self, m, n_r):
        p = problem(0.3)
        e, nodes = shoot_with_nodes(p, m, n_r)
        assert nodes == n_r
        assert e == pytest.approx(energy(QuantumNumbers(n_r, m), p), rel=1e-8)


class _CountingMath:
    """The math module, counting calls to exp and fabs; more than limit
    fabs calls fail the test."""

    def __init__(self, limit=math.inf):
        self.exps = 0
        self.fabs_calls = 0
        self.limit = limit

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.exps += 1
        return math.exp(x)

    def fabs(self, x):
        self.fabs_calls += 1
        assert self.fabs_calls <= self.limit, "step attempt budget exceeded"
        return math.fabs(x)


class TestLegEnds:
    @pytest.mark.parametrize("w", [0.25, 1.0, 2.75, 12.0, 45.0])
    @pytest.mark.parametrize("factor", [1.5, 1.0, 0.5])
    def test_series_start_matches_integration_from_the_origin(self, w, factor, monkeypatch):
        # (R, R_x) at the outward start, from the Frobenius series and from
        # the Riccati leg run out from the two-term start at 1e-6 / alpha.
        # At the shooting tolerance that path is itself off the series by up
        # to 2.5e-12 (the series is within 1.4e-16 of a 50-digit sum), so it
        # runs here at 1e-13.
        monkeypatch.setattr(oracle_mod, "_ODE_TOL", 1e-13)
        e_guess = -0.5 / (w + 0.5) ** 2
        e = factor * e_guess
        s_tiny = oracle_mod._R_START / math.sqrt(-8.0 * e_guess)
        s0 = oracle_mod._outward_start(w, e_guess)
        assert s0 > 1e3 * s_tiny
        c1 = -2.0 / (2.0 * w + 1.0)
        nodes, y, inverted = oracle_mod._riccati(w, e, s_tiny, s0,
                                                 w + c1 * s_tiny / (1.0 + c1 * s_tiny))
        assert nodes == 0
        r, rx = oracle_mod._leg_end(nodes, y, inverted)
        ys, dys = oracle_mod._regular_series(w, e, s0)
        assert abs(r * dys - rx * ys) / math.hypot(ys, dys) <= 1e-11

    def test_w_zero_keeps_the_tiny_start(self):
        e_guess = -2.0
        assert oracle_mod._outward_start(0.0, e_guess) == oracle_mod._R_START / 4.0

    @pytest.mark.parametrize("w", [0.0, 0.25, 2.75, 12.0, 45.0])
    @pytest.mark.parametrize("n_r", [0, 3])
    @pytest.mark.parametrize("factor", [1.5, 1.0, 0.5])
    def test_tail_starts_past_the_action_bound(self, w, n_r, factor):
        # the WKB action from the outer turning point to the inward start,
        # by a fine midpoint sum, is at least _TAIL_ACTION
        e_guess = -0.5 / (n_r + w + 0.5) ** 2
        e = factor * e_guess
        s_tp = oracle_mod._outer_turning_point(e, w)
        s_in = oracle_mod._tail_start(e, w)
        assert s_tp < s_in
        n = 20_000
        h = (s_in - s_tp) / n
        action = h * math.fsum(
            math.sqrt(max(-2.0 * e - 2.0 / s + w * w / (s * s), 0.0))
            for s in (s_tp + (j + 0.5) * h for j in range(n)))
        assert oracle_mod._TAIL_ACTION <= action < 4.0 * oracle_mod._TAIL_ACTION

    @pytest.mark.parametrize("w", [0.0, 0.25, 1.0, 2.75, 12.0, 45.0])
    @pytest.mark.parametrize("factor", [1.5, 1.0, 0.5])
    def test_legs_match_whittaker_functions(self, w, factor, monkeypatch):
        # (R, R_x) of each leg at the outer turning point, the inward one
        # from the WKB slope at the tail start and the outward one from the
        # series start, against mpmath's Whittaker functions, and the
        # outward leg's zeros.  The error is the sine of the angle between
        # the two (R, R_x).  At the shooting tolerance the inward legs are
        # within 4.6e-11 and the outward within 4.9e-10, at w = 45, e =
        # e_guess / 2, past 19 zeros; at 1e-13 both are within 5.7e-12.
        e_guess = -0.5 / (w + 0.5) ** 2
        e = factor * e_guess
        s_tp = oracle_mod._outer_turning_point(e, w)
        s_in = oracle_mod._tail_start(e, w)
        s0 = oracle_mod._outward_start(w, e_guess)
        v_in, v_out, zeros = _whittaker_legs(w, e, s_tp)

        def errors():
            nodes, y, inverted = oracle_mod._riccati(
                w, e, s_in, s_tp, -math.sqrt(w * w - 2.0 * s_in - 2.0 * e * s_in * s_in))
            assert nodes == 0 and y < 0.0
            r, rx = oracle_mod._leg_end(nodes, y, inverted)
            inward = abs(r * v_in - rx) / math.hypot(1.0, v_in)
            ys, dys = oracle_mod._regular_series(w, e, s0)
            nodes, y, inverted = oracle_mod._riccati(w, e, s0, s_tp, dys / ys)
            assert nodes == zeros
            r, rx = oracle_mod._leg_end(nodes, y, inverted)
            return inward, abs(r * v_out - rx) / math.hypot(1.0, v_out)

        inward, outward = errors()
        assert inward <= 1e-10
        assert outward <= 1e-9
        monkeypatch.setattr(oracle_mod, "_ODE_TOL", 1e-13)
        assert max(errors()) <= 1e-11



def _whittaker_legs(w, e, s):
    """v = R_x / R at s of the solution that decays outward and of the
    regular one, and the regular one's zeros on (0, s], from mpmath.

    With k = sqrt(-2e), kappa = 1/k and z = 2ks the two are
    W_{kappa,w}(z) / sqrt(s) and M_{kappa,w}(z) / sqrt(s), so v is
    z W'/W - 1/2 and z M'/M - 1/2, with z W' = (z/2 - kappa) W - W_{kappa+1,w}
    and z M' = (z/2 - kappa) M + (1/2 + w + kappa) M_{kappa+1,w} (DLMF
    13.15).  M is e^{-z/2} z^{w+1/2} 1F1(a; 2w + 1; z), a = w + 1/2 - kappa,
    which has ceil(-a) positive zeros for a < 0 and none otherwise (DLMF
    13.9(i)), and the sign (-1)^ceil(-a) far out.  Past s, the outer
    turning point, R crosses zero at most once, and does so exactly where
    its sign at s is not that one.
    """
    with mp.workdps(30):
        k = mp.sqrt(-2 * mp.mpf(e))
        kappa, z = 1 / k, 2 * k * mp.mpf(s)
        base = z / 2 - kappa - mp.mpf(1) / 2
        regular = mp.whitm(kappa, w, z)
        v_in = base - mp.whitw(kappa + 1, w, z) / mp.whitw(kappa, w, z)
        v_out = base + (mp.mpf(1) / 2 + w + kappa) * mp.whitm(kappa + 1, w, z) / regular
        a = w + mp.mpf(1) / 2 - kappa
        total = int(mp.ceil(-a)) if a < 0 else 0
        zeros = total - ((regular < 0) != (total % 2 == 1))
    return float(v_in), float(v_out), zeros


class TestQuadNorm:
    def test_coulomb_ground(self):
        assert quad_norm(QuantumNumbers(0, 0), problem(0.0)) == pytest.approx(1.0, abs=1e-6)

    def test_half_flux_ground(self):
        assert quad_norm(QuantumNumbers(0, 0), problem(0.5)) == pytest.approx(1.0, abs=1e-6)

    def test_excited_states(self):
        p = problem(0.75)
        for qn in (QuantumNumbers(2, 0), QuantumNumbers(1, -2), QuantumNumbers(0, 3)):
            assert quad_norm(qn, p) == pytest.approx(1.0, abs=1e-6)

    # QUADPACK's adaptive rule on u = rho / (1 + rho) reached 5.8e-13 on the
    # full norm table and 6.6e-13 on the seeded states
    def test_full_norm_table_is_accurate(self):
        norms = verify.norm_table(False)
        assert len(norms) == 100
        assert max(abs(norm - 1.0) for norm in norms.values()) <= 1e-13

    def test_seeded_random_states_are_accurate(self):
        rng = random.Random(20260)
        for _ in range(50):
            p = RelativeProblem.from_parameters(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5),
                                                rng.uniform(-2.5, 2.5))
            qn = QuantumNumbers(rng.randint(0, 5), rng.randint(-5, 5))
            assert abs(quad_norm(qn, p) - 1.0) <= 1e-13, (qn, p)

    def test_evaluation_budget(self, monkeypatch):
        # QUADPACK took 3,864 integrand evaluations on the small norm table,
        # the trapezoid rule 3,090
        calls = []
        wavefunction = oracle_mod.wavefunction

        def counting(qn, p):
            psi = wavefunction(qn, p)

            def counted(r, theta):
                calls.append(r)
                return psi(r, theta)

            return counted

        monkeypatch.setattr(oracle_mod, "wavefunction", counting)
        verify.norm_table(True)
        assert len(calls) < 3864

    def test_trapezoid_integrates_a_gaussian(self):
        value, err = oracle_mod._trapezoid(lambda x: math.exp(-x * x), -8.0, 8.0)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert err <= 1e-10 * value

    # integrals over the whole line, in the shape of the norm integrand:
    # e^{s x - e^x} is Gamma(s), with the e^{s x} left tail of rho^{2w+2}
    # at s = 2w + 2; sech^2 has poles at Im x = +-pi/2, as the norm does
    @pytest.mark.parametrize("f,a,b,exact", [
        (lambda x: math.exp(0.3 * x - math.exp(x)), -40.0 / 0.3, math.log(100.0),
         math.gamma(0.3)),
        (lambda x: math.exp(x - math.exp(x)), -40.0, math.log(100.0), 1.0),
        (lambda x: math.exp(2.5 * x - math.exp(x)), -16.0, math.log(100.0), math.gamma(2.5)),
        (lambda x: math.exp(6.0 * x - math.exp(x)), -40.0 / 6.0, math.log(100.0), 120.0),
        (lambda x: 1.0 / math.cosh(x) ** 2, -40.0, 40.0, 2.0),
    ], ids=["gamma(0.3)", "gamma(1)", "gamma(2.5)", "gamma(6)", "sech^2"])
    def test_trapezoid_closed_forms(self, f, a, b, exact):
        value, err = oracle_mod._trapezoid(f, a, b)
        assert value == pytest.approx(exact, rel=1e-13)
        assert err <= oracle_mod._TRAPEZOID_RTOL * value

    def test_trapezoid_evaluates_each_point_once(self):
        points = []

        def f(x):
            points.append(x)
            return math.exp(-x * x)

        oracle_mod._trapezoid(f, -8.0, 8.0)
        assert len(points) == len(set(points))
        panels = len(points) - 1
        assert panels >= 2 * oracle_mod._TRAPEZOID_PANELS
        assert panels & (panels - 1) == 0  # a power of two: only halvings

    def test_trapezoid_stops_at_the_panel_cap(self):
        # a jump inside the range keeps |T(h) - T(2h)| near h
        points = []

        def step(x):
            points.append(x)
            return -1.0 if x < 1.0 / 3.0 else 1.0

        value, err = oracle_mod._trapezoid(step, 0.0, 1.0)
        assert len(points) == oracle_mod._TRAPEZOID_MAX_PANELS + 1
        assert err > oracle_mod._TRAPEZOID_RTOL
        assert value == pytest.approx(1.0 / 3.0, abs=1e-3)

    # fractional w down to 0.1, large w, where the left end x = -40/(2w+2)
    # nears 0, and n_r up to 6, where rho = 8 lambda + 60 cuts the right tail
    @pytest.mark.parametrize("nu,m,n_r,mu,kappa", [
        (0.0, 0, 0, 1.7, 0.8), (0.9, -1, 0, 1.7, 0.8), (0.25, -1, 3, 1.7, 0.8),
        (0.5, 2, 6, 1.7, 0.8), (0.75, -3, 6, 1.7, 0.8), (0.25, 14, 0, 1.7, 0.8),
        (0.25, 20, 1, 1.7, 0.8), (0.25, -1, 1, 1.3, 0.7),
    ])
    def test_single_states_are_accurate(self, nu, m, n_r, mu, kappa):
        p = problem(nu, mu, kappa)
        assert abs(quad_norm(QuantumNumbers(n_r, m), p) - 1.0) <= 1e-13

    @pytest.mark.parametrize("n_r,m", [(0, 0), (3, 2)])
    def test_decay_rate_from_mu_kappa_over_lambda(self, n_r, m):
        # E = -mu kappa^2 / (2 lambda^2) is subnormal here, and alpha taken as
        # sqrt(-8 mu E) put the norms at 1.0000111 and 0.99952
        p = problem(0.5, mu=1e-10, kappa=1e-150)
        assert abs(quad_norm(QuantumNumbers(n_r, m), p) - 1.0) <= 1e-12


class TestIllinois:
    @pytest.mark.parametrize("a,b,root", [(1.0, 3.0, 1.0), (-2.0, 1.0, 1.0)])
    def test_an_end_where_f_is_zero_is_the_root(self, a, b, root):
        def f(x):
            raise AssertionError("f evaluated")

        assert oracle_mod._illinois(f, a, a - 1.0, b, b - 1.0, 1e-12, 1e-10) == root

    def test_linear_f_is_exact_after_one_step(self):
        points = []

        def f(x):
            points.append(x)
            return 2.0 * x - 3.0

        assert oracle_mod._illinois(f, -1.0, -5.0, 4.0, 5.0, 1e-12, 1e-10) == 1.5
        assert points == [1.5]

    def test_cube_root_of_two(self):
        points = []

        def f(x):
            points.append(x)
            return x ** 3 - 2.0

        xtol, rtol = 1e-12, 1e-10
        root = 2.0 ** (1.0 / 3.0)
        x = oracle_mod._illinois(f, 0.0, -2.0, 2.0, 6.0, xtol, rtol)
        assert abs(x - root) <= 2.0 * (xtol + rtol * root)
        assert len(points) <= 12

    def test_far_end_is_halved_at_the_first_repeat(self):
        # a is near the root of the convex x^2 - 2, so the secant points from
        # b = 3 land on a's side; with a counted as the end last replaced,
        # f(b) is halved at the first step that keeps b, and the root is
        # bracketed after two evaluations instead of the textbook rule's four
        points = []

        def f(x):
            points.append(x)
            return x * x - 2.0

        a = 1.41421
        x = oracle_mod._illinois(f, a, a * a - 2.0, 3.0, 7.0, 1e-12, 1e-10)
        assert abs(x - math.sqrt(2.0)) <= 2.0 * (1e-12 + 1e-10 * x)
        assert len(points) == 4


def test_ode_path_is_independent_of_hypergeometric_code():
    # the shooting solver must not touch the confluent hypergeometric series;
    # only quad_norm goes through the wavefunction evaluation
    src = inspect.getsource(oracle_mod)
    assert "kummer" not in src
    assert "specfn" not in src


# repr(shoot_with_nodes(...)) on the small verify grid, then the states of
# test_bracket_end_on_eigenvalue.  All eighteen were re-recorded when the
# inward leg became the Riccati equation for R_s / R in s: every node count
# stayed, and the largest rel_err fell from 1.17e-10 to 5.67e-11 (at
# (0.5, 0, 0)).  Seven of the twelve grid rows moved away from their closed
# form, the most from 3.6e-12 to 3.9e-11 at (0.0, 0, 1), all below the new
# largest.
GOLDEN_SHOTS = [
    ((0.0, -1, 0), "(-0.22222222222221585, 0)"),
    ((0.0, -1, 1), "(-0.08000000000008156, 1)"),
    ((0.0, 0, 0), "(-1.9999999999928535, 0)"),
    ((0.0, 0, 1), "(-0.2222222222192728, 1)"),
    ((0.0, 1, 0), "(-0.22222222222221585, 0)"),
    ((0.0, 1, 1), "(-0.08000000000008156, 1)"),
    ((0.5, -1, 0), "(-0.5000000000018172, 0)"),
    ((0.5, -1, 1), "(-0.12499999999989773, 1)"),
    ((0.5, 0, 0), "(-0.5000000000018172, 0)"),
    ((0.5, 0, 1), "(-0.12499999999989773, 1)"),
    ((0.5, 1, 0), "(-0.12499999999992058, 0)"),
    ((0.5, 1, 1), "(-0.055555555555628536, 1)"),
    ((0.25, 0, 2), "(-0.0661157024793533, 2)"),
    ((0.25, 2, 1), "(-0.035555555555581785, 1)"),
    ((0.5, -1, 2), "(-0.05555555555557769, 2)"),
    ((0.5, 0, 2), "(-0.05555555555557769, 2)"),
    ((0.5, 2, 1), "(-0.03125000000003431, 1)"),
    ((0.75, -1, 2), "(-0.0661157024793533, 2)"),
]


@pytest.mark.parametrize("state,expected", GOLDEN_SHOTS)
def test_shooting_golden_bits(state, expected):
    nu, m, n_r = state
    assert repr(shoot_with_nodes(problem(nu), m, n_r)) == expected


# repr(_riccati(w, e, s0, s1, v0)) leg by leg, which GOLDEN_SHOTS sees only
# through the roots.  The first six are the outward and inward legs of the
# first small-grid shot at w = 0 (n_r = 1), 0.5 (n_r = 0) and 1.5 (n_r = 1),
# at e = e_guess; then an outward leg past five zeros, two legs that start
# as u = 1/v (|v0| > 1.25 sigma) and cross a zero, two short legs (3 and 7
# attempts) that end in a step clamped to s1, and the outward leg of the
# w = 12 ground state, whose v = 12 - s / 12.5 is linear in s and takes 5.
GOLDEN_LEGS = [
    ((0.0, -0.2222222222222222, 7.5e-07, 4.5, -1.500001000001e-06),
     "(1, -0.5555555555961238, True)"),
    ((0.0, -0.2222222222222222, 47.13256414560601, 4.5, -29.88408765944726),
     "(0, -0.5555555555465467, True)"),
    ((0.5, -0.5, 0.03349364905389034, 1.8660254037844386, 0.4665063509461097),
     "(0, -1.3660254037844375, False)"),
    ((0.5, -0.5, 30.287734834188445, 1.8660254037844386, -29.27492803949713),
     "(0, -0.7320508075797594, True)"),
    ((1.5, -0.05555555555555555, 0.30144284148501305, 16.794228634059948, 1.3466209537055362),
     "(1, -0.3933564276709957, True)"),
    ((1.5, -0.05555555555555555, 102.05935692527197, 16.794228634059948, -30.910792633974523),
     "(0, -0.39335642767833034, True)"),
    ((0.5, -0.015625, 0.03137303340311411, 63.874754901018456, 0.46830406037228645),
     "(5, 0.6120588336438211, True)"),
    ((1.0, -0.1, 2.0, 12.0, 40.0), "(1, 0.15251460587908472, True)"),
    ((1.0, -0.1, 12.0, 2.0, -40.0), "(1, -0.11785423752005585, True)"),
    ((1.0, -0.1, 1.0, 1.05, 0.5), "(0, 0.4480601372562976, False)"),
    ((2.75, -0.02, 30.0, 29.0, -1.0), "(0, -0.4184368573111071, False)"),
    ((12.0, -0.0032, 24.0, 199.99999999999997, 10.079999999999995),
     "(0, -4.000000000082954, False)"),
]


@pytest.mark.parametrize("leg,expected", GOLDEN_LEGS)
def test_riccati_golden_bits(leg, expected):
    assert repr(oracle_mod._riccati(*leg)) == expected


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
def test_matched_shot_keeps_node_counts(w, n_r):
    # the node count may start at the series start and stop at the turning
    # point, taking any last node from the Wronskian's sign; it must agree
    # with a shot from the two-term start at 1e-6 / alpha run on to 60
    # e-folds of growth, and 5e-10 from the eigenvalue (e_guess, at factor
    # 1.0) both must give the exact count: n_r below it, n_r + 1 above.
    # Nearer than that the count is decided by the 1e-10 integration error:
    # on this grid the oracle's count changes where its Wronskian does, up
    # to 1.7e-10 from the eigenvalue (1.6e-10 for a count run on past the
    # turning point, 1.1e-10 with the old tiny start), and the reference's
    # up to 1.2e-10, so there the count is held only to rising from n_r to
    # n_r + 1 as e does.
    e_guess = -0.5 / (n_r + w + 0.5) ** 2
    alpha = math.sqrt(-8.0 * e_guess)
    s0 = oracle_mod._R_START / alpha
    x1 = math.log(60.0 * oracle_mod._outer_turning_point(e_guess, w))
    c1 = -2.0 / (2.0 * w + 1.0)
    start = (math.log(s0), x1, 1.0 + c1 * s0, w * (1.0 + c1 * s0) + c1 * s0)
    shot = oracle_mod._shots(w, e_guess)

    def nodes_at(e):
        return shot(e)[0]

    for f in [1.5, 1.3, 1.1, 0.9, 0.7, 0.5, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 5e-10, 1.0 - 5e-10]:
        e = f * e_guess
        assert nodes_at(e) == _growth_stop_nodes(w, e, *start), f
    band = [nodes_at(f * e_guess)
            for f in [1.0 + 1e-9, 1.0 + 5e-10, 1.0 + 1e-10, 1.0, 1.0 - 1e-10, 1.0 - 5e-10, 1.0 - 1e-9]]
    assert band == sorted(band) and band[:2] == [n_r] * 2 and band[-2:] == [n_r + 1] * 2, band


@pytest.mark.parametrize("w", [0.0, 0.25, 0.5, 1.25, 2.75])
@pytest.mark.parametrize("n_r", [0, 1, 2, 3])
def test_wronskian_sign_follows_the_node_count(w, n_r):
    # R starts positive and the inward solution has no node, so W has the
    # sign (-1)^nodes at every trial energy, and node counts n_r and n_r + 1
    # at the bracket ends give W a sign change between them.  Counted apart
    # from W, by a leg run on past the turning point, the count broke this
    # at the closed-form energy (factor 1.0) itself, where W is noise.
    e_guess = -0.5 / (n_r + w + 0.5) ** 2
    shot = oracle_mod._shots(w, e_guess)
    for f in [1.5, 1.3, 1.1, 0.9, 0.7, 0.5, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 5e-10, 1.0 - 5e-10,
              1.0 + 1e-10, 1.0 - 1e-10, 1.0]:
        nodes, wronskian = shot(f * e_guess)
        assert (wronskian < 0.0) == (nodes % 2 == 1), (f, nodes, wronskian)
