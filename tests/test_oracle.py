import inspect

import pytest

import abc2d.oracle as oracle_mod
from abc2d import verify
from abc2d.bound import QuantumNumbers, energy
from abc2d.errors import NoBoundStates, NoConvergence
from abc2d.oracle import ShootingConfig, quad_norm, shoot_with_nodes
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

    @pytest.mark.parametrize("nu,m,n_r", [(0.0, 1, 2), (0.25, -2, 1), (0.75, 0, 2)])
    def test_node_counts(self, nu, m, n_r):
        _, nodes = shoot_with_nodes(problem(nu), m, n_r)
        assert nodes == n_r

    def test_requires_attraction(self):
        with pytest.raises(NoBoundStates):
            shoot_with_nodes(problem(0.0, kappa=-1.0), 0, 0)

    def test_truncated_domain_fails_to_bracket(self):
        # r_max below the turning point keeps the discriminating node outside
        cfg = ShootingConfig(r_max=0.8)
        with pytest.raises(NoConvergence):
            shoot_with_nodes(problem(0.0), 0, 0, cfg)

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
        e, nodes = oracle_mod._solve_scaled(w, n_r, e_true * (1.0 + shift), ShootingConfig())
        assert nodes == n_r
        assert e == pytest.approx(e_true, rel=1e-9)

    def test_integration_budget(self, monkeypatch):
        # node-count bisection alone took 37 integrations per state
        calls = []
        integrate = oracle_mod._integrate

        def counting(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(oracle_mod, "_integrate", counting)
        for mu, kappa, alpha, m, n_r in verify.shooting_grid(small=True):
            before = len(calls)
            shoot_with_nodes(RelativeProblem.from_parameters(mu, kappa, alpha), m, n_r)
            assert len(calls) - before <= 16, (alpha, m, n_r)

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

    def test_amplitude_scaling_is_quadratic(self):
        v = quad_norm(QuantumNumbers(0, 0), problem(0.0), amplitude_scale=2.0)
        assert v == pytest.approx(4.0, abs=4e-6)

    def test_excited_states(self):
        p = problem(0.75)
        for qn in (QuantumNumbers(2, 0), QuantumNumbers(1, -2), QuantumNumbers(0, 3)):
            assert quad_norm(qn, p) == pytest.approx(1.0, abs=1e-6)


def test_ode_path_is_independent_of_hypergeometric_code():
    # the shooting solver must not touch the confluent hypergeometric series;
    # only quad_norm goes through the wavefunction evaluation
    src = inspect.getsource(oracle_mod)
    assert "kummer" not in src
    assert "specfn" not in src
