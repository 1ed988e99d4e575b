"""Every refusal of the library: rows (id, callable, args, patches, exception
type, exact message), a patch being a (module, name, value) set by monkeypatch.
A row hits the ``raise`` whose lines hold the innermost frame of its traceback,
and every ``raise`` in ``MODULES`` must be hit, so a new refusal needs a row.
The CLI's refusals are ``REFUSALS`` in ``tests/test_cli.py``."""

import ast
import functools
import itertools
import math
from pathlib import Path

import pytest

from abc2d import bound, oracle, reduction, scatter, specfn
from abc2d.bound import QuantumNumbers
from abc2d.errors import DomainError
from abc2d.reduction import ParticlePair, RelativeProblem
from abc2d.scatter import FORWARD_CONE, FluxCase, ScatteringParams

MODULES = (bound, oracle, reduction, scatter, specfn)
COULOMB, INTEGER, HALF = FluxCase.COULOMB_ONLY, FluxCase.INTEGER_FLUX, FluxCase.HALF_INTEGER
P_C, P_I, P_H = (ScatteringParams(1.0, 1.0, case) for case in (COULOMB, INTEGER, HALF))
QN00 = QuantumNumbers(0, 0)
ATTRACTION = "bound states require attraction (kappa > 0)"
GRID = "grid needs at least 2 points per axis"
INTERFERENCE = "interference term undefined at beta = 0"


def problem(nu, mu=1.0, kappa=1.0):
    return RelativeProblem.from_parameters(mu, kappa, nu)


def _inward(w, e):
    """Patches that match the legs at a twentieth of the outer turning point."""
    s_tp, s_in = oracle._outer_turning_point(e, w), oracle._tail_start(e, w)
    return ((oracle, "_outer_turning_point", lambda e, w: 0.05 * s_tp),
            (oracle, "_tail_start", lambda e, w: s_in))


class _StepBudget:
    """The math module for oracle, with a fabs that fails the test past 100
    calls.  _riccati reads math.fabs once per leg and calls it once per step
    attempt, so a leg that stopped refusing fails instead of running on."""

    def __getattr__(self, name):
        if name != "fabs":
            return getattr(math, name)
        calls = itertools.count(1)

        def fabs(x):
            assert next(calls) <= 100, "step attempt budget exceeded"
            return math.fabs(x)

        return fabs


LIBRARY_REFUSALS = [
    ("bound.QuantumNumbers", QuantumNumbers, (-1, 0), (), ValueError, "n_r must be non-negative"),
    *((f"bound.is_acceptable-nu={nu}", bound.is_acceptable, (QN00, 0, nu), (), ValueError,
       "nu must lie in [0, 1)") for nu in (-0.25, 1.0)),
    ("bound.energy", bound.energy, (QN00, problem(0.0, kappa=-1.0)), (), DomainError, ATTRACTION),
    ("bound.energy-irregular", bound.energy, (QuantumNumbers(1, 0), problem(2.0)), (),
     DomainError, "state (n_r=1, m=0) is not regular at the origin for m0=2, nu=0.0"),
    ("bound.spectrum", bound.spectrum, (problem(0.0, kappa=-2.0), 3), (), DomainError, ATTRACTION),
    # raised at the call: a plain generator function would raise only at the first next()
    *((f"bound.iter_levels-{n}", bound.iter_levels, (problem(nu), n), (), ValueError,
       "n_levels must be positive") for nu, n in ((0.5, 0), (0.3, -2))),
    *((f"bound.iter_levels-kappa={kappa}", bound.iter_levels, (problem(nu, kappa=kappa), 3), (),
       DomainError, ATTRACTION) for nu, kappa in ((0.0, -2.0), (0.7, 0.0))),
    *((f"bound.normalization_constant-{scale}", bound.normalization_constant,
       (QN00, RelativeProblem(scale, scale, 0.0)), (), DomainError,
       f"normalization: 4 mu kappa {outcome} at mu = {scale}, kappa = {scale}")
      for scale, outcome in ((1e-200, "underflows to 0"), (1e200, "overflows to inf"))),
    ("bound.wavefunction-phase",
     bound.wavefunction(QuantumNumbers(0, 10**300), RelativeProblem(1.0, 1.0, 0.0)),
     (1.0, 1e10), (), DomainError,
     f"the angular phase (m - m0) theta overflows at m = {10**300}, theta = 10000000000.0"),
    ("bound.wavefunction-r", bound.wavefunction(QN00, problem(0.0)), (-1e-300, 0.0), (),
     ValueError, "r must be non-negative"),
    *((f"bound.sample_bound_field-{points}", bound.sample_bound_field,
       (QN00, problem(0.0), (-1.0, 1.0), points), (), ValueError, GRID) for points in (0, 1)),
    ("oracle.shoot_with_nodes-repulsion", oracle.shoot_with_nodes,
     (problem(0.0, kappa=-1.0), 0, 0), (), DomainError,
     "shooting requires attraction (kappa > 0)"),
    ("oracle.shoot_with_nodes-n_r", oracle.shoot_with_nodes, (problem(0.3), 0, -1), (),
     ValueError, "n_r must be non-negative"),
    # with no narrowing step the window never holds level n_r alone
    ("oracle.shoot_with_nodes-narrowing", oracle.shoot_with_nodes, (problem(0.3), 0, 0),
     ((oracle, "_MAX_NARROWING", 0),), DomainError, "node counts never isolated level 0"),
    # the ground level at w = 0 is e = -2; a window [-0.75, -0.25] centred on
    # -0.5 holds only energies above it, where every count is 1
    ("oracle._solve_scaled", oracle._solve_scaled, (0.0, 0, -0.5), (), DomainError,
     "no eigenvalue bracket in [-0.75, -0.5]: node counts (1, 1) vs target 0"),
    # at s = 1e6 the terms grow for about a million terms before they fall
    ("oracle._regular_series", oracle._regular_series, (1.0, -0.5, 1e6), (), DomainError,
     "Frobenius series at s = 1000000.0 did not converge in 200 terms (w = 1.0, e = -0.5)"),
    # matched at a twentieth of the outer turning point, the solution that
    # decays outward has a maximum in the allowed region at these
    # non-eigenvalues, so v turns positive on the inward leg
    *((f"oracle._shots-w={w}", lambda w, e: oracle._shots(w, e)(e), (w, e), _inward(w, e),
       DomainError, f"inward log-derivative at s = {s} is not negative ({nodes} nodes, "
       f"v = {v}; w = {w}, e = {e})")
      for w, e, s, nodes, v in ((0.0, -0.125, 0.4, 1, 0.44137779415056055),
                                (0.25, -0.05, 0.9984350509344222, 2, -0.1557828795269024),
                                (2.75, -0.02, 2.293955818030629, 2, -1.149046171566083))),
    # a finite start such as -1e200 is no such case: carried as u = 1/v it is
    # a zero of R at the start, and a leg integrates it as one
    *((f"oracle._riccati-v0={v0}", oracle._riccati, (1.0, -0.1, 40.0, 10.0, v0), (),
       DomainError, f"log-derivative start {v0} at s = 40.0 is not finite (w = 1.0, e = -0.1)")
      for v0 in (-math.inf, math.nan)),
    # refused up front: the loop test (s1 - s) * direction > 0 is False at
    # a NaN end, which would return v0 as if a leg had been integrated, and
    # from s0 = -inf every step is infinite and never falls below 1e-14 of
    # the span
    *((f"oracle._riccati-s0={s0}-s1={s1}", oracle._riccati, (1.0, -0.1, s0, s1, -1.0), (),
       DomainError, f"leg ends s = {s0} and s = {s1} are not both finite (w = 1.0, e = -0.1)")
      for s0, s1 in ((40.0, math.nan), (math.nan, 10.0), (-math.inf, 10.0), (40.0, math.inf))),
    # refused before the first step, each under a step budget: from s0 < 0 the
    # first step points away from s1 and the leg never ends, from s0 = 0 the
    # first stage divides by zero, a leg to s1 < 0 integrates across the pole
    # at s = 0, and e >= 0 has no first step 1/sqrt(-2e)
    *((f"oracle._riccati-s0={s0}-s1={s1}", oracle._riccati, (1.0, -0.1, s0, s1, -1.0),
       ((oracle, "math", _StepBudget()),), DomainError,
       f"leg ends s = {s0} and s = {s1} are not both positive (w = 1.0, e = -0.1)")
      for s0, s1 in ((-5.0, 10.0), (0.0, 10.0), (5.0, -10.0), (5.0, 0.0))),
    *((f"oracle._riccati-e={e}", oracle._riccati, (1.0, e, 5.0, 10.0, -1.0),
       ((oracle, "math", _StepBudget()),), DomainError,
       f"trial energy e = {e} is not negative (w = 1.0)") for e in (0.1, 0.0, -0.0)),
    # from a finite start every stage is NaN, so no step's error estimate is
    # finite and the step shrinks until it underflows
    *((f"oracle._riccati-w={w}-e={e}", oracle._riccati, (w, e, 40.0, 10.0, -1.0),
       ((oracle, "math", _StepBudget()),), DomainError,
       "step size underflow in radial integration")
      for w, e in ((1.0, math.nan), (math.nan, -0.1))),
    ("oracle._illinois", oracle._illinois,
     (lambda x: x**3 - 2.0, 0.0, -2.0, 2.0, 6.0, 1e-12, 1e-10), ((oracle, "_ROOT_MAXITER", 3),),
     DomainError,
     "root-find did not converge in 3 steps between 1.0769230769230769 and 1.3848953594176525"),
    # alpha = 2 mu kappa / lambda = 2e-320 is subnormal
    ("oracle.quad_norm-decay", oracle.quad_norm, (QN00, problem(0.5, mu=1e-160, kappa=1e-160)),
     (), DomainError, "norm quadrature: the decay rate 2 mu kappa / lambda underflows to 0 or "
     "a subnormal at mu = 1e-160, kappa = 1e-160"),
    # rho^w overflows inside the range, although |psi| is finite there
    ("oracle.quad_norm-overflow", oracle.quad_norm, (QuantumNumbers(0, 120), problem(0.3)), (),
     DomainError, "norm quadrature overflows for (n_r, m) = (0, 120) at nu = 0.3"),
    ("oracle.quad_norm-error", oracle.quad_norm, (QN00, problem(0.0)),
     ((oracle, "_trapezoid", lambda f, a, b: (0.15, 1e-6)),), DomainError,
     "norm quadrature error estimate 1.00e-06"),
    *((f"reduction.ParticlePair{args[:2]}", ParticlePair, (*args, 1.0, -3.0, 2.0, -6.0), (),
       ValueError, "masses must be positive") for args in ((0.0, 1.0), (1.0, 0.0))),
    *((f"reduction.RelativeProblem{args}", RelativeProblem, args, (), ValueError,
       "mu, kappa and alpha must be finite")
      for args in ((math.inf, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 1.0, -math.inf))),
    *((f"reduction.RelativeProblem{args}", RelativeProblem, args, (), ValueError,
       "reduced mass must be positive") for args in ((-1.0, 1.0, 0.0), (0.0, 1.0, 0.0))),
    ("reduction.RelativeProblem._make", RelativeProblem._make, ((1.0, 0.5, 2.75, 2, 0.25),),
     (), ValueError, "m0 and nu must follow from alpha_flux"),
    ("reduction.RelativeProblem._replace",
     functools.partial(RelativeProblem(1.0, 1.0, -0.5)._replace, nu=0.25), (), (), ValueError,
     "m0 and nu follow from alpha_flux and cannot be replaced"),
    ("reduction.validate_ratio-flux", reduction.validate_ratio,
     (ParticlePair(1, 1, 1, -1, 0, -4),), (), DomainError, "flux entries must be nonzero"),
    ("reduction.validate_ratio-ratios", reduction.validate_ratio,
     (ParticlePair(1, 1, 1, -3, 2, -5),), (), DomainError,
     "charge/flux ratios differ: 0.5 vs 0.6"),
    ("reduction.decompose_flux", reduction.decompose_flux, (math.inf,), (), ValueError,
     "alpha must be finite"),
    *((f"reduction.classify_case-nu={nu}", reduction.classify_case, (m0, nu), (), ValueError,
       "nu must lie in [0, 1)") for m0, nu in ((0, -0.25), (1, 1.0))),
    *((f"scatter.ScatteringParams{args[:2]}", ScatteringParams, args, (), ValueError,
       "k and beta must be finite")
      for args in ((math.inf, 1.0, COULOMB), (math.nan, 1.0, COULOMB), (1.0, -math.inf, INTEGER),
                   (1.0, math.nan, HALF))),
    *((f"scatter.ScatteringParams(k={k})", ScatteringParams, (k, 1.0, COULOMB), (), ValueError,
       "k must be positive") for k in (0.0, -1.0)),
    ("scatter.scattering_params-E", scatter.scattering_params, (problem(0.0), 0.0), (),
     ValueError, "scattering requires E > 0"),
    ("scatter.scattering_params-nu", scatter.scattering_params, (problem(0.25), 0.5), (),
     DomainError, "no closed-form scattering solution for nu = 0.25"),
    ("scatter.sigma_sample-beta=0", scatter.sigma_sample,
     (ScatteringParams(1.0, 0.0, INTEGER), 2.0), (), DomainError, INTERFERENCE),
    *((f"scatter.cross_sections-beta=0-{thetas}", scatter.cross_sections,
       (ScatteringParams(1.0, 0.0, INTEGER), thetas), (), DomainError, INTERFERENCE)
      for thetas in ([2.0], [1.0, 4.0], [FORWARD_CONE / 2])),
    *((f"scatter.sigma_sample-theta={theta}", scatter.sigma_sample, (P_C, theta), (),
       DomainError, f"theta = {theta} is inside the forward cone")
      for theta in (0.0, FORWARD_CONE / 2, 2.0 * math.pi - 1e-4)),
    # mid-sweep, and after a nan angle, which yields nan cross sections, with
    # an infinite angle after it that is never reached
    *((f"scatter.cross_sections-{p.flux_case.value}-{thetas}", scatter.cross_sections,
       (p, thetas), (), DomainError, f"theta = {thetas[i]} is inside the forward cone")
      for p in (P_C, P_I, P_H)
      for thetas, i in (([1.0, 2.0 * math.pi - FORWARD_CONE / 2, 3.0], 1), ([math.nan, 0.0], 1),
                        ([1.0, math.nan, 2.0 * math.pi, math.inf], 2))),
    # beta = 1.5e5 loses the phase only near forward
    *((f"scatter.cross_sections-beta={beta}-theta={thetas[-1]}", scatter.cross_sections,
       (ScatteringParams(1.0, beta, INTEGER), thetas), (), DomainError,
       f"the integer-flux phase at beta = {beta}, theta = {thetas[-1]} is lost to rounding")
      for beta, thetas in (*((beta, [2.0]) for beta in (1e6, -1e7, 1e15)),
                           *((1.5e5, [0.4, math.pi, 5.9, 13.5, theta])
                             for theta in (2.0 * FORWARD_CONE, 0.01, 2.0 * math.pi - 0.01)))),
    # beta past 1e5 or k (xi^2 + eta^2) past 4.5e6: e^{pi beta / 2} cancels
    # against Re ln Gamma, or the plane wave's and Kummer factors' phases
    # carry more than _PHASE_ERROR_LIMIT of rounding error
    *((f"scatter.eval_scattering_field-{case.value}-beta={beta}-k={k}",
       scatter.eval_scattering_field, (ScatteringParams(k, beta, case), 0.7, 1.3), (),
       DomainError, f"the scattering field's phase at beta = {beta}, k = {k}, "
       f"xi^2 + eta^2 up to {0.7 * 0.7 + 1.3 * 1.3} is lost to rounding")
      for case, beta, k in ((COULOMB, 1e6, 1e-9), (INTEGER, 0.3, 1e7), (HALF, -1e9, 1e-12))),
    *((f"scatter.limit_ab-{case.value}-k={k}", scatter.limit_ab, (case, k, 1.0), (), ValueError,
       "k must be positive") for case, k in ((HALF, 0.0), (COULOMB, math.nan), (HALF, math.nan))),
    *((f"scatter.limit_classical-mu={mu}-v_c={v_c}", scatter.limit_classical,
       (1.0, mu, v_c, 1.0), (), ValueError, "mu and v_c must be positive")
      for mu, v_c in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan))),
    *((f"scatter.to_parabolic-r={r}", scatter.to_parabolic, (r, 0.0), (), ValueError,
       "r must be non-negative") for r in (-1e-300, math.nan)),
    ("scatter.stationary_wave-coulomb", scatter.stationary_wave, (P_C, 10.0), (), DomainError,
     "stationary wave exists only for integer flux"),
    *((f"scatter.stationary_wave-r={r}", scatter.stationary_wave, (P_I, r), (), ValueError,
       "r must be positive") for r in (0.0, math.nan)),
    # as np.linspace; the CLI turns it into exit 1
    *((f"scatter.linspace-{num}", scatter.linspace, (0.0, 1.0, num), (), ValueError,
       f"number of samples, {num}, must be non-negative") for num in (-1, -70)),
    *((f"scatter.sample_scattering_field-{nx}x{ny}", scatter.sample_scattering_field,
       (P_C, (-1.0, 1.0), (-1.0, 1.0), nx, ny), (), ValueError, GRID)
      for nx, ny in ((1, 4), (4, 1))),
    *((f"specfn.ln_gamma-{z!r}", specfn.ln_gamma, (z,), (), DomainError,
       f"Gamma pole at z = {z.real}") for z in (0.0, -1.0, -7.0, 0j)),
    *((f"specfn.kummer_m-b={b}", specfn.kummer_m, (0.5, b, 1.0), (), DomainError,
       f"lower parameter pole at b = {b}") for b in (0.0, -1.0, -4.0)),
    # unchecked, a non-finite parameter escapes as OverflowError from the
    # Taylor term bound or as ValueError from a math domain error
    *((f"specfn.kummer_m{args}", specfn.kummer_m, args, (), DomainError,
       f"M(a, b, z) needs a finite {got}")
      for args, got in (((math.inf, 1.0, 1.0), "parameter, got a = (inf+0j)"),
                        ((math.nan, 1.0, 1.0), "parameter, got a = (nan+0j)"),
                        ((math.inf, 1.0, 0.0), "parameter, got a = (inf+0j)"),
                        ((complex(1.0, math.nan), 1.0, 50.0), "parameter, got a = (1+nanj)"),
                        ((1.0, math.inf, 1.0), "parameter, got b = (inf+0j)"),
                        ((1.0, complex(math.nan, 1.0), 1.0), "parameter, got b = (nan+1j)"),
                        ((0.5, 1.5, math.inf), "argument, got z = (inf+0j)"),
                        ((0.5, 1.5, complex(0.0, -math.inf)), "argument, got z = -infj"),
                        ((0.5, 1.5, math.nan), "argument, got z = (nan+0j)"))),
    # the re-sum's last term, the 1,000th, is larger than M itself (checked
    # against mpmath in tests/test_specfn.py), so no sum it could return is right
    *((f"specfn.kummer_m{args}", specfn.kummer_m, args, (), DomainError,
       f"M({text}): the Taylor series has not converged after 1000 terms")
      for args, text in (((-2000.0, 3.0, 150.0), "(-2000+0j), (3+0j), (150+0j)"),
                         ((-3000.0, 1.0, 3000.0), "(-3000+0j), (1+0j), (3000+0j)"),
                         ((3e4 + 2j, 2e3, 5 + 38j), "(30000+2j), (2000+0j), (5+38j)"))),
    # terms near 2**(1000 log2 1e300): refused before any re-sum runs
    ("specfn.kummer_m-bits", specfn.kummer_m, (-1000.0, 1.0, 1e300), (), DomainError,
     "M((-1000+0j), (1+0j), (1e+300+0j)): its Taylor terms reach 2**988059, past the re-sum's "
     "range"),
]


def _refusal(row, monkeypatch):
    """The exception the row's call raises with its patches in place."""
    _, call, args, patches, error, _ = row
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    with pytest.raises(error) as exc:
        call(*args)
    return exc.value


def _raises():
    """(path, node) of every raise statement in MODULES."""
    paths = [Path(module.__file__).resolve() for module in MODULES]
    return [(path, node) for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)]


@pytest.mark.parametrize("row", LIBRARY_REFUSALS, ids=[row[0] for row in LIBRARY_REFUSALS])
def test_library_refusal(row, monkeypatch):
    exc = _refusal(row, monkeypatch)
    assert type(exc) is row[4]
    assert str(exc) == row[5]


def test_every_raise_has_a_row(monkeypatch):
    spans = {(path, node.lineno, node.end_lineno) for path, node in _raises()}
    hit = set()
    for row in LIBRARY_REFUSALS:
        with monkeypatch.context() as patch:
            tb = _refusal(row, patch).__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        path, line = Path(tb.tb_frame.f_code.co_filename).resolve(), tb.tb_lineno
        hits = {span for span in spans if span[0] == path and span[1] <= line <= span[2]}
        assert hits, f"{row[0]} is raised at {path.name}:{line}, by no raise statement"
        hit |= hits
    missed = sorted(f"{path.name}:{first}" for path, first, _ in spans - hit)
    assert not missed, f"raise statements that no row reaches: {missed}"


def test_every_raise_is_a_domain_or_value_error():
    # cli.main turns DomainError into exit 2 and ValueError into exit 1; any
    # other exception would reach the CLI's user as a traceback
    for path, node in _raises():
        assert (isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id in ("DomainError", "ValueError")), (
            f"{path.name}:{node.lineno}: {ast.unparse(node)}")
