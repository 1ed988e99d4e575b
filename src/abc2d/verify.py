"""Cross-validation suite: every closed form against an independent check.

Each check returns a CheckResult with the worst observed measure and its
bound, so the CLI can print one pass/fail row per check.  The random grids
are seeded and the θ sweeps deterministic; two runs produce identical
reports.

The checks:
  gamma_identities   |Gamma|^2 closed forms vs ln_gamma
  gamma_functional   reflection and recurrence identities (mod 2 pi i)
  kummer_transform   M(a,b,z) = e^z M(b-a,b,-z) on random triples, both
                     sides summed directly, Taylor and large-|z| paths
  kummer_polynomial  terminating series vs exact rational Horner evaluation
  shooting           ODE eigenvalues vs closed-form energies, each found in
                     a bracket whose ends count n_r and n_r + 1 nodes; a
                     state passes on its energy alone
  norm_quadrature    numerical norm of every low state = 1; shooting prints
                     its norms from the same table, one quad_norm per state
  degeneracy         spectrum vs brute-force level enumeration and vs the
                     paper's two ladders merged by lambda
  pde_residual       second-order convergence of the field residual
  limits             flux-only and classical limits of the cross sections
  interference       sign-indefinite sigma_x, sigma_1 positive, ratio bound
  stationary_wave    asymptotic decomposition residual decays faster than 1/r
"""

from __future__ import annotations

import cmath
import math
import random
from typing import NamedTuple

from . import bound, oracle, scatter, specfn
from .reduction import RelativeProblem, classify_case

_TWO_PI = 2.0 * math.pi


class CheckResult(NamedTuple):
    name: str
    passed: bool
    worst: float
    bound: float
    detail: str = ""


class ShootingRow(NamedTuple):
    """Per-state verification record: closed form vs ODE oracle, with the
    state's quadrature norm.  passed is rel_err < 1e-6; the norm is shown
    here and checked by the norm_quadrature row."""

    case: str
    n_r: int
    m: int
    closed_energy: float
    shoot_energy: float
    rel_err: float
    norm: float
    passed: bool


def _result(name: str, worst: float, bnd: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=worst <= bnd, worst=worst, bound=bnd,
                       detail=detail)


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x, summed exactly over the
    float logs as Fractions and rounded once."""
    from fractions import Fraction

    us = [Fraction(math.log(x)) for x in xs]
    vs = [Fraction(math.log(y)) for y in ys]
    n, su = len(us), sum(us)
    num = n * sum(u * v for u, v in zip(us, vs)) - su * sum(vs)
    return float(num / (n * sum(u * u for u in us) - su * su))


# -- special functions -----------------------------------------------------------

def check_gamma_identities(points: int = 200) -> CheckResult:
    # np.geomspace(0.05, 10.0, points) without numpy: both ends pinned
    betas = [10.0 ** v for v in scatter.linspace(math.log10(0.05), 1.0, points)]
    betas[0], betas[-1] = 0.05, 10.0
    worst = 0.0
    for b in betas:
        g0 = abs(cmath.exp(specfn.ln_gamma(1j * b))) ** 2
        g1 = abs(cmath.exp(specfn.ln_gamma(0.5 + 1j * b))) ** 2
        worst = max(
            worst,
            abs(g0 * b * math.sinh(b * math.pi) - math.pi),
            abs(g1 * math.cosh(b * math.pi) - math.pi),
        )
    return _result("gamma_identities", worst, 1e-11,
                   f"{points} log-spaced beta in [0.05, 10]")


def check_gamma_functional(points: int = 100) -> CheckResult:
    rng = random.Random(11)
    worst = 0.0
    n = 0
    while n < points:
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if abs(z) >= 10.0 or abs(z.imag) < 1e-3 or abs(z.real - round(z.real)) < 1e-3:
            continue
        n += 1
        lhs = specfn.ln_gamma(z) + specfn.ln_gamma(1.0 - z)
        rhs = cmath.log(math.pi / cmath.sin(math.pi * z))
        refl = abs(math.remainder((lhs - rhs).imag, _TWO_PI)) + abs((lhs - rhs).real)
        rec = specfn.ln_gamma(z + 1.0) - specfn.ln_gamma(z) - cmath.log(z)
        recur = abs(math.remainder(rec.imag, _TWO_PI)) + abs(rec.real)
        worst = max(worst, refl, recur)
    return _result("gamma_functional", worst, 1e-11,
                   f"{points} random z with |z| < 10")


def check_kummer_transform(points: int = 100) -> CheckResult:
    """M(a, b, z) = e^z M(b - a, b, -z) on random triples.

    kummer_m evaluates each side directly, so the row compares two
    independent sums.  Three triples in four have |z| <= 20 and take the
    Taylor path, in the left half plane with the cancellation the fixed-point
    re-sum absorbs.  Every fourth has |z| in [45, 100], one quadrant of arg z
    after another, and takes the large-|z| expansion, so both of its sectors
    are compared with each other in all four quadrants.

    The row cannot see an error that scales M uniformly, nor one in the
    asymptotic coefficients: the transformation maps the two asymptotic sums
    of one side onto those of the other term by term.  Those need a witness
    of their own, such as the integral representation.
    """
    rng = random.Random(23)
    worst = 0.0
    for j in range(points):
        a = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        b = complex(rng.uniform(0.3, 5.0), rng.uniform(-2.0, 2.0))
        if j % 4 == 3:
            z = cmath.rect(rng.uniform(45.0, 100.0),
                           0.5 * math.pi * (j // 4 % 4 - 2 + rng.random()))
        else:
            z = cmath.rect(rng.uniform(0.1, 20.0), rng.uniform(-math.pi, math.pi))
        lhs = specfn.kummer_m(a, b, z)
        rhs = cmath.exp(z) * specfn.kummer_m(b - a, b, -z)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return _result("kummer_transform", worst, 1e-10,
                   f"{points} random triples, |z| <= 20 and one in four "
                   "in [45, 100]")


def check_kummer_polynomial() -> CheckResult:
    """Terminating series against exact rational Horner evaluation."""
    from fractions import Fraction

    rng = random.Random(31)
    worst = 0.0
    for _ in range(40):
        n = rng.randint(0, 8)
        b = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        z = Fraction(rng.randint(-60, 60), rng.randint(1, 4))
        term = Fraction(1)
        exact = Fraction(1)
        for j in range(n):
            term *= (-n + j) * z / ((b + j) * (j + 1))
            exact += term
        got = specfn.kummer_m(complex(-n), complex(float(b)), complex(float(z)))
        ref = float(exact)
        worst = max(worst, abs(got.real - ref) / max(abs(ref), 1e-300) + abs(got.imag))
    return _result("kummer_polynomial", worst, 1e-13,
                   "40 terminating cases, degree <= 8")


# -- bound states vs oracle ------------------------------------------------------

def _grid(small: bool) -> tuple[tuple[float, ...], int]:
    """(nu values, size): shooting covers |m|, n_r <= size at alpha = nu, so
    m0 = 0; the norm table covers n_r + |m| <= 2 size, which holds them all."""
    return ((0.0, 0.5), 1) if small else ((0.0, 0.25, 0.5, 0.75), 2)


def shooting_grid(small: bool) -> list[tuple[float, int, int]]:
    """(nu, m, n_r) of each shooting state, all at mu = kappa = 1."""
    nus, size = _grid(small)
    return [(nu, m, n_r) for nu in nus
            for m in range(-size, size + 1) for n_r in range(size + 1)]


def norm_table(small: bool) -> dict[tuple[float, int, int], float]:
    """quad_norm of each (nu, n_r, m) with n_r + |m| <= 2 size, once each."""
    nus, size = _grid(small)
    n_max = 2 * size
    norms = {}
    for nu in nus:
        problem = RelativeProblem.from_parameters(1.0, 1.0, nu)
        for n_r in range(n_max + 1):
            for m in range(-(n_max - n_r), n_max - n_r + 1):
                norms[nu, n_r, m] = oracle.quad_norm(bound.QuantumNumbers(n_r, m), problem)
    return norms


def shooting_report(small: bool,
                    norms: dict[tuple[float, int, int], float]) -> list[ShootingRow]:
    """Per-state rows (case, n_r, m, closed_E, shoot_E, rel_err, norm, pass).
    Every state is at mu = kappa = 1, so the oracle reads only (|m + nu|,
    n_r): states that share them share one shot, but each row keeps its own
    closed-form energy.  A row passes on its energy alone; its norm, read
    from the table, is judged by check_norm_quadrature."""
    shots: dict[tuple[float, int], float] = {}
    rows = []
    for nu, m, n_r in shooting_grid(small):
        problem = RelativeProblem.from_parameters(1.0, 1.0, nu)
        key = (abs(m + problem.nu), n_r)
        if key not in shots:
            shots[key] = oracle.shoot_with_nodes(problem, m, n_r)[0]
        shot = shots[key]
        closed = bound.energy(bound.QuantumNumbers(n_r, m), problem)
        rel = abs(shot - closed) / abs(closed)
        rows.append(ShootingRow(
            case=classify_case(problem.m0, problem.nu).value, n_r=n_r, m=m,
            closed_energy=closed, shoot_energy=shot, rel_err=rel,
            norm=norms[nu, n_r, m], passed=rel < 1e-6,
        ))
    return rows


def check_shooting(rows: list[ShootingRow]) -> CheckResult:
    worst = max(r.rel_err for r in rows)
    all_ok = all(r.passed for r in rows)
    detail = f"{len(rows)} states, per-state checks {'all pass' if all_ok else 'FAIL'}"
    return _result("shooting", worst, 1e-6, detail)


def check_norm_quadrature(norms: dict[tuple[float, int, int], float]) -> CheckResult:
    worst = max(abs(norm - 1.0) for norm in norms.values())
    n_max = max(n_r + abs(m) for _, n_r, m in norms)
    return _result("norm_quadrature", worst, 1e-6,
                   f"{len(norms)} states with n_r + |m| <= {n_max}")


def _enumerate_levels(problem: RelativeProblem,
                      n_cap: int) -> list[tuple[float, list[tuple[int, int]]]]:
    """Brute-force (energy, members) of every level with lambda <= n_cap - 1/2.

    Every acceptable (n_r, m) in the box n_r <= n_cap, |m| <= n_cap with
    lambda = n_r + |m + nu| + 1/2 <= n_cap - 1/2 is sorted by energy and
    grouped where energies agree to 1e-14 relative; members are (n_r, m)
    pairs in (n_r, m) order, as bound.spectrum gives them.  All members of
    such a level lie inside the box, so each level is complete.
    """
    states = []
    for n_r in range(n_cap + 1):
        for m in range(-n_cap, n_cap + 1):
            qn = bound.QuantumNumbers(n_r, m)
            if (n_r + abs(m + problem.nu) + 0.5 <= n_cap - 0.5
                    and bound.is_acceptable(qn, problem.m0, problem.nu)):
                states.append((bound.energy(qn, problem), (n_r, m)))
    groups: list[tuple[float, list[tuple[int, int]]]] = []
    for e, pair in sorted(states):
        if groups and abs(e - groups[-1][0]) <= 1e-14 * abs(groups[-1][0]):
            groups[-1][1].append(pair)
        else:
            groups.append((e, [pair]))
    return [(e, sorted(members)) for e, members in groups]


# The paper's ladders in the five spectral regimes, at mu = kappa = 1:
# (name, alpha, per branch (label, first N, lambda(N) - N - 1/2, d(N))).
_LADDERS = (
    ("coulomb", 0.0, ((bound.BRANCH_UNSPLIT, 0, 0.0, lambda n: 2 * n + 1),)),
    ("integer", 1.0, ((bound.BRANCH_UNSPLIT, 1, 0.0, lambda n: 2 * n),)),
    ("nu=0.25", 0.25, ((bound.BRANCH_PLUS, 0, 0.25, lambda n: n + 1),
                       (bound.BRANCH_MINUS, 1, -0.25, lambda n: n))),
    ("nu=0.75", 0.75, ((bound.BRANCH_PLUS, 0, 0.75, lambda n: n + 1),
                       (bound.BRANCH_MINUS, 1, -0.75, lambda n: n))),
    ("half", 0.5, ((bound.BRANCH_UNSPLIT, 0, 0.5, lambda n: 2 * n + 2),)),
)


def check_degeneracy(n_cap: int = 12) -> CheckResult:
    """bound.spectrum against brute-force level enumeration and the paper's
    ladders, for all five spectral cases.

    Levels the enumeration covers completely must agree in energy (1e-14
    relative) and in their exact member lists.  The first 2 n_cap + 2
    spectrum levels must be, one for one, the first 2 n_cap + 2 rungs of the
    ladders merged by lambda: the same branch, principal N and degeneracy
    d(N), and the energy -1/(2 lambda^2) to 1e-14 relative.
    """
    failures: list[str] = []
    n_levels = 2 * n_cap + 2
    for name, alpha, ladders in _LADDERS:
        prob = RelativeProblem.from_parameters(1, 1, alpha)
        levels = bound.spectrum(prob, n_levels)
        groups = _enumerate_levels(prob, n_cap)
        for i, (e, members) in enumerate(groups):
            if i >= len(levels) or list(levels[i].members) != members:
                failures.append(f"{name} level {i}: members differ from enumeration")
            elif abs(levels[i].energy - e) > 1e-14 * abs(e):
                failures.append(f"{name} level {i}: energy {levels[i].energy!r} != {e!r}")
        rungs = sorted((n + shift + 0.5, branch, n, degeneracy(n))
                       for branch, first, shift, degeneracy in ladders
                       for n in range(first, first + n_levels))
        for i, (lv, (lam, *want)) in enumerate(zip(levels, rungs[:n_levels], strict=True)):
            got = [lv.branch, lv.principal_n, lv.degeneracy]
            e = -0.5 / (lam * lam)
            if got != want:
                failures.append(f"{name} level {i}: (branch, N, d) = {got} != {want}")
            elif abs(lv.energy - e) > 1e-14 * abs(e):
                failures.append(f"{name} level {i}: energy {lv.energy!r} != {e!r}")

    worst = float(len(failures))
    return _result("degeneracy", worst, 0.0,
                   failures[0] if failures else f"all tables exact to N <= {n_cap}")


# -- scattering ------------------------------------------------------------------

_PDE_PROBES = ((0.7, 1.3), (1.4, 0.9), (2.1, 1.8))


def pde_convergence_order(p: scatter.ScatteringParams) -> float:
    """Least-squares slope of log max-residual vs log h."""
    hs = (0.2, 0.1, 0.05, 0.025)
    res = [max(scatter.pde_residual(p, xi, eta, h) for xi, eta in _PDE_PROBES) for h in hs]
    return _loglog_slope(hs, res)


def check_pde_residual() -> CheckResult:
    cases = (
        scatter.ScatteringParams(1.0, 1.0, scatter.FluxCase.COULOMB_ONLY),
        scatter.ScatteringParams(1.0, 0.7, scatter.FluxCase.INTEGER_FLUX),
        scatter.ScatteringParams(1.0, 1.0, scatter.FluxCase.HALF_INTEGER),
    )
    orders = [pde_convergence_order(p) for p in cases]
    worst = max(abs(order - 2.0) for order in orders)
    detail = "orders " + ", ".join(f"{o:.3f}" for o in orders)
    return _result("pde_residual", worst, 0.2, detail)


def check_limits() -> CheckResult:
    """Flux-only limit of sigma_2 and classical limit of sigma_C, sigma_2."""
    theta = math.pi
    p_half = scatter.ScatteringParams(1.0, 1e-8, scatter.FluxCase.HALF_INTEGER)
    ab = scatter.limit_ab(scatter.FluxCase.HALF_INTEGER, 1.0, theta)
    worst = abs(scatter.cross_sections(p_half, [theta]).sigma_total[0] - ab) / ab

    # classical limit: mu = 1, v_c = k, beta = kappa/v_c^2
    mu, k, beta = 1.0, 1.0, 20.0
    kappa = beta * k * k / mu
    cl = scatter.limit_classical(kappa, mu, k / mu, theta)
    p_c = scatter.ScatteringParams(k, beta, scatter.FluxCase.COULOMB_ONLY)
    p_2 = scatter.ScatteringParams(k, beta, scatter.FluxCase.HALF_INTEGER)
    worst = max(
        worst,
        abs(scatter.cross_sections(p_c, [theta]).sigma_total[0] - cl) / cl * 1e2,
        abs(scatter.cross_sections(p_2, [theta]).sigma_total[0] - cl) / cl * 1e2,
    )
    # the factor 1e2 maps the 1e-8 classical tolerance onto the 1e-6 bound
    return _result("limits", worst, 1e-6,
                   "AB limit at beta=1e-8 and classical limit at beta=20")


# sup over beta and theta of |sigma_x|/sigma_C where sigma_x opposes sigma_C;
# the beta -> 0 limit (2/pi) max_s s ln(4/s^2) = 8/(pi e), reached at
# sin(theta/2) = 2/e.  sigma_1 therefore stays positive for every beta.
INTERFERENCE_RATIO_SUP = 8.0 / (math.pi * math.e)


def check_interference(points: int = 4096) -> CheckResult:
    """Sign structure of the interference term at beta = 0.3.

    sigma_x must take both signs over the sweep while sigma_1 = sigma_C +
    sigma_x stays positive, with max |sigma_x|/sigma_C below the analytic
    supremum 8/(pi e) ~ 0.9368.
    """
    p = scatter.ScatteringParams(1.0, 0.3, scatter.FluxCase.INTEGER_FLUX)
    thetas = scatter.linspace(0.01, 2.0 * math.pi - 0.01, points)
    sweep = scatter.cross_sections(p, thetas)
    cross_min = min(sweep.sigma_cross)
    cross_max = max(sweep.sigma_cross)
    total_min = min(sweep.sigma_total)
    ratio_max = max(abs(sx) / sc for sx, sc in zip(sweep.sigma_cross, sweep.sigma_coulomb))
    indefinite = cross_min < 0.0 < cross_max
    positive = total_min > 0.0
    worst = ratio_max if (indefinite and positive) else math.inf
    return _result(
        "interference", worst, INTERFERENCE_RATIO_SUP,
        f"sigma_x in [{cross_min:.3f}, {cross_max:.3f}], "
        f"min sigma_1 = {total_min:.4f}, max |sigma_x|/sigma_C = {ratio_max:.4f}",
    )


def stationary_fit_exponent() -> float:
    """Decay exponent of |psi0 - (incident + scattered + stationary)| vs r,
    at k = beta = 1 and theta = 2 pi/3.

    The incident term carries its first 1/r correction: the leading form
    alone leaves an O(1/r) tail of the incident channel itself, which
    would mask the O(r^{-3/2}) accuracy of the stationary-wave match.  An
    error in the stationary wave or the scattered amplitude would surface as
    an O(r^{-1/2}) residual and drive the exponent toward -1/2.
    """
    p = scatter.ScatteringParams(1.0, 1.0, scatter.FluxCase.INTEGER_FLUX)
    theta = 2.0 * math.pi / 3.0
    radii = (50.0, 64.0, 82.0, 105.0, 134.0, 171.0, 200.0)
    res = []
    for r in radii:
        exact = scatter.eval_scattering_field_polar(p, r, theta)
        approx = (
            scatter.incident_asymptotic(p, r, theta)
            + scatter.scattered_asymptotic(p, r, theta)
            + scatter.stationary_wave(p, r)
        )
        res.append(abs(exact - approx))
    return _loglog_slope(radii, res)


def check_stationary_wave() -> CheckResult:
    slope = stationary_fit_exponent()
    return _result("stationary_wave", slope, -1.0,
                   f"fit exponent {slope:.3f} (must be < -1)")


def run_all_checks(small: bool = False) -> tuple[list[CheckResult], list[ShootingRow]]:
    """The full verification grid, in a stable order, plus the per-state rows."""
    n_rand = 40 if small else 100
    norms = norm_table(small)
    rows = shooting_report(small, norms)
    checks = [
        check_gamma_identities(50 if small else 200),
        check_gamma_functional(n_rand),
        check_kummer_transform(n_rand),
        check_kummer_polynomial(),
        check_shooting(rows),
        check_norm_quadrature(norms),
        check_degeneracy(8 if small else 12),
        check_pde_residual(),
        check_limits(),
        check_interference(1024 if small else 4096),
        check_stationary_wave(),
    ]
    return checks, rows
