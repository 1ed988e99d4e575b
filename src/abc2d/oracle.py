"""Independent numerical verification of the closed-form bound states.

Two oracles that share no special-function code with the closed forms:

* ``shoot_with_nodes`` solves the radial equation

      R'' + R'/r + [2 mu E + 2 mu kappa / r - (m+nu)^2 / r^2] R = 0

  in the log radial variable x = ln s (s the Coulomb-unit radius), where it
  collapses to R_xx = (w^2 - 2 e^x - 2 e e^{2x}) R with no first-derivative
  term and no stiffness at the origin.  A Cash-Karp 5(4) embedded pair
  supplies the per-step error control; the state is renormalized whenever it
  grows large (the ODE is linear).

  The eigenvalue is found in two stages.  Interior node counts of the
  solution shot outward from the indicial behavior R ~ r^{|m+nu|} (stopped
  once it has entered irreversible exponential growth past the outer turning
  point) bracket level n_r alone: n_r nodes at the lower end, n_r + 1 at the
  upper.  Brent's method then finds the root of the normalized Wronskian of
  that outward solution and one integrated inward from the decaying tail,
  matched at the outer turning point (the matching method of Pryce,
  *Numerical Solution of Sturm-Liouville Problems*, 1993).  The reported node
  count is the one measured at the lower bracket end, so it checks the level
  assignment independently of the root-find.

* ``quad_norm`` integrates |psi|^2 over the plane with adaptive quadrature on
  the compactified variable u = rho / (1 + rho); the angular integral is
  exactly 2 pi.

The ODE path never touches the confluent hypergeometric code, so agreement
with the closed-form energies is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bound import QuantumNumbers, effective_exponent, energy, wavefunction
from .errors import NoBoundStates, NoConvergence, QuadratureFailure, StiffnessFailure
from .reduction import RelativeProblem

# Cash-Karp 5(4) tableau.
_A2 = (0.2,)
_A3 = (3.0 / 40.0, 9.0 / 40.0)
_A4 = (0.3, -0.9, 1.2)
_A5 = (-11.0 / 54.0, 2.5, -70.0 / 27.0, 35.0 / 27.0)
_A6 = (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0,
       44275.0 / 110592.0, 253.0 / 4096.0)
_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0,
       277.0 / 14336.0, 0.25)

# Stop integrating once log |R| has climbed this far above its value at the
# outer turning point: the growing mode then dominates irreversibly, no
# further node can occur, and the tail would only overflow.  Kept below the
# ~73 e-folds at which local roundoff could seed a spurious sign flip.
_GROWTH_STOP_LOG = 60.0
_RESCALE_AT = 1e100
# The inward solution starts where the decaying tail has fallen this many
# e-folds below its value at the turning point; the admixed growing mode is
# damped by about twice that on the way in.
_TAIL_EFOLDS = 40.0
# Relative energy tolerance of the Brent root-find, near the noise floor the
# ode_tol = 1e-10 integrations leave in the matching Wronskian.
_ROOT_RTOL = 1e-10
# When both bracket ends show the same Wronskian sign, the end below this
# magnitude is the eigenvalue itself; the observed noise there is ~5e-11.
_ROOT_NOISE = 1e-8
# Brent starts from a node bracket at most this share of |e_guess| wide.
# Across the whole initial window the Wronskian is curved enough that Brent
# needs 8-10 evaluations of two integrations each; a node-count bisection
# step costs one.
_BRENT_WINDOW = 0.5
_MAX_NARROWING = 60


@dataclass(frozen=True)
class ShootingConfig:
    """Discretization knobs for the shooting solver.

    r_start is in units of the closed-form inverse decay scale 1/alpha;
    r_max in units of the outer classical turning point.
    """

    r_start: float = 1e-6
    r_max: float = 60.0
    ode_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.r_start > 0.0 and self.r_max > 0.0):
            raise ValueError("radii must be positive")
        if self.r_start >= self.r_max:
            raise ValueError("r_start must be below r_max")
        if not self.ode_tol > 0.0:
            raise ValueError("ode_tol must be positive")


def _outer_turning_point(e: float, w: float) -> float:
    """Largest root of 2 e s^2 + 2 s - w^2 = 0 for e < 0 (Coulomb units)."""
    disc = 1.0 + 2.0 * e * w * w
    if disc <= 0.0:
        return 1.0 / (-e)
    return (1.0 + math.sqrt(disc)) / (-2.0 * e)


def _integrate(w: float, e: float, x0: float, x1: float, y0: float, dy0: float,
               tol: float) -> tuple[int, float, float]:
    """Integrate from x0 to x1 (either direction) at trial energy e.

    Returns (sign changes of R, R, R_x) with the final pair rescaled by an
    arbitrary positive factor.  Once past the outer turning point in the
    direction of travel, integration stops early when log |R| has grown
    _GROWTH_STOP_LOG beyond its value there.
    """
    w2 = w * w
    te = 2.0 * e
    direction = 1.0 if x1 >= x0 else -1.0
    x = x0
    y, dy = y0, dy0
    h = 1e-4 * direction
    nodes = 0
    log_scale = 0.0
    x_tp = math.log(_outer_turning_point(e, w))
    log_at_tp = None
    span = abs(x1 - x0)
    while (x1 - x) * direction > 0.0:
        last = (x + h - x1) * direction >= 0.0
        if last:
            h = x1 - x
        s1 = math.exp(x)
        k1y = dy
        k1d = (w2 - 2.0 * s1 - te * s1 * s1) * y

        yy = y + h * _A2[0] * k1y
        dd = dy + h * _A2[0] * k1d
        s = math.exp(x + 0.2 * h)
        k2y = dd
        k2d = (w2 - 2.0 * s - te * s * s) * yy

        yy = y + h * (_A3[0] * k1y + _A3[1] * k2y)
        dd = dy + h * (_A3[0] * k1d + _A3[1] * k2d)
        s = math.exp(x + 0.3 * h)
        k3y = dd
        k3d = (w2 - 2.0 * s - te * s * s) * yy

        yy = y + h * (_A4[0] * k1y + _A4[1] * k2y + _A4[2] * k3y)
        dd = dy + h * (_A4[0] * k1d + _A4[1] * k2d + _A4[2] * k3d)
        s = math.exp(x + 0.6 * h)
        k4y = dd
        k4d = (w2 - 2.0 * s - te * s * s) * yy

        yy = y + h * (_A5[0] * k1y + _A5[1] * k2y + _A5[2] * k3y + _A5[3] * k4y)
        dd = dy + h * (_A5[0] * k1d + _A5[1] * k2d + _A5[2] * k3d + _A5[3] * k4d)
        s = math.exp(x + h)
        k5y = dd
        k5d = (w2 - 2.0 * s - te * s * s) * yy

        yy = y + h * (_A6[0] * k1y + _A6[1] * k2y + _A6[2] * k3y
                      + _A6[3] * k4y + _A6[4] * k5y)
        dd = dy + h * (_A6[0] * k1d + _A6[1] * k2d + _A6[2] * k3d
                       + _A6[3] * k4d + _A6[4] * k5d)
        s = math.exp(x + 0.875 * h)
        k6y = dd
        k6d = (w2 - 2.0 * s - te * s * s) * yy

        y5 = y + h * (_B5[0] * k1y + _B5[2] * k3y + _B5[3] * k4y + _B5[5] * k6y)
        d5 = dy + h * (_B5[0] * k1d + _B5[2] * k3d + _B5[3] * k4d + _B5[5] * k6d)
        y4 = y + h * (_B4[0] * k1y + _B4[2] * k3y + _B4[3] * k4y
                      + _B4[4] * k5y + _B4[5] * k6y)
        d4 = dy + h * (_B4[0] * k1d + _B4[2] * k3d + _B4[3] * k4d
                       + _B4[4] * k5d + _B4[5] * k6d)

        scale = abs(y5) + abs(h * d5) + 1e-300
        err = max(abs(y5 - y4), abs(h * (d5 - d4))) / (scale * tol)
        if err <= 1.0:
            x = x1 if last else x + h
            prev = y
            y, dy = y5, d5
            if prev != 0.0 and y != 0.0 and (prev < 0.0) != (y < 0.0):
                nodes += 1
            m = max(abs(y), abs(dy))
            if m > _RESCALE_AT:
                y /= m
                dy /= m
                log_scale += math.log(m)
            log_mag = math.log(max(abs(y), abs(dy), 1e-300)) + log_scale
            if log_at_tp is None and (x - x_tp) * direction >= 0.0:
                log_at_tp = log_mag
            elif log_at_tp is not None and log_mag > log_at_tp + _GROWTH_STOP_LOG:
                break
        h *= max(0.2, min(5.0, 0.9 * err**-0.2)) if err > 0.0 else 5.0
        if abs(h) < 1e-14 * span:
            raise StiffnessFailure("step size underflow in radial integration")
    return nodes, y, dy


def _solve_scaled(w: float, n_r: int, e_guess: float,
                  cfg: ShootingConfig) -> tuple[float, int]:
    """Find the Coulomb-unit eigenvalue with n_r interior nodes.

    Returns (e, nodes measured at the lower end of the root bracket).  The
    search window is [1.5 e_guess, 0.5 e_guess] around the predicted energy,
    narrowed by node count until it holds level n_r alone and is at most
    _BRENT_WINDOW |e_guess| wide; Brent's method then finds the zero of the
    matching Wronskian inside it.
    """
    from scipy.optimize import brentq

    alpha = math.sqrt(-8.0 * e_guess)
    s0 = cfg.r_start / alpha
    x0 = math.log(s0)
    s_max = cfg.r_max * _outer_turning_point(e_guess, w)
    x1 = math.log(s_max)
    # Frobenius start R = s^w (1 - 2 s/(2w+1)), normalized at s0; in the log
    # variable the slope is d ln R/dx times R.
    c1 = -2.0 / (2.0 * w + 1.0)
    y0 = 1.0 + c1 * s0
    dy0 = w * (1.0 + c1 * s0) + c1 * s0

    def nodes_at(e: float) -> int:
        return _integrate(w, e, x0, x1, y0, dy0, cfg.ode_tol)[0]

    def wronskian(e: float) -> float:
        """Normalized Wronskian of the outward and inward solutions at the
        outer turning point; zero exactly at an eigenvalue."""
        s_tp = _outer_turning_point(e, w)
        x_tp = math.log(s_tp)
        s_in = min(s_max, s_tp + _TAIL_EFOLDS / math.sqrt(-2.0 * e))
        # WKB slope of the solution that decays outward (grows inward)
        q = max(w * w - 2.0 * s_in - 2.0 * e * s_in * s_in, 0.0)
        _, yo, dyo = _integrate(w, e, x0, x_tp, y0, dy0, cfg.ode_tol)
        _, yi, dyi = _integrate(w, e, math.log(s_in), x_tp, 1.0, -math.sqrt(q),
                                cfg.ode_tol)
        return (dyo * yi - dyi * yo) / (math.hypot(yo, dyo) * math.hypot(yi, dyi))

    lo, hi = 1.5 * e_guess, 0.5 * e_guess
    n_lo, n_hi = nodes_at(lo), nodes_at(hi)
    if n_lo > n_r or n_hi < n_r + 1:
        raise NoConvergence(
            f"no eigenvalue bracket in [{lo}, {hi}]: node counts "
            f"({n_lo}, {n_hi}) vs target {n_r}"
        )
    # For high states the initial window also holds level n_r + 1.
    for _ in range(_MAX_NARROWING):
        if n_lo == n_r and n_hi == n_r + 1 and hi - lo <= _BRENT_WINDOW * abs(e_guess):
            break
        mid = 0.5 * (lo + hi)
        n_mid = nodes_at(mid)
        if n_mid <= n_r:
            lo, n_lo = mid, n_mid
        else:
            hi, n_hi = mid, n_mid
    else:
        raise NoConvergence(f"node counts never isolated level {n_r}")

    known = {lo: wronskian(lo), hi: wronskian(hi)}
    if (known[lo] < 0.0) == (known[hi] < 0.0):
        # The first narrowing midpoint is e_guess.  Where that is the
        # eigenvalue, the Wronskian there is integration noise
        # (~1e-11) of either sign, and that end is the root.
        end = min(known, key=lambda e: abs(known[e]))
        if abs(known[end]) > _ROOT_NOISE:
            raise NoConvergence(f"no Wronskian sign change in [{lo}, {hi}]")
        return end, n_lo
    e = brentq(lambda e: known[e] if e in known else wronskian(e), lo, hi,
               xtol=_ROOT_RTOL * abs(e_guess), rtol=_ROOT_RTOL)
    return e, n_lo


def shoot_with_nodes(
    problem: RelativeProblem, m: int, n_r: int,
    cfg: ShootingConfig = ShootingConfig(),
) -> tuple[float, int]:
    """(ODE eigenvalue with n_r interior nodes in physical units, node count
    measured at the lower bracket end)."""
    if problem.kappa <= 0.0:
        raise NoBoundStates("shooting requires attraction (kappa > 0)")
    if n_r < 0:
        raise ValueError("n_r must be non-negative")
    w = effective_exponent(m, problem.nu)
    lam = n_r + w + 0.5
    # the closed-form energy only centres the search window
    e_scaled, nodes = _solve_scaled(w, n_r, -1.0 / (2.0 * lam * lam), cfg)
    unit = problem.reduced_mass * problem.kappa**2
    return e_scaled * unit, nodes


def quad_norm(
    qn: QuantumNumbers, problem: RelativeProblem, amplitude_scale: float = 1.0
) -> float:
    """Numerical norm integral |psi|^2 over the plane.

    The angular factor has unit modulus so the theta integral is exactly
    2 pi; the radial integral runs over u = rho/(1+rho) in (0, 1) with the
    decaying integrand evaluated through bound.wavefunction, built once.
    amplitude_scale multiplies psi (a hook for scaling checks).
    """
    from scipy.integrate import quad

    e = energy(qn, problem)
    alpha = math.sqrt(-8.0 * problem.reduced_mass * e)
    psi = wavefunction(qn, problem)

    def integrand(u: float) -> float:
        rho = u / (1.0 - u)
        r = rho / alpha
        amp = psi(r, 0.0) * amplitude_scale
        return abs(amp) ** 2 * r / (alpha * (1.0 - u) ** 2)

    value, err_est = quad(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    if err_est > 1e-7:
        raise QuadratureFailure(f"norm quadrature error estimate {err_est:.2e}")
    return 2.0 * math.pi * value
