"""Independent numerical verification of the closed-form bound states.

Two oracles that share no special-function code with the closed forms:

* ``shoot_with_nodes`` solves the radial equation

      R'' + R'/r + [2 mu E + 2 mu kappa / r - (m+nu)^2 / r^2] R = 0

  in two forms, each stepped by a Cash-Karp 5(4) embedded pair with per-step
  error control.  The outward solution, which oscillates, is integrated in
  the log radial variable x = ln s (s the Coulomb-unit radius), where the
  equation collapses to R_xx = (w^2 - 2 e^x - 2 e e^{2x}) R with no
  first-derivative term and no stiffness at the origin; the state is
  renormalized whenever it grows large (the ODE is linear).  The inward
  solution, which decays outward without a node, is integrated as its
  log-derivative g = R_s / R, by the Riccati equation

      g_s = k^2 - 2/s + w^2/s^2 - g^2 - g/s,   k^2 = -2e,

  in s itself, where g tends to the constant -k (Johnson, *J. Comput. Phys.*
  13, 445, 1973).  Integrated inward it is stable, each stage is one scalar
  rational expression, and it needs no exp and no rescaling.

  The outward solution starts from its Frobenius series R = s^w sum c_k s^k,
  summed at a quarter of the inner classical turning point (at most s = 2w).
  Below w^2 / 2 the radial equation is classically forbidden at every
  energy, so R grows there as a pure power without a node and needs no
  steps.  The inward solution starts from its WKB log-derivative where a
  lower bound on the WKB action from the outer turning point reaches 12, so
  its admixed growing mode is damped by at least e^-24 and its steps cover
  no more decaying tail than that.

  Each trial energy takes one matching shot (Pryce, *Numerical Solution of
  Sturm-Liouville Problems*, 1993): the outward leg runs from the series
  start to the outer turning point, the inward leg from the decaying tail to
  the same point, and each is integrated once.  The shot returns the
  normalized Wronskian W of the two legs there, zero exactly at an
  eigenvalue, and the eigenvalue index: the outward leg's interior nodes,
  plus one where W and R differ in sign.  R starts positive and the inward
  solution has no node, so W has the sign (-1)^nodes at every trial energy.
  Node counts bracket level n_r alone, n_r nodes at the lower end and
  n_r + 1 at the upper, so W changes sign across the bracket, and the
  Illinois method finds its zero.  The reported node count is the one
  measured at the lower bracket end, so it checks the level assignment
  independently of the root-find.

* ``quad_norm`` integrates |psi|^2 over the plane with the trapezoid rule in
  x = ln(alpha r), halving the step until two sums agree; the angular
  integral is exactly 2 pi.  The integrand is analytic in a strip about the
  real x axis and negligible at both ends of the range, so the rule converges
  geometrically (Trefethen & Weideman, SIAM Review 56, 385, 2014).

The ODE path never touches the confluent hypergeometric code, so agreement
with the closed-form energies is a genuine cross-check.

The oracles need nothing outside the standard library: the root-finder
``_illinois`` is the Illinois modified regula falsi (Dowell & Jarratt, *BIT*
11, 168, 1971).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .bound import QuantumNumbers, effective_exponent, wavefunction
from .errors import DomainError
from .reduction import RelativeProblem

# The state (R, R_x) is renormalized once it exceeds this magnitude.
_RESCALE_AT = 1e100
# The inward solution starts where a lower bound on the WKB action from the
# outer turning point reaches this value, so the admixed growing mode is
# damped by at least e^-24 on the way in.
_TAIL_ACTION = 12.0
# The Frobenius series of the outward start converges in a few dozen terms
# on the shooting domain; more than this many is a DomainError.
_SERIES_MAX_TERMS = 200
# The outward solution starts no nearer the origin than _R_START in units
# of the closed-form inverse decay scale 1/alpha, and every integration
# keeps the local error below _ODE_TOL (relative to the state for the
# outward leg, to g for the inward).
_R_START = 1e-6
_ODE_TOL = 1e-10
# Relative energy tolerance of the root-find, near the noise floor the
# _ODE_TOL integrations leave in the matching Wronskian.
_ROOT_RTOL = 1e-10
# The step caps of the node-count narrowing and of the root-find.
_MAX_NARROWING = 60
_ROOT_MAXITER = 100
# quad_norm's trapezoid rule: the first sum's panel count, the relative
# agreement of two successive sums that ends the halving, and the panel cap.
_TRAPEZOID_PANELS = 32
_TRAPEZOID_RTOL = 1e-10
_TRAPEZOID_MAX_PANELS = 1 << 14


def _outer_turning_point(e: float, w: float) -> float:
    """Largest root of 2 e s^2 + 2 s - w^2 = 0 for e < 0 (Coulomb units)."""
    disc = 1.0 + 2.0 * e * w * w
    if disc <= 0.0:
        return 1.0 / (-e)
    return (1.0 + math.sqrt(disc)) / (-2.0 * e)


def _integrate(w: float, e: float, x0: float, x1: float, y0: float,
               dy0: float) -> tuple[int, float, float]:
    """Integrate R_xx = q R, q = w^2 - 2 e^x - 2 e e^{2x}, from x0 to x1
    (either direction) at trial energy e, with the Cash-Karp 5(4) pair and
    local error tolerance _ODE_TOL.

    Returns (sign changes of R, R, R_x) with the final pair rescaled by an
    arbitrary positive factor.

    Stage 5 is evaluated at x + h, the start of the next step, so an
    accepted step hands its q on as the next step's stage 1.
    """
    exp = math.exp
    w2 = w * w
    te = 2.0 * e
    direction = 1.0 if x1 >= x0 else -1.0
    x = x0
    y, dy = y0, dy0
    h = 1e-4 * direction
    nodes = 0
    span = abs(x1 - x0)
    s = exp(x)
    q1 = w2 - 2.0 * s - te * s * s
    while (x1 - x) * direction > 0.0:
        last = (x + h - x1) * direction >= 0.0
        if last:
            h = x1 - x
        k1y = dy
        k1d = q1 * y

        yy = y + h * 0.2 * k1y
        dd = dy + h * 0.2 * k1d
        s = exp(x + 0.2 * h)
        k2y = dd
        k2d = (w2 - 2.0 * s - te * s * s) * yy

        yy = y + h * (3.0 / 40.0 * k1y + 9.0 / 40.0 * k2y)
        dd = dy + h * (3.0 / 40.0 * k1d + 9.0 / 40.0 * k2d)
        s = exp(x + 0.3 * h)
        k3y = dd
        k3d = (w2 - 2.0 * s - te * s * s) * yy

        yy = y + h * (0.3 * k1y - 0.9 * k2y + 1.2 * k3y)
        dd = dy + h * (0.3 * k1d - 0.9 * k2d + 1.2 * k3d)
        s = exp(x + 0.6 * h)
        k4y = dd
        k4d = (w2 - 2.0 * s - te * s * s) * yy

        yy = y + h * (-11.0 / 54.0 * k1y + 2.5 * k2y - 70.0 / 27.0 * k3y
                      + 35.0 / 27.0 * k4y)
        dd = dy + h * (-11.0 / 54.0 * k1d + 2.5 * k2d - 70.0 / 27.0 * k3d
                       + 35.0 / 27.0 * k4d)
        s = exp(x + h)
        q5 = w2 - 2.0 * s - te * s * s
        k5y = dd
        k5d = q5 * yy

        yy = y + h * (1631.0 / 55296.0 * k1y + 175.0 / 512.0 * k2y
                      + 575.0 / 13824.0 * k3y + 44275.0 / 110592.0 * k4y
                      + 253.0 / 4096.0 * k5y)
        dd = dy + h * (1631.0 / 55296.0 * k1d + 175.0 / 512.0 * k2d
                       + 575.0 / 13824.0 * k3d + 44275.0 / 110592.0 * k4d
                       + 253.0 / 4096.0 * k5d)
        s = exp(x + 0.875 * h)
        k6y = dd
        k6d = (w2 - 2.0 * s - te * s * s) * yy

        y5 = y + h * (37.0 / 378.0 * k1y + 250.0 / 621.0 * k3y
                      + 125.0 / 594.0 * k4y + 512.0 / 1771.0 * k6y)
        d5 = dy + h * (37.0 / 378.0 * k1d + 250.0 / 621.0 * k3d
                       + 125.0 / 594.0 * k4d + 512.0 / 1771.0 * k6d)
        y4 = y + h * (2825.0 / 27648.0 * k1y + 18575.0 / 48384.0 * k3y
                      + 13525.0 / 55296.0 * k4y + 277.0 / 14336.0 * k5y + 0.25 * k6y)
        d4 = dy + h * (2825.0 / 27648.0 * k1d + 18575.0 / 48384.0 * k3d
                       + 13525.0 / 55296.0 * k4d + 277.0 / 14336.0 * k5d + 0.25 * k6d)

        scale = abs(y5) + abs(h * d5) + 1e-300
        err = max(abs(y5 - y4), abs(h * (d5 - d4))) / (scale * _ODE_TOL)
        if err <= 1.0:
            x = x1 if last else x + h
            q1 = q5
            prev = y
            y, dy = y5, d5
            if prev != 0.0 and y != 0.0 and (prev < 0.0) != (y < 0.0):
                nodes += 1
            m = max(abs(y), abs(dy))
            if m > _RESCALE_AT:
                y /= m
                dy /= m
        h *= max(0.2, min(5.0, 0.9 * err**-0.2)) if err > 0.0 else 5.0
        if abs(h) < 1e-14 * span:
            raise DomainError("step size underflow in radial integration")
    return nodes, y, dy


def _log_derivative(w: float, e: float, s0: float, s1: float, g0: float) -> float:
    """Integrate the Riccati equation g_s = k^2 - 2/s + w^2/s^2 - g^2 - g/s,
    k^2 = -2e, for g = R_s / R inward from s0 to s1 < s0 at trial energy e,
    with the Cash-Karp 5(4) pair and local error tolerance _ODE_TOL relative
    to g at the step's start, and return g at s1.  The first step is a tenth
    of the decay length 1/k.

    This is the inward leg: past the outer turning point the decaying R is
    positive, convex and falling, so g < 0 throughout and tends to -k far
    out.  Integrated inward the equation is stable, errors decaying like
    e^{-2k |ds|}.  An accepted g >= 0 raises DomainError.  A g that is not
    finite is never accepted, as its error estimate is not finite either:
    the step shrinks until it underflows, which raises DomainError too.

    Each stage splits f = p(s) - g (g + 1/s), p = k^2 - 2/s + w^2/s^2;
    stage 5 is evaluated at s + h, so an accepted step hands its p and 1/s
    on as the next step's stage 1.
    """
    fabs = math.fabs
    k2 = -2.0 * e
    w2 = w * w
    s, g = s0, g0
    h = -0.1 / math.sqrt(k2)
    span = s0 - s1
    u1 = 1.0 / s
    p1 = k2 + u1 * (w2 * u1 - 2.0)
    while s > s1:
        last = s + h <= s1
        if last:
            h = s1 - s
        f1 = p1 - g * (g + u1)

        gg = g + h * 0.2 * f1
        u = 1.0 / (s + 0.2 * h)
        f2 = k2 + u * (w2 * u - 2.0) - gg * (gg + u)

        gg = g + h * (3.0 / 40.0 * f1 + 9.0 / 40.0 * f2)
        u = 1.0 / (s + 0.3 * h)
        f3 = k2 + u * (w2 * u - 2.0) - gg * (gg + u)

        gg = g + h * (0.3 * f1 - 0.9 * f2 + 1.2 * f3)
        u = 1.0 / (s + 0.6 * h)
        f4 = k2 + u * (w2 * u - 2.0) - gg * (gg + u)

        gg = g + h * (-11.0 / 54.0 * f1 + 2.5 * f2 - 70.0 / 27.0 * f3 + 35.0 / 27.0 * f4)
        u5 = 1.0 / (s + h)
        p5 = k2 + u5 * (w2 * u5 - 2.0)
        f5 = p5 - gg * (gg + u5)

        gg = g + h * (1631.0 / 55296.0 * f1 + 175.0 / 512.0 * f2 + 575.0 / 13824.0 * f3
                      + 44275.0 / 110592.0 * f4 + 253.0 / 4096.0 * f5)
        u = 1.0 / (s + 0.875 * h)
        f6 = k2 + u * (w2 * u - 2.0) - gg * (gg + u)

        g5 = g + h * (37.0 / 378.0 * f1 + 250.0 / 621.0 * f3 + 125.0 / 594.0 * f4
                      + 512.0 / 1771.0 * f6)
        g4 = g + h * (2825.0 / 27648.0 * f1 + 18575.0 / 48384.0 * f3
                      + 13525.0 / 55296.0 * f4 + 277.0 / 14336.0 * f5 + 0.25 * f6)
        err = fabs(g5 - g4) / (-_ODE_TOL * g + 1e-300)
        if err <= 1.0:
            s = s1 if last else s + h
            u1, p1 = u5, p5
            g = g5
            if not g < 0.0:
                raise DomainError(f"inward log-derivative {g} at s = {s} is not negative "
                                  f"(w = {w}, e = {e})")
        # a NaN err shrinks the step, as an infinite one does
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
        if abs(h) < 1e-14 * span:
            raise DomainError("step size underflow in radial integration")
    return g


def _outward_start(w: float, e_guess: float) -> float:
    """Where the outward leg starts: a quarter of e_guess's inner turning
    point, the smaller root of 2 e s^2 + 2 s - w^2 = 0 (w^2 where it has
    none), but at most 2w and at least _R_START / alpha.

    q = w^2 - 2 s - 2 e s^2 > 0 below w^2 / 2 at every e < 0, so the regular
    solution grows there without a node and starting past it skips only
    pure growth.  The series that gives the start alternates: at s = 2w its
    largest term is at most about 15 times its sum, while at a quarter of
    the turning point it reaches 3e7 times the sum at w = 45.
    """
    s_inner = w * w / (1.0 + math.sqrt(max(1.0 + 2.0 * e_guess * w * w, 0.0)))
    return max(min(0.25 * s_inner, 2.0 * w), _R_START / math.sqrt(-8.0 * e_guess))


def _regular_series(w: float, e: float, s: float) -> tuple[float, float]:
    """(R, R_x) of the regular solution at s, up to the positive factor s^w.

    The Frobenius series R = s^w sum_k c_k s^k of R_xx = q R has c_0 = 1 and
    c_k k (k + 2w) = -2 c_{k-1} - 2 e c_{k-2}.  Once k (k + 2w) exceeds
    4 (s + |e| s^2), each term is below half the larger of the two before
    it, so the sum ends at the second term in a row below the last bit.
    """
    t2, t1 = 0.0, 1.0
    y, dy = 1.0, w
    growth = 4.0 * (s - e * s * s)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        t = (-2.0 * s * t1 - 2.0 * e * s * s * t2) / (k * (k + 2.0 * w))
        y += t
        dy += (w + k) * t
        if (k * (k + 2.0 * w) > growth
                and (w + k) * max(abs(t), abs(t1)) <= 1e-17 * (abs(y) + abs(dy))):
            return y, dy
        t2, t1 = t1, t
    raise DomainError(f"Frobenius series at s = {s} did not converge in "
                      f"{_SERIES_MAX_TERMS} terms (w = {w}, e = {e})")


def _tail_start(e: float, w: float) -> float:
    """Where the inward leg starts: the first s_tp + d, d = k^-1 1.25^j with
    k = sqrt(-2e) and s_tp the outer turning point, at which the chord
    (d / 2) sqrt(q_s(s_tp + d)) reaches _TAIL_ACTION.  q_s = k^2 - 2/s +
    w^2/s^2 vanishes at s_tp and its root rises concavely past it, so the
    chord bounds the WKB action from below; q_s tends to k^2 far out, so the
    chord grows like k d / 2 and the search ends.  (Where q_s has no root,
    s_tp = -1/e and q_s > 0 throughout.)"""
    s_tp = _outer_turning_point(e, w)
    k2 = -2.0 * e
    d = 1.0 / math.sqrt(k2)
    s = s_tp + d
    while 0.5 * d * math.sqrt(max(k2 - 2.0 / s + w * w / (s * s), 0.0)) < _TAIL_ACTION:
        d *= 1.25
        s = s_tp + d
    return s


def _shots(w: float, e_guess: float) -> Callable[[float], tuple[int, float]]:
    """The matching shot, e -> (nodes, W), memoized, with the outward start
    set by the predicted energy e_guess.

    W is the normalized Wronskian of the outward and inward solutions at the
    outer turning point, zero exactly at an eigenvalue: the outward leg
    gives (R, R_x) there, and the inward Riccati leg the inward solution's
    v = R_x / R = s g, so its (R, R_x) is (1, v).  nodes counts the
    regular solution's zeros on the whole half-line: past the turning point
    q > 0, so R crosses zero at most once more than the outward leg's sign
    changes.  R starts positive and the inward solution is positive without
    a node, so W is positive below the lowest level and changes sign at
    each eigenvalue: its sign is (-1)^nodes, and the extra zero is there
    exactly where W and R at the turning point differ in sign.
    """
    s0 = _outward_start(w, e_guess)
    x0 = math.log(s0)
    shots: dict[float, tuple[int, float]] = {}

    def shot(e: float) -> tuple[int, float]:
        if e not in shots:
            s_tp = _outer_turning_point(e, w)
            nodes, yo, dyo = _integrate(w, e, x0, math.log(s_tp), *_regular_series(w, e, s0))
            s_in = _tail_start(e, w)
            # WKB slope of the solution that decays outward (grows inward)
            q = max(w * w - 2.0 * s_in - 2.0 * e * s_in * s_in, 0.0)
            # R_x / R of the inward solution at the turning point
            v = s_tp * _log_derivative(w, e, s_in, s_tp, -math.sqrt(q) / s_in)
            wr = (dyo - v * yo) / (math.hypot(yo, dyo) * math.hypot(1.0, v))
            shots[e] = nodes + ((wr < 0.0) != (yo < 0.0)), wr
        return shots[e]

    return shot


def _illinois(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
              xtol: float, rtol: float) -> float:
    """Zero of f between a and b, where fa = f(a) and fb = f(b) differ in
    sign.  Each step replaces an end by the secant point c, and halves the
    f value of an end kept twice in a row (the Illinois rule).  Returns c
    once |b - a| <= 2 (xtol + rtol |c|), or an end where f is zero; more
    than _ROOT_MAXITER steps raise DomainError."""
    side = 0  # which end the last step replaced: -1 for a, 1 for b
    for _ in range(_ROOT_MAXITER):
        if fa == 0.0 or fb == 0.0:
            return a if fa == 0.0 else b
        c = b - fb * (b - a) / (fb - fa)
        if abs(b - a) <= 2.0 * (xtol + rtol * abs(c)):
            return c
        fc = f(c)
        if (fc < 0.0) == (fb < 0.0):
            b, fb = c, fc
            if side == 1:
                fa *= 0.5
            side = 1
        else:
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
    raise DomainError(f"root-find did not converge in {_ROOT_MAXITER} steps "
                      f"between {a} and {b}")


def _solve_scaled(w: float, n_r: int, e_guess: float) -> tuple[float, int]:
    """Find the Coulomb-unit eigenvalue with n_r interior nodes.

    Returns (e, nodes measured at the lower end of the root bracket).  The
    search window [1.5 e_guess, 0.5 e_guess] around the predicted energy is
    halved by node count, from its midpoint e_guess on, until its ends count
    n_r and n_r + 1 nodes, so that it holds level n_r alone; each step keeps
    the half whose ends count at most n_r and more than n_r nodes, so the
    end it drops is never shot.  The Wronskian's signs at the two ends then
    differ, and the Illinois method finds its zero between them.
    """
    shot = _shots(w, e_guess)
    lo, hi = 1.5 * e_guess, 0.5 * e_guess
    for _ in range(_MAX_NARROWING):
        mid = 0.5 * (lo + hi)
        if shot(mid)[0] <= n_r:
            lo = mid
        else:
            hi = mid
        (n_lo, w_lo), (n_hi, w_hi) = shot(lo), shot(hi)
        if n_lo > n_r or n_hi < n_r + 1:
            raise DomainError(
                f"no eigenvalue bracket in [{lo}, {hi}]: node counts "
                f"({n_lo}, {n_hi}) vs target {n_r}"
            )
        # For high states the first half-window also holds level n_r + 1.
        if n_lo == n_r and n_hi == n_r + 1:
            break
    else:
        raise DomainError(f"node counts never isolated level {n_r}")
    e = _illinois(lambda e: shot(e)[1], lo, w_lo, hi, w_hi,
                  _ROOT_RTOL * abs(e_guess), _ROOT_RTOL)
    return e, n_lo


def shoot_with_nodes(problem: RelativeProblem, m: int, n_r: int) -> tuple[float, int]:
    """(ODE eigenvalue with n_r interior nodes in physical units, node count
    measured at the lower bracket end)."""
    if problem.kappa <= 0.0:
        raise DomainError("shooting requires attraction (kappa > 0)")
    if n_r < 0:
        raise ValueError("n_r must be non-negative")
    w = effective_exponent(m, problem.nu)
    lam = n_r + w + 0.5
    # the closed-form energy only centres the search window
    e_scaled, nodes = _solve_scaled(w, n_r, -1.0 / (2.0 * lam * lam))
    unit = problem.reduced_mass * problem.kappa**2
    return e_scaled * unit, nodes


def _trapezoid(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Trapezoid sum of f over [a, b] and its error estimate |T(h) - T(2h)|.

    Each pass halves the step and evaluates f at the new midpoints only.  For
    an f analytic in a strip about [a, b] and negligible at both ends the
    error falls geometrically in 1/h, so the estimate bounds the coarser
    sum's error and the finer sum is far closer than that.
    """
    n = _TRAPEZOID_PANELS
    h = (b - a) / n
    total = 0.5 * (f(a) + f(b)) + math.fsum(f(a + k * h) for k in range(1, n))
    value = h * total
    while True:
        h *= 0.5
        total += math.fsum(f(a + (2 * k + 1) * h) for k in range(n))
        n *= 2
        finer = h * total
        err, value = abs(finer - value), finer
        if err <= _TRAPEZOID_RTOL * abs(value) or n >= _TRAPEZOID_MAX_PANELS:
            return value, err


def quad_norm(qn: QuantumNumbers, problem: RelativeProblem) -> float:
    """Numerical norm integral |psi|^2 over the plane.

    The angular factor has unit modulus so the theta integral is exactly
    2 pi.  The radial integral runs over x = ln rho, rho = alpha r, where
    |psi|^2 r dr = |psi|^2 rho^2 / alpha^2 dx is analytic for |Im x| < pi/2
    and falls like e^{(2w+2) x} on the left and double-exponentially on the
    right.  The range drops about e^{-40} of the left tail and cuts the right
    one at rho = 8 lambda + 60.  The integrand goes through
    bound.wavefunction, built once, as (|psi| rho / alpha)^2, which stays
    O(1) at any mu and kappa.
    """
    psi = wavefunction(qn, problem)
    w = effective_exponent(qn.m, problem.nu)
    lam = qn.n_r + w + 0.5
    alpha = 2.0 * problem.reduced_mass * problem.kappa / lam
    if alpha < sys.float_info.min:
        raise DomainError(f"norm quadrature: the decay rate 2 mu kappa / lambda underflows to 0 "
                          f"or a subnormal at mu = {problem.reduced_mass}, "
                          f"kappa = {problem.kappa}")

    def integrand(x: float) -> float:
        rho = math.exp(x)
        return (abs(psi(rho / alpha, 0.0)) * rho / alpha) ** 2

    x_min, x_max = -40.0 / (2.0 * w + 2.0), math.log(8.0 * lam + 60.0)
    try:
        value, err_est = _trapezoid(integrand, x_min, x_max)
    except OverflowError:
        raise DomainError(f"norm quadrature overflows for (n_r, m) = ({qn.n_r}, {qn.m}) "
                          f"at nu = {problem.nu}") from None
    if err_est > 1e-7:
        raise DomainError(f"norm quadrature error estimate {err_est:.2e}")
    return 2.0 * math.pi * value
