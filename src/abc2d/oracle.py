"""Independent numerical verification of the closed-form bound states.

Two oracles that share no special-function code with the closed forms:

* ``shoot_with_nodes`` solves the radial equation

      R'' + R'/r + [2 mu E + 2 mu kappa / r - (m+nu)^2 / r^2] R = 0

  for both legs of a matching shot by one Riccati equation.  In Coulomb
  units (radius s, energy e, w = |m + nu|) it is R_xx = q R in x = ln s,
  q = w^2 - 2 s - 2 e s^2, and v = R_x / R = s R_s / R obeys

      v_s = (q - v^2) / s,

  which one Cash-Karp 5(4) embedded pair integrates in s itself: each stage
  is one scalar rational expression, with no exp and no rescaling (Johnson,
  *J. Comput. Phys.* 13, 445, 1973).  The inward solution, which decays
  outward without a node, keeps v near -sqrt(q), where the equation
  integrated inward is stable.  The outward solution oscillates, and v has
  a pole at each of its zeros: wherever |v| > 1.25 sigma, sigma =
  sqrt(max(|q|, 1)), a step carries u = 1/v instead, by u_s = (1 - q u^2) /
  s, and u passes through each zero of R, so the zeros are u's sign
  changes.  Both forms hold each step's local error to one tolerance in the
  scaled Pruefer angle, d psi = sigma dv / (sigma^2 + v^2) (Pryce,
  *Numerical Solution of Sturm-Liouville Problems*, 1993).

  The outward solution starts from its Frobenius series R = s^w sum c_k s^k,
  summed at a quarter of the inner classical turning point (at most s = 2w).
  Below w^2 / 2 the radial equation is classically forbidden at every
  energy, so R grows there as a pure power without a node and needs no
  steps.  The inward solution starts from its WKB log-derivative where a
  lower bound on the WKB action from the outer turning point reaches 12, so
  its admixed growing mode is damped by at least e^-24 and its steps cover
  no more decaying tail than that.

  Each trial energy takes one matching shot (Pryce): the outward leg runs
  from the series start to the outer turning point, the inward leg from the
  decaying tail to the same point, and each is integrated once.  The shot
  returns the normalized Wronskian W of the two legs there, zero exactly at
  an eigenvalue, and the eigenvalue index: the outward leg's zeros, plus one
  where W's sign is not (-1)^zeros, the sign of R at the turning point.  R
  starts positive and the inward solution has no node, so W has the sign
  (-1)^nodes at every trial energy.  Node counts bracket level n_r alone,
  n_r nodes at the lower end and n_r + 1 at the upper, so W changes sign
  across the bracket, and the Illinois method finds its zero.  The node
  count returned with the eigenvalue is the lower end's, n_r by
  construction, so it checks nothing by itself: the level assignment is
  checked by a node-count bracket existing at all (DomainError otherwise)
  and by the energy agreeing with the closed form.

* ``quad_norm`` integrates |psi|^2 over the plane with the trapezoid rule in
  x = ln(alpha r), halving the step until two sums agree; the angular
  integral is exactly 2 pi.  The integrand is analytic in a strip about the
  real x axis and negligible at both ends of the range, so the rule converges
  geometrically (Trefethen & Weideman, SIAM Review 56, 385, 2014).  Each
  pass evaluates the closed form's radial factor once, over the list of its
  new abscissae.

The ODE path never touches the confluent hypergeometric code, and both
oracles read w = |m + nu| off the Hamiltonian, not from bound, so agreement
with the closed-form energies is a genuine cross-check.

The oracles need nothing outside the standard library: the root-finder
``_illinois`` is the Illinois modified regula falsi (Dowell & Jarratt, *BIT*
11, 168, 1971).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .bound import QuantumNumbers, _factors
from .errors import DomainError
from .reduction import RelativeProblem

# The inward solution starts where a lower bound on the WKB action from the
# outer turning point reaches this value, so the admixed growing mode is
# damped by at least e^-24 on the way in.
_TAIL_ACTION = 12.0
# The Frobenius series of the outward start converges in a few dozen terms
# on the shooting domain; more than this many is a DomainError.
_SERIES_MAX_TERMS = 200
# The outward solution starts no nearer the origin than _R_START in units
# of the closed-form inverse decay scale 1/alpha, and every leg holds each
# step's local error in the scaled Pruefer angle to _ODE_TOL.
_R_START = 1e-6
_ODE_TOL = 1e-11
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


def _riccati(w: float, e: float, s0: float, s1: float,
             v0: float) -> tuple[int, float, bool]:
    """Integrate v = s R_s / R = R_x / R from v(s0) = v0 to s1 (either
    direction) at trial energy e, by v_s = (q - v^2) / s with q = w^2 - 2 s
    - 2 e s^2, using the Cash-Karp 5(4) pair.

    Where |v| > 1.25 sigma, sigma = sqrt(max(|q|, 1)), a step carries
    u = 1 / v instead, by u_s = (1 - q u^2) / s: v has a pole at each zero
    of R, and u passes through it, changing sign.  Each step holds its local
    error to _ODE_TOL in the scaled Pruefer angle, d psi = sigma dv /
    (sigma^2 + v^2) = -sigma du / (1 + sigma^2 u^2), at the step's start.
    The first step is a tenth of min(s0, 1/k), k = sqrt(-2e).

    Returns (zeros of R passed, v at s1 or u where the last step carried u,
    whether it did).  A non-finite s0, s1 or v0 raises DomainError, and so
    do an end s0 or s1 that is not positive (v_s has a pole at s = 0, and a
    first step from s0 < 0 points away from s1) and an e >= 0, which has no
    k = sqrt(-2e) for the first step.  A stage that is not finite is never
    accepted, as its error estimate is not finite either: an infinite or NaN
    estimate shrinks the step by the least factor, 0.2, until it falls below
    1e-14 of the leg's span, which raises DomainError too.  Stage 5 is evaluated at s + h, so an accepted
    step hands its q on as the next step's stage 1.
    """
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise DomainError(f"leg ends s = {s0} and s = {s1} are not both finite "
                          f"(w = {w}, e = {e})")
    if s0 <= 0.0 or s1 <= 0.0:
        raise DomainError(f"leg ends s = {s0} and s = {s1} are not both positive "
                          f"(w = {w}, e = {e})")
    if e >= 0.0:
        raise DomainError(f"trial energy e = {e} is not negative (w = {w})")
    if not math.isfinite(v0):
        raise DomainError(f"log-derivative start {v0} at s = {s0} is not finite "
                          f"(w = {w}, e = {e})")
    fabs, sqrt = math.fabs, math.sqrt
    tol = _ODE_TOL
    w2 = w * w
    te = 2.0 * e
    direction = 1.0 if s1 >= s0 else -1.0
    s, y, inverted = s0, v0, False
    nodes = 0
    h = 0.1 * direction * min(s0, 1.0 / sqrt(-te))
    tiny = 1e-14 * abs(s1 - s0)
    q1 = w2 - s * (2.0 + te * s)
    while (s1 - s) * direction > 0.0:
        last = (s + h - s1) * direction >= 0.0
        if last:
            h = s1 - s
        # max(|q1|, 1), NaN kept
        sig2 = -q1 if q1 < -1.0 else 1.0 if q1 <= 1.0 else q1
        # whether |v| > 1.25 sigma
        big = y * y * sig2 < 0.64 if inverted else y * y > 1.5625 * sig2
        if big != inverted:
            y, inverted = 1.0 / y, big
        f1 = ((1.0 - q1 * y * y) if inverted else (q1 - y * y)) / s

        yy = y + h * 0.2 * f1
        t = s + 0.2 * h
        q = w2 - t * (2.0 + te * t)
        f2 = ((1.0 - q * yy * yy) if inverted else (q - yy * yy)) / t

        yy = y + h * (3.0 / 40.0 * f1 + 9.0 / 40.0 * f2)
        t = s + 0.3 * h
        q = w2 - t * (2.0 + te * t)
        f3 = ((1.0 - q * yy * yy) if inverted else (q - yy * yy)) / t

        yy = y + h * (0.3 * f1 - 0.9 * f2 + 1.2 * f3)
        t = s + 0.6 * h
        q = w2 - t * (2.0 + te * t)
        f4 = ((1.0 - q * yy * yy) if inverted else (q - yy * yy)) / t

        yy = y + h * (-11.0 / 54.0 * f1 + 2.5 * f2 - 70.0 / 27.0 * f3 + 35.0 / 27.0 * f4)
        t5 = s + h
        q5 = w2 - t5 * (2.0 + te * t5)
        f5 = ((1.0 - q5 * yy * yy) if inverted else (q5 - yy * yy)) / t5

        yy = y + h * (1631.0 / 55296.0 * f1 + 175.0 / 512.0 * f2 + 575.0 / 13824.0 * f3
                      + 44275.0 / 110592.0 * f4 + 253.0 / 4096.0 * f5)
        t = s + 0.875 * h
        q = w2 - t * (2.0 + te * t)
        f6 = ((1.0 - q * yy * yy) if inverted else (q - yy * yy)) / t

        y5 = y + h * (37.0 / 378.0 * f1 + 250.0 / 621.0 * f3 + 125.0 / 594.0 * f4
                      + 512.0 / 1771.0 * f6)
        y4 = y + h * (2825.0 / 27648.0 * f1 + 18575.0 / 48384.0 * f3
                      + 13525.0 / 55296.0 * f4 + 277.0 / 14336.0 * f5 + 0.25 * f6)
        angle = (1.0 + sig2 * y * y) if inverted else (sig2 + y * y)
        err = fabs(y5 - y4) * sqrt(sig2) / (angle * tol)
        if err <= 1.0:
            s = s1 if last else s + h
            q1 = q5
            if inverted and (y < 0.0) != (y5 < 0.0):
                nodes += 1
            y = y5
        if err == 0.0:
            h *= 5.0
        else:
            # the factor clamped to [0.2, 5]; a NaN err, like an infinite
            # one, gives 0.2
            g = 0.9 * err**-0.2
            h *= 5.0 if g > 5.0 else g if g > 0.2 else 0.2
        if abs(h) < tiny:
            raise DomainError("step size underflow in radial integration")
    return nodes, y, inverted


def _leg_end(nodes: int, y: float, inverted: bool) -> tuple[float, float]:
    """(R, R_x) at the end of a _riccati leg from R > 0 that returned
    (nodes, y, inverted), as a unit vector: R has the sign (-1)^nodes, and
    R_x has R's sign where u = R / R_x >= 0."""
    if not inverted:
        r, rx = 1.0, y
    elif y < 0.0:
        r, rx = -y, -1.0
    else:
        r, rx = y, 1.0
    scale = (-1.0 if nodes % 2 else 1.0) / math.hypot(r, rx)
    return r * scale, rx * scale


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
    outer turning point, zero exactly at an eigenvalue, from the (R, R_x)
    that _leg_end gives for each leg there.  Past the turning point the
    solution that decays outward is positive, convex and falling, so the
    inward leg must end with v < 0 and no zero of R passed; otherwise
    DomainError.  nodes counts the regular solution's zeros on the whole
    half-line: past the turning point q > 0, so R crosses zero at most once
    more than on the outward leg.  R starts positive and the inward solution
    is positive without a node, so W is positive below the lowest level and
    changes sign at each eigenvalue: its sign is (-1)^nodes, and the extra
    zero is there exactly where W's sign is not R's at the turning point.
    """
    s0 = _outward_start(w, e_guess)
    shots: dict[float, tuple[int, float]] = {}

    def shot(e: float) -> tuple[int, float]:
        if e not in shots:
            s_tp = _outer_turning_point(e, w)
            y, dy = _regular_series(w, e, s0)
            nodes, yo, inv_o = _riccati(w, e, s0, s_tp, dy / y)
            s_in = _tail_start(e, w)
            # WKB slope of the solution that decays outward (grows inward)
            q = max(w * w - 2.0 * s_in - 2.0 * e * s_in * s_in, 0.0)
            n_in, yi, inv_i = _riccati(w, e, s_in, s_tp, -math.sqrt(q))
            if n_in or not yi < 0.0:
                raise DomainError(f"inward log-derivative at s = {s_tp} is not negative "
                                  f"({n_in} nodes, {'u' if inv_i else 'v'} = {yi}; "
                                  f"w = {w}, e = {e})")
            ro, rxo = _leg_end(nodes, yo, inv_o)
            ri, rxi = _leg_end(0, yi, inv_i)
            wr = rxo * ri - ro * rxi
            shots[e] = nodes + ((wr < 0.0) != (nodes % 2 == 1)), wr
        return shots[e]

    return shot


def _illinois(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
              xtol: float, rtol: float) -> float:
    """Zero of f between a and b, where fa = f(a) and fb = f(b) differ in
    sign.  Each step replaces an end by the secant point c, and halves the
    f value of an end kept twice in a row (the Illinois rule).  The end
    with the smaller |f| counts as replaced by the step before the first,
    so when the first secant point lands on its side the other end's f is
    halved at once: an end within noise of the root would otherwise draw
    the secant points to its side twice.  Returns c once |b - a| <= 2 (xtol
    + rtol |c|), or an end where f is zero; more than _ROOT_MAXITER steps
    raise DomainError."""
    side = -1 if abs(fa) < abs(fb) else 1  # which end the last step replaced
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

    Returns (e, nodes measured at the lower end of the root bracket), and
    that count is n_r whenever this returns.  The search window
    [1.5 e_guess, 0.5 e_guess] around the predicted energy is
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
    measured at the lower bracket end).  The count is n_r whenever this
    returns, since the bracket search accepts no other; the level is checked
    by a bracket existing at all and by the energy itself."""
    if problem.kappa <= 0.0:
        raise DomainError("shooting requires attraction (kappa > 0)")
    if n_r < 0:
        raise ValueError("n_r must be non-negative")
    w = abs(m + problem.nu)
    lam = n_r + w + 0.5
    # the closed-form energy only centres the search window
    e_scaled, nodes = _solve_scaled(w, n_r, -1.0 / (2.0 * lam * lam))
    unit = problem.reduced_mass * problem.kappa**2
    return e_scaled * unit, nodes


def _trapezoid(f: Callable[[list[float]], list[float]], a: float,
               b: float) -> tuple[float, float]:
    """Trapezoid sum of f over [a, b] and its error estimate |T(h) - T(2h)|.

    f maps a list of abscissae to the list of their values, and each pass
    makes one call: the first at a, b and the interior points in order,
    each later one, which halves the step, at the new midpoints only.  For
    an f analytic in a strip about [a, b] and negligible at both ends the
    error falls geometrically in 1/h, so the estimate bounds the coarser
    sum's error and the finer sum is far closer than that.
    """
    n = _TRAPEZOID_PANELS
    h = (b - a) / n
    fa, fb, *inner = f([a, b] + [a + k * h for k in range(1, n)])
    total = 0.5 * (fa + fb) + math.fsum(inner)
    value = h * total
    while True:
        h *= 0.5
        total += math.fsum(f([a + (2 * k + 1) * h for k in range(n)]))
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
    one at rho = 8 lambda + 60.  The integrand is (|R| rho / alpha)^2, which
    stays O(1) at any mu and kappa, from psi's radial factor R as bound
    builds it, once, and evaluates it over each pass's list of radii; the
    phase has modulus 1 and is left out.
    """
    radial, _ = _factors(qn, problem)
    w = abs(qn.m + problem.nu)
    lam = qn.n_r + w + 0.5
    alpha = 2.0 * problem.reduced_mass * problem.kappa / lam
    if alpha < sys.float_info.min:
        raise DomainError(f"norm quadrature: the decay rate 2 mu kappa / lambda underflows to 0 "
                          f"or a subnormal at mu = {problem.reduced_mass}, "
                          f"kappa = {problem.kappa}")

    def integrand(xs: list[float]) -> list[float]:
        rhos = [math.exp(x) for x in xs]
        return [(abs(value) * rho / alpha) ** 2
                for value, rho in zip(radial([rho / alpha for rho in rhos]), rhos)]

    x_min, x_max = -40.0 / (2.0 * w + 2.0), math.log(8.0 * lam + 60.0)
    try:
        value, err_est = _trapezoid(integrand, x_min, x_max)
    except OverflowError:
        raise DomainError(f"norm quadrature overflows for (n_r, m) = ({qn.n_r}, {qn.m}) "
                          f"at nu = {problem.nu}") from None
    if err_est > 1e-7:
        raise DomainError(f"norm quadrature error estimate {err_est:.2e}")
    return 2.0 * math.pi * value
