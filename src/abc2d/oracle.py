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
  solution shot outward from the indicial behavior R ~ r^{|m+nu|} bracket
  level n_r alone: n_r nodes at the lower end, n_r + 1 at the upper.  A
  node count stops at the first step past the outer turning point where R
  and R_x share a sign: R_xx has the sign of R there, so the solution then
  grows monotonically and no further node can occur.  Brent's method then
  finds the root of the normalized Wronskian of that outward solution and
  one integrated inward from the decaying tail, matched at the outer
  turning point (the matching method of Pryce, *Numerical Solution of
  Sturm-Liouville Problems*, 1993).  Each trial energy's outward leg, from
  the origin to the turning point, is integrated once and serves both its
  node count and its Wronskian.  The reported node count is the one
  measured at the lower bracket end, so it checks the level assignment
  independently of the root-find.

* ``quad_norm`` integrates |psi|^2 over the plane with adaptive quadrature on
  the compactified variable u = rho / (1 + rho); the angular integral is
  exactly 2 pi.

The ODE path never touches the confluent hypergeometric code, so agreement
with the closed-form energies is a genuine cross-check.

The root-finder and the quadrature are in-package ports, so the oracles need
nothing outside the standard library:

* ``_brent`` is scipy's ``brentq.c`` (Brent, *Algorithms for Minimization
  without Derivatives*, 1973), line by line;
* ``_qags`` is QUADPACK's ``dqagse`` with its helpers ``dqk21``, ``dqpsrt``
  and ``dqelg`` (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
  *QUADPACK*, Springer 1983), keeping the Fortran's operation order.

Both return the same floats as ``scipy.optimize.brentq`` and
``scipy.integrate.quad`` bit for bit; the tests check that against scipy.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .bound import QuantumNumbers, effective_exponent, energy, wavefunction
from .errors import DomainError
from .reduction import RelativeProblem

# The state (R, R_x) is renormalized once it exceeds this magnitude.
_RESCALE_AT = 1e100
# The inward solution starts where the decaying tail has fallen this many
# e-folds below its value at the turning point; the admixed growing mode is
# damped by about twice that on the way in.
_TAIL_EFOLDS = 40.0
# Shooting domain: the outward solution starts at _R_START in units of the
# closed-form inverse decay scale 1/alpha and runs to _R_MAX outer classical
# turning points; every integration keeps the local error below _ODE_TOL.
# _R_MAX must exceed 4: a trial energy in [1.5, 0.5] e_guess has its turning
# point at most 4 times that of e_guess, so every node count and Wronskian
# finds its turning point inside the domain.
_R_START = 1e-6
_R_MAX = 60.0
_ODE_TOL = 1e-10
# Relative energy tolerance of the Brent root-find, near the noise floor the
# _ODE_TOL integrations leave in the matching Wronskian.
_ROOT_RTOL = 1e-10
# When both bracket ends show the same Wronskian sign, the end below this
# magnitude is the eigenvalue itself; the observed noise there is ~5e-11.
_ROOT_NOISE = 1e-8
# Brent starts from a node bracket at most this share of |e_guess| wide.
# Across the whole initial window the Wronskian is curved enough that Brent
# needs 8-10 evaluations of two integrations each; a node-count bisection
# step costs about one.
_BRENT_WINDOW = 0.5
_MAX_NARROWING = 60
# scipy.optimize.brentq's default iteration cap.
_BRENT_MAXITER = 100


def _outer_turning_point(e: float, w: float) -> float:
    """Largest root of 2 e s^2 + 2 s - w^2 = 0 for e < 0 (Coulomb units)."""
    disc = 1.0 + 2.0 * e * w * w
    if disc <= 0.0:
        return 1.0 / (-e)
    return (1.0 + math.sqrt(disc)) / (-2.0 * e)


def _integrate(w: float, e: float, x0: float, x1: float, y0: float, dy0: float,
               sign_lock: bool = False) -> tuple[int, float, float]:
    """Integrate R_xx = q R, q = w^2 - 2 e^x - 2 e e^{2x}, from x0 to x1
    (either direction) at trial energy e, with the Cash-Karp 5(4) pair and
    local error tolerance _ODE_TOL.

    Returns (sign changes of R, R, R_x) with the final pair rescaled by an
    arbitrary positive factor.  With sign_lock, integration stops at the
    first accepted step where R and R_x share a sign.  Callers set it only
    for a leg that runs outward from the outer turning point: q > 0 there,
    so once R R_x > 0 the solution grows monotonically and no further node
    can occur.

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
            if sign_lock and y * dy > 0.0:
                break
        h *= max(0.2, min(5.0, 0.9 * err**-0.2)) if err > 0.0 else 5.0
        if abs(h) < 1e-14 * span:
            raise DomainError("step size underflow in radial integration")
    return nodes, y, dy


def _shots(w: float, e_guess: float) -> tuple[Callable[[float], int],
                                               Callable[[float], float]]:
    """(node count, matching Wronskian) as functions of the trial energy, on
    the shooting domain set by the predicted energy e_guess.

    Both start from one outward leg per trial energy, integrated once from
    the Frobenius start to the outer turning point and kept: the node count
    continues it outward until growth is sign-locked, the Wronskian matches
    it against a leg integrated inward from the decaying tail.
    """
    alpha = math.sqrt(-8.0 * e_guess)
    s0 = _R_START / alpha
    x0 = math.log(s0)
    s_max = _R_MAX * _outer_turning_point(e_guess, w)
    x1 = math.log(s_max)
    # Frobenius start R = s^w (1 - 2 s/(2w+1)), normalized at s0; in the log
    # variable the slope is d ln R/dx times R.
    c1 = -2.0 / (2.0 * w + 1.0)
    y0 = 1.0 + c1 * s0
    dy0 = w * (1.0 + c1 * s0) + c1 * s0
    legs: dict[float, tuple[float, int, float, float]] = {}

    def outward(e: float) -> tuple[float, int, float, float]:
        """(x_tp, nodes, R, R_x) of the outward leg, x0 to the turning point x_tp."""
        if e not in legs:
            x_tp = math.log(_outer_turning_point(e, w))
            legs[e] = (x_tp, *_integrate(w, e, x0, x_tp, y0, dy0))
        return legs[e]

    def nodes_at(e: float) -> int:
        x_tp, nodes, y, dy = outward(e)
        return nodes + _integrate(w, e, x_tp, x1, y, dy, sign_lock=True)[0]

    def wronskian(e: float) -> float:
        """Normalized Wronskian of the outward and inward solutions at the
        outer turning point; zero exactly at an eigenvalue."""
        x_tp, _, yo, dyo = outward(e)
        s_in = min(s_max, _outer_turning_point(e, w) + _TAIL_EFOLDS / math.sqrt(-2.0 * e))
        # WKB slope of the solution that decays outward (grows inward)
        q = max(w * w - 2.0 * s_in - 2.0 * e * s_in * s_in, 0.0)
        _, yi, dyi = _integrate(w, e, math.log(s_in), x_tp, 1.0, -math.sqrt(q))
        return (dyo * yi - dyi * yo) / (math.hypot(yo, dyo) * math.hypot(yi, dyi))

    return nodes_at, wronskian


def _brent(f: Callable[[float], float], xa: float, xb: float,
           xtol: float, rtol: float) -> float:
    """Zero of f in [xa, xb] by Brent's method, to |error| < xtol + rtol |x|.

    A line-by-line port of scipy's ``brentq.c``, with the same 100-iteration
    cap as ``scipy.optimize.brentq``: it evaluates f at the same points and
    returns the same float.  A bracket whose ends have the same sign, or a
    search that does not converge, raises DomainError.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(f"Brent bracket [{xa}, {xb}] has no sign change")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise DomainError(f"Brent root-find did not converge in {_BRENT_MAXITER} "
                      f"iterations in [{xa}, {xb}]")


def _solve_scaled(w: float, n_r: int, e_guess: float) -> tuple[float, int]:
    """Find the Coulomb-unit eigenvalue with n_r interior nodes.

    Returns (e, nodes measured at the lower end of the root bracket).  The
    search window is [1.5 e_guess, 0.5 e_guess] around the predicted energy,
    narrowed by node count until it holds level n_r alone and is at most
    _BRENT_WINDOW |e_guess| wide; Brent's method then finds the zero of the
    matching Wronskian inside it.
    """
    nodes_at, wronskian = _shots(w, e_guess)
    lo, hi = 1.5 * e_guess, 0.5 * e_guess
    n_lo, n_hi = nodes_at(lo), nodes_at(hi)
    if n_lo > n_r or n_hi < n_r + 1:
        raise DomainError(
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
        raise DomainError(f"node counts never isolated level {n_r}")

    known = {lo: wronskian(lo), hi: wronskian(hi)}
    if (known[lo] < 0.0) == (known[hi] < 0.0):
        # The first narrowing midpoint is e_guess.  Where that is the
        # eigenvalue, the Wronskian there is integration noise
        # (~1e-11) of either sign, and that end is the root.
        end = min(known, key=lambda e: abs(known[e]))
        if abs(known[end]) > _ROOT_NOISE:
            raise DomainError(f"no Wronskian sign change in [{lo}, {hi}]")
        return end, n_lo
    e = _brent(lambda e: known[e] if e in known else wronskian(e), lo, hi,
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


# -- QUADPACK QAGS ---------------------------------------------------------------
#
# A transliteration of dqagse and its helpers dqk21, dqpsrt and dqelg
# (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer
# 1983), keeping the Fortran's operation order and comparisons so that it
# returns the same floats as scipy.integrate.quad.  The interval, error and
# epsilon-table arrays keep the Fortran's 1-based indices; slot 0 is unused.

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# 21-point Gauss-Kronrod rule on [-1, 1]: Kronrod abscissae (outermost first,
# the centre last) and weights; the abscissae at odd 0-based index are the
# 10-point Gauss nodes, with weights _WG.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208292750321, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# dqk21's two loops: (index, abscissa, Kronrod weight, Gauss weight) for the
# Gauss nodes, then (index, abscissa, Kronrod weight) for the others.
_QK21_GAUSS = tuple((j, _XGK[j], _WGK[j], _WG[j // 2]) for j in range(1, 10, 2))
_QK21_KRONROD = tuple((j, _XGK[j], _WGK[j]) for j in range(0, 10, 2))


def _qk21(f: Callable[[float], float], a: float,
          b: float) -> tuple[float, float, float, float]:
    """dqk21: (integral, error estimate, integral of |f|, integral of
    |f - mean|) by the 21-point Kronrod rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j, x, wk, wg in _QK21_GAUSS:
        absc = hlgth * x
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, x, wk in _QK21_KRONROD:
        absc = hlgth * x
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list[float],
           iord: list[int], nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep iord[1:] listing the intervals by descending error
    estimate; returns (maxerr, errmax, nrmax) of the next one to bisect."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # subdivision raised the error estimate: move up past nrmax
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only as many as the remaining bisections can reach stay sorted
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list[float], res3la: list[float],
          nres: int) -> tuple[int, float, float, int]:
    """dqelg: Wynn's epsilon algorithm on the n partial sums in epstab[1:];
    returns (n, extrapolated limit, its error estimate, nres).  epstab and
    res3la, the last three results, are updated in place."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two close elements, or irregular behaviour: drop part of the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qags(f: Callable[[float], float], a: float, b: float, epsabs: float,
          epsrel: float, limit: int) -> tuple[float, float]:
    """dqagse: (integral of f over [a, b], error estimate) by globally
    adaptive bisection of at most ``limit`` intervals, with Wynn's epsilon
    extrapolation past endpoint singularities.  The same floats as
    ``scipy.integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
    limit=limit)``.  QUADPACK's ier flag is not returned: where it is
    nonzero, the error estimate says how far the result can be trusted.
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        raise ValueError("QAGS needs limit >= 1 and a positive tolerance")
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ier = 0
    ierro = 0
    result, abserr, defabs, resasc = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the interval limit, and bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the new intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            return _sum_in_order(rlist, last), errsum
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # go on bisecting until the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect a larger
            # interval first if one is among the next in error order
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # choose between the extrapolated result and the sum over the intervals
    if abserr == _OFLOW:
        return _sum_in_order(rlist, last), errsum
    if ier + ierro == 0:
        return result, abserr
    if ierro == 3:
        abserr = abserr + correc
    if result != 0.0 and area != 0.0:
        if abserr / abs(result) > errsum / abs(area):
            return _sum_in_order(rlist, last), errsum
        return result, abserr
    if abserr > errsum:
        return _sum_in_order(rlist, last), errsum
    return result, abserr


def _sum_in_order(rlist: list[float], last: int) -> float:
    """dqagse's final sum of the interval results, in list order."""
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result


def quad_norm(qn: QuantumNumbers, problem: RelativeProblem) -> float:
    """Numerical norm integral |psi|^2 over the plane.

    The angular factor has unit modulus so the theta integral is exactly
    2 pi; the radial integral runs over u = rho/(1+rho) in (0, 1) with the
    decaying integrand evaluated through bound.wavefunction, built once.
    """
    e = energy(qn, problem)
    alpha = math.sqrt(-8.0 * problem.reduced_mass * e)
    psi = wavefunction(qn, problem)

    def integrand(u: float) -> float:
        rho = u / (1.0 - u)
        r = rho / alpha
        return abs(psi(r, 0.0)) ** 2 * r / (alpha * (1.0 - u) ** 2)

    value, err_est = _qags(integrand, 0.0, 1.0, 1e-10, 1e-10, 200)
    if err_est > 1e-7:
        raise DomainError(f"norm quadrature error estimate {err_est:.2e}")
    return 2.0 * math.pi * value
