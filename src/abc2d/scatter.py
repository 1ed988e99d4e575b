"""Exact scattering observables for the solvable flux cases.

After gauging away the flux phase, psi = e^{-i(m0+nu) theta} psi0, the field
psi0 obeys a pure Coulomb equation but with the twisted boundary condition
psi0(r, theta + 2 pi) = e^{2 pi i nu} psi0(r, theta).  In parabolic
coordinates x + i y = (xi + i eta)^2 / 2 the plane is double-covered and the
equation separates:

    (d_xi^2 + d_eta^2) psi0 + k^2 (xi^2 + eta^2) psi0 + 4 beta k psi0 = 0,
    k = sqrt(2 mu E),   beta = mu kappa / k           (hbar = 1).

Closed-form fields (incident along +x):

  nu = 0, m0 = 0:   psi0 = c1 e^{ikx} M(i b, 1/2, i k eta^2)
  nu = 0, m0 != 0:  the same minus c1 e^{ikr} M(1/2 - i b, 1, -2 i k r),
                    which vanishes at the origin; its asymptotics contain a
                    stationary wave whose interference with the scattered
                    wave adds a signed term sigma_x to the cross section
  nu = 1/2:         psi0 = c2 e^{ikx} eta M(i b + 1/2, 3/2, i k eta^2),
                    odd on the double cover

Each Kummer factor depends on one coordinate only: M(., ., i k eta^2) on eta,
the integer-flux s-wave M(1/2 - i b, 1, -2 i k r) on r = (xi^2 + eta^2)/2.

Differential cross sections (2D, dimension length):

    sigma_C = beta tanh(pi beta) / (2 k sin^2 theta/2)
    sigma_1 = sigma_C + sigma_x
    sigma_x = -sqrt(beta tanh(pi beta)) / (sqrt(pi) k)
              * cos(d0 + d1 - beta ln sin^2 theta/2) / |sin theta/2|
    sigma_2 = beta coth(pi beta) / (2 k sin^2 theta/2)

with phases d0 = arg Gamma(1/2 - i beta), d1 = arg Gamma(i beta).  For
kappa -> 0 these reduce to the pure flux-scattering results (0 and
1/(2 pi k sin^2 theta/2)); for beta -> infinity all approach the classical
value |kappa| / (2 mu v_c^2 sin^2 theta/2).
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from typing import NamedTuple

from .errors import DomainError
from .reduction import RelativeProblem
from .specfn import _EPS, arg_gamma, kummer_m_many, ln_gamma

# Cross sections diverge in the forward direction; queries this close to
# theta = 0 (mod 2 pi) are rejected.
FORWARD_CONE = 1e-3

SQRT_PI = math.sqrt(math.pi)

# The integer-flux cosine argument d0 + d1 - beta ln sin^2 theta/2 adds terms
# of size beta ln beta; _EPS times their magnitudes bounds its rounding error,
# which is sigma_x's error relative to its amplitude.  Past _PHASE_ERROR_LIMIT
# the sample is refused: beta up to about 1e5 passes at every angle, from
# about 1e6 none does.
_PHASE_ERROR_LIMIT = 1e-9


class FluxCase(enum.Enum):
    """The three configurations with closed-form scattering solutions."""

    COULOMB_ONLY = "coulomb"    # nu = 0, m0 = 0
    INTEGER_FLUX = "integer"    # nu = 0, m0 != 0
    HALF_INTEGER = "half"       # nu = 1/2


class _ScatteringParamsFields(NamedTuple):
    k: float
    beta: float
    flux_case: FluxCase


class ScatteringParams(_ScatteringParamsFields):
    """Wavenumber k, Coulomb strength parameter beta, and the flux case."""

    __slots__ = ()

    def __new__(cls, k: float, beta: float, flux_case: FluxCase) -> "ScatteringParams":
        if not (math.isfinite(k) and math.isfinite(beta)):
            raise ValueError("k and beta must be finite")
        if not k > 0.0:
            raise ValueError("k must be positive")
        return tuple.__new__(cls, (k, beta, flux_case))

    @classmethod
    def _make(cls, fields) -> "ScatteringParams":
        """Build from an iterable of the fields through __new__'s checks."""
        return cls(*fields)


class CrossSectionSample(NamedTuple):
    """Differential cross section at one angle, split into components.

    sigma_cross is zero except for the integer-flux case, where
    sigma_total = sigma_coulomb + sigma_cross and may be negative.
    """

    theta: float
    sigma_total: float
    sigma_coulomb: float
    sigma_cross: float


class CrossSectionSweep(NamedTuple):
    """The cross sections of one sweep, one list per column: angle i's sample
    is (theta[i], sigma_total[i], sigma_coulomb[i], sigma_cross[i]), the
    fields of CrossSectionSample."""

    theta: list[float]
    sigma_total: list[float]
    sigma_coulomb: list[float]
    sigma_cross: list[float]


def scattering_params(problem: RelativeProblem, energy: float) -> ScatteringParams:
    """Parameters k = sqrt(2 mu E), beta = mu kappa / k for scattering at E > 0."""
    if energy <= 0.0:
        raise ValueError("scattering requires E > 0")
    if problem.nu == 0.0:
        case = FluxCase.COULOMB_ONLY if problem.m0 == 0 else FluxCase.INTEGER_FLUX
    elif problem.nu == 0.5:
        case = FluxCase.HALF_INTEGER
    else:
        raise DomainError(f"no closed-form scattering solution for nu = {problem.nu}")
    k = math.sqrt(2.0 * problem.reduced_mass * energy)
    beta = problem.reduced_mass * problem.kappa / k
    return ScatteringParams(k=k, beta=beta, flux_case=case)


def _in_cone(theta: float) -> bool:
    """Whether theta lies inside the forward cone; ValueError if it is infinite."""
    return abs(math.remainder(theta, 2.0 * math.pi)) < FORWARD_CONE


def _check_angle(theta: float) -> float:
    """Reject angles inside the forward cone; return sin^2(theta/2)."""
    if _in_cone(theta):
        raise DomainError(f"theta = {theta} is inside the forward cone")
    return math.sin(0.5 * theta) ** 2


def _cone_stop(thetas: list[float]) -> int:
    """Index of the first angle _check_angle refuses, len(thetas) if none."""
    try:
        return next(itertools.compress(itertools.count(), map(_in_cone, thetas)), len(thetas))
    except ValueError:  # an infinite angle before any angle inside the cone
        return next(itertools.compress(itertools.count(), map(math.isinf, thetas)))


def amplitude_coulomb(p: ScatteringParams, theta: float) -> complex:
    """Coulomb amplitude Gamma(1/2-ib)/Gamma(ib) e^{i b ln sin^2(t/2) - i pi/4}
    / sqrt(2 k sin^2 t/2)."""
    s2 = _check_angle(theta)
    if p.beta == 0.0:
        return 0.0 + 0.0j  # 1/Gamma(0) kills the amplitude
    log_ratio = ln_gamma(0.5 - 1j * p.beta) - ln_gamma(1j * p.beta)
    phase = 1j * (p.beta * math.log(s2) - 0.25 * math.pi)
    return cmath.exp(log_ratio + phase) / math.sqrt(2.0 * p.k * s2)


def amplitude_half_flux(p: ScatteringParams, theta: float) -> complex:
    """Half-integer-flux amplitude beta Gamma(-ib)/Gamma(1/2+ib)
    e^{i b ln sin^2(t/2) + 3 i pi/4} / sqrt(2 k sin^2 t/2)."""
    s2 = _check_angle(theta)
    if p.beta == 0.0:
        # Limit of beta Gamma(-i beta) as beta -> 0 is i; modulus matches the
        # pure flux-scattering value.
        ratio = 1j / cmath.exp(ln_gamma(complex(0.5)))
    else:
        ratio = p.beta * cmath.exp(ln_gamma(-1j * p.beta) - ln_gamma(0.5 + 1j * p.beta))
    phase = 1j * (p.beta * math.log(s2) + 0.75 * math.pi)
    return ratio * cmath.exp(phase) / math.sqrt(2.0 * p.k * s2)


def cross_sections(p: ScatteringParams, thetas: list[float]) -> CrossSectionSweep:
    """Differential cross section at every angle of thetas, for the case p
    carries, as one list per column (zip(*sweep) gives the rows).

    The factors that depend on beta alone (beta tanh(pi beta), d0 + d1, the
    interference amplitude, beta coth(pi beta)) are evaluated once per call.
    Each column is then one pass over the angles: sin^2 theta/2 once per
    angle, shared by every column, plus beta ln sin^2 theta/2 for integer
    flux.  The cosine argument x = d0 + d1 - beta ln sin^2 theta/2 goes
    through math.remainder(x, 2 pi) first, which gains no accuracy: math.cos
    reduces its argument exactly (within 1.1e-16 of mpmath), while the
    remainder by the float 2 pi errs by about 3.9e-17 |x| (3.9e-10 at |x| =
    1e7).  That stays below the rounding error eps |x| that x already carries,
    which _PHASE_ERROR_LIMIT bounds.

    An angle is refused as _check_angle refuses it (forward cone, infinite
    angle), and for integer flux where the cosine argument's rounding error
    estimate exceeds _PHASE_ERROR_LIMIT (DomainError).  The sweep raises at
    the first refused angle, the cone before the phase at the same angle, and
    computes nothing past a cone angle.
    """
    integer = p.flux_case is FluxCase.INTEGER_FLUX
    half = p.flux_case is FluxCase.HALF_INTEGER
    b, k = p.beta, p.k
    btanh = b * math.tanh(math.pi * b)
    if integer:
        if b == 0.0:
            raise DomainError("interference term undefined at beta = 0")
        d0 = arg_gamma(0.5 - 1j * b)
        d1 = arg_gamma(1j * b)
        d = d0 + d1
        d_size = abs(d0) + abs(d1)
        neg_amp = -math.sqrt(btanh) / (SQRT_PI * k)
    if half:
        bcoth = 1.0 / math.pi if b == 0.0 else b / math.tanh(math.pi * b)
    theta = list(thetas)
    stop = _cone_stop(theta)
    s2s = [math.sin(0.5 * t) ** 2 for t in theta[:stop]]
    if integer:
        b_lns = [b * math.log(s2) for s2 in s2s]
        lost = next((i for i, b_ln in enumerate(b_lns)
                     if _EPS * (d_size + abs(b_ln)) > _PHASE_ERROR_LIMIT), None)
        if lost is not None:
            raise DomainError(f"the integer-flux phase at beta = {b}, theta = {theta[lost]} "
                              "is lost to rounding")
    if stop < len(theta):
        _check_angle(theta[stop])  # raises: the cone's DomainError, or remainder's ValueError
    sigma_coulomb = [0.5 * btanh / (k * s2) for s2 in s2s]
    if integer:
        sigma_cross = [neg_amp * math.cos(math.remainder(d - b_ln, 2.0 * math.pi))
                       / math.sqrt(s2) for b_ln, s2 in zip(b_lns, s2s)]
        sigma_total = [sc + sx for sc, sx in zip(sigma_coulomb, sigma_cross)]
    else:
        sigma_cross = [0.0] * len(theta)
        if half:
            sigma_total = [0.5 * bcoth / (k * s2) for s2 in s2s]
        else:
            sigma_total = sigma_coulomb[:]
    return CrossSectionSweep(theta, sigma_total, sigma_coulomb, sigma_cross)


def sigma_sample(p: ScatteringParams, theta: float) -> CrossSectionSample:
    """Cross-section sample at one angle for whichever case p carries."""
    return CrossSectionSample._make(next(zip(*cross_sections(p, [theta]))))


def limit_ab(flux_case: FluxCase, k: float, theta: float) -> float:
    """kappa -> 0 limit: 0 for nu = 0, 1/(2 pi k sin^2 theta/2) for nu = 1/2."""
    if not k > 0.0:
        raise ValueError("k must be positive")
    s2 = _check_angle(theta)
    if flux_case is FluxCase.HALF_INTEGER:
        return 1.0 / (2.0 * math.pi * k * s2)
    return 0.0


def limit_classical(kappa: float, mu: float, v_c: float, theta: float) -> float:
    """Classical 2D Coulomb cross section |kappa| / (2 mu v_c^2 sin^2 theta/2)."""
    if not v_c > 0.0 or not mu > 0.0:
        raise ValueError("mu and v_c must be positive")
    s2 = _check_angle(theta)
    return abs(kappa) / (2.0 * mu * v_c * v_c * s2)


# -- parabolic coordinates and field evaluation ---------------------------------

def to_parabolic(r: float, theta: float) -> tuple[float, float]:
    """(xi, eta) = sqrt(2r) (cos theta/2, sin theta/2); theta in [0, 4 pi)."""
    if not r >= 0.0:
        raise ValueError("r must be non-negative")
    root = math.sqrt(2.0 * r)
    return root * math.cos(0.5 * theta), root * math.sin(0.5 * theta)


def _field(p: ScatteringParams, xis: list[float], etas: list[float]) -> list[list[complex]]:
    """psi0 at every node of the grid xis x etas, row-major in xi.

    Each separated factor is evaluated once per distinct argument: the
    prefactor c1 or c2 per call, the Kummer factor per distinct k eta^2 and
    the integer-flux s-wave per distinct r, each Kummer factor by one
    kummer_m_many call, and the plane wave per node.  A grid's cancelling
    re-sums share one coefficient table, so a value matches the same node's
    eval_scattering_field to within a rounding tie, not by construction
    (see kummer_m_many).
    """
    k, b = p.k, p.beta

    def plane(xi: float, eta: float) -> complex:
        return cmath.exp(1j * k * (0.5 * (xi * xi - eta * eta)))

    if p.flux_case is FluxCase.HALF_INTEGER:
        c = (2.0 * math.sqrt(k / math.pi)
             * cmath.exp(0.5 * math.pi * b - 0.25j * math.pi + ln_gamma(1.0 - 1j * b)))
        ms = kummer_m_many(0.5 + 1j * b, 1.5, [1j * k * eta * eta for eta in etas])
        return [[c * plane(xi, eta) * eta * m for eta, m in zip(etas, ms)] for xi in xis]
    c = cmath.exp(0.5 * math.pi * b + ln_gamma(0.5 - 1j * b)) / SQRT_PI
    ms = kummer_m_many(1j * b, 0.5, [1j * k * eta * eta for eta in etas])
    if p.flux_case is FluxCase.COULOMB_ONLY:
        return [[c * plane(xi, eta) * m for eta, m in zip(etas, ms)] for xi in xis]
    rs = [[0.5 * (xi * xi + eta * eta) for eta in etas] for xi in xis]
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(rs)))
    swave = {r: cmath.exp(1j * k * r) * m for r, m in
             zip(distinct, kummer_m_many(0.5 - 1j * b, 1.0, [-2j * k * r for r in distinct]))}
    return [[c * (plane(xi, eta) * m - swave[r]) for eta, m, r in zip(etas, ms, line)]
            for xi, line in zip(xis, rs)]


def eval_scattering_field(p: ScatteringParams, xi: float, eta: float) -> complex:
    """psi0 at parabolic point (xi, eta) for the case carried by p.

    Even under (xi, eta) -> (-xi, -eta) for nu = 0, odd for nu = 1/2; the
    integer-flux and half-integer fields vanish at the origin exactly.
    """
    return _field(p, [xi], [eta])[0][0]


def eval_scattering_field_polar(p: ScatteringParams, r: float, theta: float) -> complex:
    """psi0 at polar (r, theta), theta on the double cover [0, 4 pi)."""
    xi, eta = to_parabolic(r, theta)
    return eval_scattering_field(p, xi, eta)


def stationary_wave(p: ScatteringParams, r: float) -> complex:
    """Asymptotic standing-wave component of the integer-flux solution:

    -e^{i d0} sqrt(2/(pi k)) cos(k r + beta ln 2 k r + d0 - pi/4) / sqrt(r).
    """
    if p.flux_case is not FluxCase.INTEGER_FLUX:
        raise DomainError("stationary wave exists only for integer flux")
    if not r > 0.0:
        raise ValueError("r must be positive")
    d0 = arg_gamma(0.5 - 1j * p.beta)
    phase = p.k * r + p.beta * math.log(2.0 * p.k * r) + d0 - 0.25 * math.pi
    return (-cmath.exp(1j * d0) * math.sqrt(2.0 / (math.pi * p.k))
            * math.cos(phase) / math.sqrt(r))


def incident_asymptotic(p: ScatteringParams, r: float, theta: float) -> complex:
    """Incident term exp[i k x - i beta ln k(r - x)], x = r cos theta, times
    the first 1/(k(r-x)) correction of the incident-channel series.

    The correction is the only O(1/r) piece of the exact field; without it a
    decomposition check could not resolve the O(r^{-3/2}) remainder.
    """
    x = r * math.cos(theta)
    lead = cmath.exp(1j * (p.k * x - p.beta * math.log(p.k * (r - x))))
    b = p.beta
    return lead * (1.0 - b * (1j * b + 0.5) / (p.k * (r - x)))


def scattered_asymptotic(p: ScatteringParams, r: float, theta: float) -> complex:
    """Leading scattered term f_C(theta) exp(i k r + i beta ln 2 k r)/sqrt(r)."""
    f = amplitude_coulomb(p, theta)
    return f * cmath.exp(1j * (p.k * r + p.beta * math.log(2.0 * p.k * r))) / math.sqrt(r)


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from ``start`` to ``stop``, bit for bit
    ``np.linspace(start, stop, num).tolist()`` without importing numpy.

    Element i is ``i * step + start`` and the last is ``stop``; a step that
    underflows to zero takes numpy's denormal branch, ``i / div * delta +
    start``.  A negative ``num`` is a ValueError, as in numpy.
    """
    if num < 0:
        raise ValueError(f"number of samples, {num}, must be non-negative")
    start, stop = float(start), float(stop)
    delta = stop - start
    div = num - 1
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def sample_scattering_field(
    p: ScatteringParams,
    xi_range: tuple[float, float],
    eta_range: tuple[float, float],
    nx: int,
    ny: int,
) -> tuple[list[float], list[float], list[list[complex]]]:
    """(xis, etas, values): psi0 on a rectangular parabolic-coordinate grid,
    values[i][j] at (xis[i], etas[j]).

    Each value equals eval_scattering_field at its node unless a Kummer
    re-sum lies within a few units of 2**-bits of a rounding tie (see
    _field); none of 8,056 field re-sums or 1,124 CLI artifacts differed.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid needs at least 2 points per axis")
    xis = linspace(xi_range[0], xi_range[1], nx)
    etas = linspace(eta_range[0], eta_range[1], ny)
    return xis, etas, _field(p, xis, etas)


def pde_residual(p: ScatteringParams, xi: float, eta: float, h: float) -> float:
    """|five-point Laplacian + (k^2 (xi^2+eta^2) + 4 beta k) psi0| at one point.

    Second-order accurate in h; used to verify the separated field actually
    solves the parabolic-coordinate wave equation.  The stencil's row and
    column are two grids of _field, one prefactor each.
    """
    [right], [c], [left] = _field(p, [xi + h, xi, xi - h], [eta])
    [[up, down]] = _field(p, [xi], [eta + h, eta - h])
    lap = (right + left + up + down - 4.0 * c) / (h * h)
    return abs(lap + (p.k**2 * (xi * xi + eta * eta) + 4.0 * p.beta * p.k) * c)
