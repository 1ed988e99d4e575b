"""Two-body reduction for planar particles carrying charge and magnetic flux.

Each particle carries (mass, charge q_a, flux Phi_a).  The two-body problem
separates into free center-of-mass motion plus a relative problem if and only
if q1/Phi1 == q2/Phi2.  The relative Hamiltonian (hbar = c = 1) is

    H = -(1/2 mu) (grad + i alpha grad theta)^2 - kappa / r

with reduced mass mu, Coulomb strength kappa = -q1 q2 (kappa > 0 means
attraction) and dimensionless flux

    alpha = -q1 Phi2 / (2 pi) = -q2 Phi1 / (2 pi),

the two forms being equal precisely when the ratio condition holds.  Only the
fractional part nu of alpha affects energies; the integer part m0 enters
through the angular phase.  alpha is split as alpha = m0 + nu with integer
m0 = floor(alpha) and nu in [0, 1).  The floor convention for negative alpha
is a library choice; the physics is invariant under relabeling m.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import DomainError

RATIO_RTOL = 1e-12
SNAP_TOL = 1e-12
TWO_PI = 2.0 * math.pi


class _ParticlePairFields(NamedTuple):
    mass1: float
    mass2: float
    charge1: float
    charge2: float
    flux1: float
    flux2: float


class ParticlePair(_ParticlePairFields):
    """Masses, charges and fluxes of the two particles."""

    __slots__ = ()

    def __new__(cls, mass1: float, mass2: float, charge1: float, charge2: float,
                flux1: float, flux2: float) -> "ParticlePair":
        if not (mass1 > 0.0 and mass2 > 0.0):
            raise ValueError("masses must be positive")
        return tuple.__new__(cls, (mass1, mass2, charge1, charge2, flux1, flux2))

    @classmethod
    def _make(cls, fields) -> "ParticlePair":
        """Build from an iterable of the fields through __new__'s checks, which
        NamedTuple's _make (and so _replace) would skip."""
        return cls(*fields)


class _RelativeProblemFields(NamedTuple):
    reduced_mass: float
    kappa: float
    alpha_flux: float
    m0: int
    nu: float


class RelativeProblem(_RelativeProblemFields):
    """Reduced relative-motion problem: (mu, kappa, alpha) plus the m0 + nu split,
    which decompose_flux derives from alpha.  It is built, copied, pickled and
    replaced from the three inputs alone; m0 and nu cannot be given."""

    __slots__ = ()

    def __new__(cls, reduced_mass: float, kappa: float, alpha_flux: float) -> "RelativeProblem":
        if not all(map(math.isfinite, (reduced_mass, kappa, alpha_flux))):
            raise ValueError("mu, kappa and alpha must be finite")
        if not reduced_mass > 0.0:
            raise ValueError("reduced mass must be positive")
        return tuple.__new__(cls, (reduced_mass, kappa, alpha_flux, *decompose_flux(alpha_flux)))

    def __getnewargs__(self) -> tuple[float, float, float]:
        return self[:3]

    @classmethod
    def _make(cls, fields) -> "RelativeProblem":
        """Build from an iterable of all five fields; a split that does not
        follow from alpha_flux is refused."""
        fields = tuple(fields)
        problem = cls(*fields[:3])
        if fields != problem:
            raise ValueError("m0 and nu must follow from alpha_flux")
        return problem

    def _replace(self, /, **changes) -> "RelativeProblem":
        """A copy with some of the three inputs changed and the split derived anew."""
        if changes.keys() & {"m0", "nu"}:
            raise ValueError("m0 and nu follow from alpha_flux and cannot be replaced")
        return type(self)(**dict(zip(self._fields, self[:3]), **changes))

    @classmethod
    def from_parameters(cls, mu: float, kappa: float, alpha: float) -> "RelativeProblem":
        """Build directly from (mu, kappa, alpha) in hbar = 1 units."""
        return cls(mu, kappa, alpha)


class SpectralCase(enum.Enum):
    """The five spectral regimes of the fractional flux nu and integer part m0."""

    PURE_COULOMB = "PureCoulomb"      # nu = 0, m0 = 0
    INTEGER_FLUX = "IntegerFlux"      # nu = 0, m0 != 0
    GENERIC_LOW = "GenericLow"        # 0 < nu < 1/2
    HALF_INTEGER = "HalfInteger"      # nu = 1/2
    GENERIC_HIGH = "GenericHigh"      # 1/2 < nu < 1


def validate_ratio(pair: ParticlePair) -> None:
    """Check q1/Phi1 == q2/Phi2 to relative tolerance 1e-12.

    Raises DomainError for a vanishing flux entry and when the ratios
    disagree (the two-body equation is then not separable).
    """
    if pair.flux1 == 0.0 or pair.flux2 == 0.0:
        raise DomainError("flux entries must be nonzero")
    r1 = pair.charge1 / pair.flux1
    r2 = pair.charge2 / pair.flux2
    scale = max(abs(r1), abs(r2))
    if abs(r1 - r2) > RATIO_RTOL * scale:
        raise DomainError(f"charge/flux ratios differ: {r1!r} vs {r2!r}")


def reduce_two_body(pair: ParticlePair) -> RelativeProblem:
    """Reduce a validated pair to the relative problem.

    kappa = -q1*q2, so kappa > 0 corresponds to attraction (opposite charges).
    alpha = -q1*Phi2/(2 pi) in hbar = c = 1 units; the symmetric form
    -q2*Phi1/(2 pi) is identical under the ratio condition.
    """
    validate_ratio(pair)
    mu = pair.mass1 * pair.mass2 / (pair.mass1 + pair.mass2)
    kappa = -pair.charge1 * pair.charge2
    alpha = -pair.charge1 * pair.flux2 / TWO_PI
    return RelativeProblem(mu, kappa, alpha)


def decompose_flux(alpha: float) -> tuple[int, float]:
    """Split alpha into (m0, nu) with m0 = floor(alpha) and nu in [0, 1).

    nu within 1e-12 of 0, 1/2 or 1 is snapped exactly so the closed-form
    solvable cases are reachable from float input; nu ~ 1 snaps to the next
    integer.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    m0 = math.floor(alpha)
    nu = alpha - m0
    if nu < SNAP_TOL:
        nu = 0.0
    elif nu > 1.0 - SNAP_TOL:
        m0 += 1
        nu = 0.0
    elif abs(nu - 0.5) < SNAP_TOL:
        nu = 0.5
    return int(m0), nu


def classify_case(m0: int, nu: float) -> SpectralCase:
    """Map (m0, nu) to its spectral regime."""
    if not 0.0 <= nu < 1.0:
        raise ValueError("nu must lie in [0, 1)")
    if nu == 0.0:
        return SpectralCase.PURE_COULOMB if m0 == 0 else SpectralCase.INTEGER_FLUX
    if nu == 0.5:
        return SpectralCase.HALF_INTEGER
    return SpectralCase.GENERIC_LOW if nu < 0.5 else SpectralCase.GENERIC_HIGH
