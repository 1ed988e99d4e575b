"""Exception hierarchy.

Everything deriving from :class:`DomainError` is a physics/domain failure
(invalid input regime, missing bound states, unsupported flux case, ...) and
maps to exit code 2 in the CLI.  Verification failures use exit code 3 and are
not exceptions.
"""


class DomainError(Exception):
    """Base class for domain-level failures."""


# -- two-body reduction -------------------------------------------------------

class RatioViolation(DomainError):
    """Charge/flux ratios of the two particles disagree; problem not separable."""


class ZeroFlux(DomainError):
    """A flux entry is zero, so the charge/flux ratio is undefined."""


# -- special functions ---------------------------------------------------------

class PoleError(DomainError):
    """Gamma function evaluated at a non-positive integer."""


class ParameterPole(DomainError):
    """Confluent hypergeometric lower parameter is a non-positive integer."""


# -- bound states ---------------------------------------------------------------

class NoBoundStates(DomainError):
    """Coulomb strength is not attractive (kappa <= 0); no discrete spectrum."""


class Unacceptable(DomainError):
    """State violates the regularity condition R(0) = 0 required for m != m0."""


# -- numerical oracle -----------------------------------------------------------

class NoConvergence(DomainError):
    """Eigenvalue bracket not found in the search window."""


class StiffnessFailure(DomainError):
    """Adaptive step size underflowed."""


class QuadratureFailure(DomainError):
    """Adaptive quadrature error estimate above tolerance."""


# -- scattering -----------------------------------------------------------------

class ForwardSingularity(DomainError):
    """Cross section requested inside the excluded forward cone."""


class WrongCase(DomainError):
    """Operation invoked for a flux case it does not apply to."""


class UnsupportedFluxCase(DomainError):
    """Scattering is solved in closed form only for nu in {0, 1/2}."""
