"""Closed-form bound states of the planar Coulomb + point-flux problem.

For attraction (kappa > 0) the radial equation terminates on a polynomial and
the energies are (hbar = 1)

    E = - mu kappa^2 / (2 (n_r + |m + nu| + 1/2)^2),    n_r = 0, 1, 2, ...

with integer angular label m.  The normalized eigenfunctions are

    psi(r, theta) = C e^{-rho/2} rho^{|m+nu|} M(-n_r, 2|m+nu|+1, rho)
                      e^{i (m - m0) theta},
    rho = alpha r,  alpha = sqrt(-8 mu E).

Regularity at the origin excludes m = 0 whenever nu = 0 and m0 != 0 (the
radial factor would stay finite while the angular phase is undefined there),
which empties the would-be ground level of the integer-flux case.

Level structure by case (d = degeneracy at level N):
  nu = 0, m0 = 0:  E_N with N = n_r + |m|,      d = 2N + 1
  nu = 0, m0 != 0: same energies, m = 0 dropped, d = 2N, ground level N = 1
  0 < nu < 1:      split branches  E_N^+ (m >= 0, N = n_r + m, d = N + 1)
                   and E_N^- (m < 0, N = n_r + |m|, d = N); the two ladders
                   interleave one way for nu < 1/2 and the other for nu > 1/2
  nu = 1/2:        E_N^+ = E_{N+1}^- coincide exactly, d = 2N + 2
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import NoBoundStates, Unacceptable
from .reduction import RelativeProblem
from .specfn import kummer_m

# Branch labels on spectrum levels.
BRANCH_PLUS = "plus"
BRANCH_MINUS = "minus"
BRANCH_UNSPLIT = "unsplit"


@dataclass(frozen=True, slots=True)
class QuantumNumbers:
    """Radial node count n_r >= 0 and integer angular label m."""

    n_r: int
    m: int

    def __post_init__(self) -> None:
        if self.n_r < 0:
            raise ValueError("n_r must be non-negative")


@dataclass(frozen=True)
class SpectrumLevel:
    """One degenerate energy level with its member states."""

    energy: float
    branch: str
    principal_n: int
    members: tuple[QuantumNumbers, ...]
    degeneracy: int

    def __post_init__(self) -> None:
        if self.degeneracy != len(self.members):
            raise ValueError("degeneracy must equal the number of members")


def effective_exponent(m: int, nu: float) -> float:
    """Indicial exponent |m + nu| of the radial solution at the origin."""
    return abs(m + nu)


def is_acceptable(qn: QuantumNumbers, m0: int, nu: float) -> bool:
    """Whether (n_r, m) yields a valid wavefunction for flux split (m0, nu).

    The only excluded family is nu = 0, m = 0 with m0 != 0: there the radial
    part does not vanish at r = 0 although m != m0, so the angular factor is
    ill-defined at the origin.  Every n_r is excluded alike.
    """
    if not 0.0 <= nu < 1.0:
        raise ValueError("nu must lie in [0, 1)")
    return not (nu == 0.0 and qn.m == 0 and m0 != 0)


def _lambda(qn: QuantumNumbers, nu: float) -> float:
    return qn.n_r + effective_exponent(qn.m, nu) + 0.5


def energy(qn: QuantumNumbers, problem: RelativeProblem) -> float:
    """Bound-state energy -mu kappa^2 / (2 lambda^2), lambda = n_r + |m+nu| + 1/2."""
    if problem.kappa <= 0.0:
        raise NoBoundStates("bound states require attraction (kappa > 0)")
    if not is_acceptable(qn, problem.m0, problem.nu):
        raise Unacceptable(
            f"state (n_r={qn.n_r}, m={qn.m}) is not regular at the origin "
            f"for m0={problem.m0}, nu={problem.nu}"
        )
    lam = _lambda(qn, problem.nu)
    return -problem.reduced_mass * (problem.kappa * problem.kappa) / (2.0 * lam * lam)


def spectrum(problem: RelativeProblem, n_levels: int) -> list[SpectrumLevel]:
    """The n_levels lowest distinct levels, walked off the two closed-form ladders.

    The plus ladder (m >= 0) has lambda = N + nu + 1/2 and members
    (n_r, m) = (N - m, m), m = 0..N; the minus ladder (m < 0, N >= 1) has
    lambda = N - nu + 1/2 and members (N - |m|, m), m = -N..-1.  Each step
    takes the rung with the smaller lambda; equal rungs (same N at nu = 0,
    plus N with minus N + 1 at nu = 1/2) make one level.  Members that
    is_acceptable rejects are dropped, and a level left empty (the
    integer-flux N = 0 level) is skipped.  The energy is taken from the
    smallest lambda among the members, the principal N from the lower rung.
    The cost is proportional to the number of members returned.
    """
    if n_levels <= 0:
        raise ValueError("n_levels must be positive")
    if problem.kappa <= 0.0:
        raise NoBoundStates("bound states require attraction (kappa > 0)")
    nu = problem.nu
    unsplit = nu == 0.0 or nu == 0.5
    prefactor = -problem.reduced_mass * (problem.kappa * problem.kappa) / 2.0
    levels: list[SpectrumLevel] = []
    n_plus, n_minus = 0, 1
    while len(levels) < n_levels:
        lam_plus, lam_minus = n_plus + nu + 0.5, n_minus - nu + 0.5
        take_plus, take_minus = lam_plus <= lam_minus, lam_minus <= lam_plus
        if unsplit:
            branch = BRANCH_UNSPLIT
        else:
            branch = BRANCH_PLUS if take_plus else BRANCH_MINUS
        principal = n_plus if take_plus else n_minus
        rung: list[QuantumNumbers] = []
        if take_plus:
            rung += [QuantumNumbers(n_plus - m, m) for m in range(n_plus + 1)]
            n_plus += 1
        if take_minus:
            rung += [QuantumNumbers(n_minus + m, m) for m in range(-n_minus, 0)]
            n_minus += 1
        members = sorted((q for q in rung if is_acceptable(q, problem.m0, nu)),
                         key=lambda q: (q.n_r, q.m))
        if not members:
            continue
        lam = min(_lambda(q, nu) for q in members)
        levels.append(SpectrumLevel(
            energy=prefactor / (lam * lam),
            branch=branch,
            principal_n=principal,
            members=tuple(members),
            degeneracy=len(members),
        ))
    return levels


def normalization_constant(qn: QuantumNumbers, problem: RelativeProblem) -> float:
    """Normalization constant C making integral |psi|^2 r dr dtheta equal 1.

    C = 4 mu kappa / ((2 n_r + 2 w + 1) Gamma(2w + 1))
        * sqrt( Gamma(n_r + 2w + 1) / (2 pi n_r! (2 n_r + 2 w + 1)) ),
    with w = |m + nu|.
    """
    energy(qn, problem)  # validates preconditions
    w = effective_exponent(qn.m, problem.nu)
    n_r = qn.n_r
    two_lam = 2.0 * n_r + 2.0 * w + 1.0
    log_front = (
        math.log(4.0 * problem.reduced_mass * problem.kappa)
        - math.log(two_lam)
        - math.lgamma(2.0 * w + 1.0)
    )
    log_root = 0.5 * (
        math.lgamma(n_r + 2.0 * w + 1.0)
        - math.log(2.0 * math.pi)
        - math.lgamma(n_r + 1.0)
        - math.log(two_lam)
    )
    return math.exp(log_front + log_root)


def wavefunction(qn: QuantumNumbers,
                 problem: RelativeProblem) -> Callable[[float, float], complex]:
    """The normalized eigenfunction psi(r, theta); energy, C, w and alpha are
    computed once, here.

    rho^w at r = 0 is taken by limit: 1 for w = 0, else 0 (no pow(0, w) NaN).
    theta is accepted but irrelevant at the origin, where only the w = 0
    states are finite anyway.
    """
    e = energy(qn, problem)
    c = normalization_constant(qn, problem)
    w = effective_exponent(qn.m, problem.nu)
    alpha = math.sqrt(-8.0 * problem.reduced_mass * e)

    def psi(r: float, theta: float) -> complex:
        if r < 0.0:
            raise ValueError("r must be non-negative")
        rho = alpha * r
        if rho == 0.0:
            radial_power = 1.0 if w == 0.0 else 0.0
        else:
            radial_power = rho**w
        poly = kummer_m(complex(-qn.n_r), complex(2.0 * w + 1.0), complex(rho))
        phase = cmath.exp(1j * (qn.m - problem.m0) * theta)
        return c * math.exp(-0.5 * rho) * radial_power * poly * phase

    return psi


def eval_bound_wavefunction(
    qn: QuantumNumbers, problem: RelativeProblem, r: float, theta: float
) -> complex:
    """Value of the normalized eigenfunction at polar point (r, theta)."""
    return wavefunction(qn, problem)(r, theta)
