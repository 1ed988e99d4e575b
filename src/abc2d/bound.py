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

# Energies closer than this (relatively) are one degenerate level.  The
# nu = 1/2 coincidence is exact in the formula, so this only absorbs float
# noise.
LEVEL_MERGE_RTOL = 1e-14


@dataclass(frozen=True)
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
    return -problem.reduced_mass * problem.kappa**2 / (2.0 * lam * lam)


def _branch_principal(qn: QuantumNumbers) -> int:
    """Principal label N within a branch: n_r + m for m >= 0, n_r + |m| for m < 0."""
    return qn.n_r + abs(qn.m)


def spectrum(problem: RelativeProblem, n_levels: int) -> list[SpectrumLevel]:
    """The n_levels lowest distinct levels with exact member enumeration.

    Enumerates all acceptable (n_r, m) up to a lambda cap wide enough to
    contain the requested levels, groups states whose energies agree to
    LEVEL_MERGE_RTOL, and orders levels by increasing energy.
    """
    if n_levels <= 0:
        raise ValueError("n_levels must be positive")
    if problem.kappa <= 0.0:
        raise NoBoundStates("bound states require attraction (kappa > 0)")
    nu = problem.nu
    lam_max = n_levels + 2.0
    m_max = int(math.ceil(lam_max)) + 1
    states: list[tuple[float, QuantumNumbers]] = []
    for n_r in range(int(lam_max) + 1):
        for m in range(-m_max, m_max + 1):
            qn = QuantumNumbers(n_r, m)
            if not is_acceptable(qn, problem.m0, nu):
                continue
            lam = _lambda(qn, nu)
            if lam <= lam_max:
                states.append((lam, qn))
    states.sort(key=lambda item: (item[0], item[1].n_r, item[1].m))

    prefactor = -problem.reduced_mass * problem.kappa**2 / 2.0
    levels: list[SpectrumLevel] = []
    group: list[QuantumNumbers] = []
    group_energy = 0.0
    for lam, qn in states:
        e = prefactor / (lam * lam)
        if group and abs(e - group_energy) > LEVEL_MERGE_RTOL * abs(group_energy):
            levels.append(_make_level(group_energy, group, nu))
            group = []
        if not group:
            group_energy = e
        group.append(qn)
    if group:
        levels.append(_make_level(group_energy, group, nu))
    return levels[:n_levels]


def _make_level(e: float, members: list[QuantumNumbers], nu: float) -> SpectrumLevel:
    members = sorted(members, key=lambda q: (q.n_r, q.m))
    if nu == 0.0 or nu == 0.5:
        branch = BRANCH_UNSPLIT
    else:
        branch = BRANCH_PLUS if any(q.m >= 0 for q in members) else BRANCH_MINUS
    principal = min(_branch_principal(q) for q in members)
    return SpectrumLevel(
        energy=e,
        branch=branch,
        principal_n=principal,
        members=tuple(members),
        degeneracy=len(members),
    )


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
