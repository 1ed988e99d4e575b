"""Closed-form bound states of the planar Coulomb + point-flux problem.

For attraction (kappa > 0) the radial equation terminates on a polynomial and
the energies are (hbar = 1)

    E = - mu kappa^2 / (2 (n_r + |m + nu| + 1/2)^2),    n_r = 0, 1, 2, ...

with integer angular label m.  The normalized eigenfunctions are

    psi(r, theta) = C e^{-rho/2} rho^{|m+nu|} M(-n_r, 2|m+nu|+1, rho)
                      e^{i (m - m0) theta},
    rho = alpha r,  alpha = sqrt(-8 mu E) = 2 mu kappa / (n_r + |m+nu| + 1/2).

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
import functools
import math
from collections.abc import Callable, Iterator
from itertools import islice
from typing import NamedTuple

from .errors import DomainError
from .reduction import RelativeProblem
from .scatter import linspace
from .specfn import kummer_m

# Branch labels on spectrum levels.
BRANCH_PLUS = "plus"
BRANCH_MINUS = "minus"
BRANCH_UNSPLIT = "unsplit"


class _QuantumNumbersFields(NamedTuple):
    n_r: int
    m: int


class QuantumNumbers(_QuantumNumbersFields):
    """Radial node count n_r >= 0 and integer angular label m."""

    __slots__ = ()

    def __new__(cls, n_r: int, m: int) -> "QuantumNumbers":
        if n_r < 0:
            raise ValueError("n_r must be non-negative")
        return tuple.__new__(cls, (n_r, m))

    @classmethod
    def _make(cls, fields) -> "QuantumNumbers":
        """Build from an iterable of the fields through __new__'s check."""
        return cls(*fields)


class SpectrumLevel(NamedTuple):
    """One degenerate energy level, as the ladder rungs it takes.

    A rung is the antidiagonal n_r + |m| = N of one ladder: the plus rung's
    members are (n_r, plus_n - n_r) and the minus rung's (n_r, n_r - minus_n),
    for n_r below the rung's count.  A count is 0 where the level does not
    take that rung; its N is then the ladder's next rung.
    """

    energy: float
    branch: str
    principal_n: int
    plus_n: int
    plus_count: int
    minus_n: int
    minus_count: int

    @property
    def degeneracy(self) -> int:
        """Number of member states."""
        return self.plus_count + self.minus_count

    @property
    def members(self) -> tuple[tuple[int, int], ...]:
        """The (n_r, m) int pairs in (n_r, m) order, built on each read."""
        zero = max(self.plus_n, self.minus_n) + 1
        cells = self.member_cells(range(zero), range(-zero, zero + 1), zero)
        return tuple(zip(cells[::2], cells[1::2]))

    def member_cells(self, nr_table, m_table, zero: int) -> list:
        """Each member's n_r and m cells, flat, in (n_r, m) order: for n_r = 0,
        1, ... the minus member while n_r < minus_count, then the plus member
        while n_r < plus_count.

        The n_r cells are taken from ``nr_table``, any sliceable sequence
        with ``nr_table[i]`` the cell of n_r = i for 0 <= i <= max(plus_n,
        minus_n), and the m cells from ``m_table``, one with ``m_table[zero +
        i]`` the cell of m = i for |i| <= max(plus_n, minus_n), zero > 0.
        Ranges give the ints.  The CLI passes tables of text, each int's
        string followed by the separator that comes after that cell, so a
        level's text is two pieces per member.  The cells are slices of the
        tables, placed by slice assignment.
        """
        plus_n, n_plus = self.plus_n, self.plus_count
        minus_n, n_minus = self.minus_n, self.minus_count
        both = min(n_plus, n_minus)
        cells = [None] * (2 * (n_plus + n_minus))
        end = 4 * both
        cells[0:end:4] = cells[2:end:4] = nr_table[:both]
        cells[1:end:4] = m_table[zero - minus_n:zero - minus_n + both]
        cells[3:end:4] = m_table[zero + plus_n:zero + plus_n - both:-1]
        # the longer rung's tail: the plus rung's, where the level takes both
        cells[end::2] = nr_table[both:max(n_plus, n_minus)]
        cells[end + 1::2] = (m_table[zero + plus_n - both:zero + plus_n - n_plus:-1]
                             if n_plus > both else
                             m_table[zero - minus_n + both:zero - minus_n + n_minus])
        return cells


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
        raise DomainError("bound states require attraction (kappa > 0)")
    if not is_acceptable(qn, problem.m0, problem.nu):
        raise DomainError(
            f"state (n_r={qn.n_r}, m={qn.m}) is not regular at the origin "
            f"for m0={problem.m0}, nu={problem.nu}"
        )
    lam = _lambda(qn, problem.nu)
    return -problem.reduced_mass * (problem.kappa * problem.kappa) / (2.0 * lam * lam)


def spectrum(problem: RelativeProblem, n_levels: int) -> list[SpectrumLevel]:
    """The n_levels lowest distinct levels, as a list: ``list(iter_levels(...))``.

    Each level holds its two rungs, not its members, so the list takes a
    constant amount of memory per level.
    """
    return list(iter_levels(problem, n_levels))


def iter_levels(problem: RelativeProblem, n_levels: int) -> Iterator[SpectrumLevel]:
    """The n_levels lowest distinct levels, walked off the two closed-form ladders
    and yielded one at a time.

    The arguments are checked here, at the call: n_levels <= 0 raises
    ValueError and kappa <= 0 DomainError before the first level is asked for.

    The plus ladder (m >= 0) has lambda = N + nu + 1/2 and members
    (n_r, m) = (N - m, m), m = 0..N; the minus ladder (m < 0, N >= 1) has
    lambda = N - nu + 1/2 and members (N - |m|, m), m = -N..-1.  Each step
    takes the rung with the smaller lambda; equal rungs (same N at nu = 0,
    plus N with minus N + 1 at nu = 1/2) make one level.  A level is the
    rungs it takes, each as its N and member count (SpectrumLevel); the
    m = 0 member, the plus rung's last, is left out of its count where
    is_acceptable rejects it (nu = 0, m0 != 0), and a level left empty (the
    integer-flux N = 0 level) is skipped.  The energy and the principal N
    are taken from the lower rung, the energy from that rung's lambda as the
    walk computes it: N + nu + 1/2 on the plus rung, N - nu + 1/2 on the
    minus.  No member is built by the walk: SpectrumLevel.members builds a
    level's (n_r, m) pairs when it is read, and member_cells any cells of
    them, so the walk's cost is proportional to the number of levels and
    its memory is constant.
    """
    if n_levels <= 0:
        raise ValueError("n_levels must be positive")
    if problem.kappa <= 0.0:
        raise DomainError("bound states require attraction (kappa > 0)")
    return islice(_walk_ladders(problem), n_levels)


def _walk_ladders(problem: RelativeProblem) -> Iterator[SpectrumLevel]:
    """Every level in turn, without end; see iter_levels."""
    nu = problem.nu
    unsplit = nu == 0.0 or nu == 0.5
    drop_m0 = nu == 0.0 and problem.m0 != 0
    prefactor = -problem.reduced_mass * (problem.kappa * problem.kappa) / 2.0
    n_plus, n_minus = 0, 1
    while True:
        lam_plus, lam_minus = n_plus + nu + 0.5, n_minus - nu + 0.5
        take_plus, take_minus = lam_plus <= lam_minus, lam_minus <= lam_plus
        if unsplit:
            branch = BRANCH_UNSPLIT
        else:
            branch = BRANCH_PLUS if take_plus else BRANCH_MINUS
        principal = n_plus if take_plus else n_minus
        # The m = 0 member, the plus rung's last, is left out where
        # is_acceptable rejects it (nu = 0, m0 != 0).
        plus_count = n_plus + (not drop_m0) if take_plus else 0
        minus_count = n_minus if take_minus else 0
        if plus_count or minus_count:
            lam = lam_plus if take_plus else lam_minus
            yield SpectrumLevel(prefactor / (lam * lam), branch, principal,
                                n_plus, plus_count, n_minus, minus_count)
        n_plus += take_plus
        n_minus += take_minus


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
    front = 4.0 * problem.reduced_mass * problem.kappa
    if front == 0.0 or front == math.inf:
        outcome = "underflows to 0" if front == 0.0 else "overflows to inf"
        raise DomainError(f"normalization: 4 mu kappa {outcome} at mu = "
                          f"{problem.reduced_mass}, kappa = {problem.kappa}")
    log_front = (
        math.log(front)
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


def _factors(qn: QuantumNumbers, problem: RelativeProblem
             ) -> tuple[Callable[[float], complex], Callable[[float], complex]]:
    """(radial, phase) of psi(r, theta) = radial(r) * phase(theta); C, w and
    the decay rate alpha = 2 mu kappa / lambda are computed once, here.
    rho^w at r = 0 is its limit, as 0.0 ** w gives it: 1 for w = 0, else 0."""
    c = normalization_constant(qn, problem)
    w = effective_exponent(qn.m, problem.nu)
    alpha = 2.0 * problem.reduced_mass * problem.kappa / _lambda(qn, problem.nu)
    a, b = complex(-qn.n_r), complex(2.0 * w + 1.0)
    turns = 1j * (qn.m - problem.m0)

    def radial(r: float) -> complex:
        rho = alpha * r
        radial_power = rho**w
        poly = kummer_m(a, b, complex(rho))
        return c * math.exp(-0.5 * rho) * radial_power * poly

    def phase(theta: float) -> complex:
        try:
            return cmath.exp(turns * theta)
        except ValueError:
            raise DomainError(f"the angular phase (m - m0) theta overflows at m = {qn.m}, "
                              f"theta = {theta}") from None

    return radial, phase


def wavefunction(qn: QuantumNumbers,
                 problem: RelativeProblem) -> Callable[[float, float], complex]:
    """The normalized eigenfunction psi(r, theta) = radial(r) * phase(theta)
    (_factors).  theta is accepted but irrelevant at the origin, where only
    the w = 0 states are finite anyway."""
    radial, phase = _factors(qn, problem)

    def psi(r: float, theta: float) -> complex:
        if r < 0.0:
            raise ValueError("r must be non-negative")
        return radial(r) * phase(theta)

    return psi


def sample_bound_field(
    qn: QuantumNumbers, problem: RelativeProblem, span: tuple[float, float], points: int
) -> tuple[list[float], list[float], list[list[complex]]]:
    """(xs, ys, values): psi on the grid xs = ys = linspace(*span, points),
    values[i][j] at r = hypot(xs[i], ys[j]), theta = atan2(ys[j], xs[i]),
    equal bit for bit to wavefunction's.  The radial factor is evaluated once
    per distinct r, through a cache that lives for this call."""
    radial, phase = _factors(qn, problem)
    radial = functools.cache(radial)
    xs = ys = linspace(*span, points)
    if len(xs) < 2:
        raise ValueError("grid needs at least 2 points per axis")
    return xs, ys, [[radial(math.hypot(x, y)) * phase(math.atan2(y, x)) for y in ys]
                    for x in xs]


def eval_bound_wavefunction(
    qn: QuantumNumbers, problem: RelativeProblem, r: float, theta: float
) -> complex:
    """Value of the normalized eigenfunction at polar point (r, theta)."""
    return wavefunction(qn, problem)(r, theta)
