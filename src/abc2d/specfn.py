"""Self-contained complex special functions: log-gamma and Kummer's M.

These kernels are deliberately free of external math libraries; everything
downstream (bound-state normalization, scattering amplitudes, field
evaluation) funnels through them, and the verification suite cross-checks
them against closed-form identities:

    |Gamma(+-i b)|^2       = pi / (b sinh pi b)
    |Gamma(1/2 +- i b)|^2  = pi / cosh pi b
    M(a, b, z)             = e^z M(b - a, b, -z)

``ln_gamma`` evaluates the Stirling series after shifting its argument to
|z| >= 9 through the recurrence, with the reflection formula for Re z < 1/2;
all the terms are added in one correctly rounded ``math.fsum``, keeping
exp(ln_gamma) within 1e-13 of Gamma over the |z| <= 50 disk.  ``kummer_m``
takes one path per argument and never transforms it: the two-sector large-|z|
expansion for |z| > 40 where its optimal truncation reaches ~1e-13 (smallest
kept term vs sum), the Taylor series everywhere else, Re z < 0 included, so
the two sides of Kummer's transformation are independent sums.  The Taylor
sum monitors its own cancellation (sum of |terms| vs |result|); when
double precision cannot deliver ~1e-13, the series is re-summed in binary
fixed point: Python integers scaled by 2**bits, with the bits the
cancellation costs plus 84 guard bits, and one correctly rounded conversion
back to a complex double; one loop, _fixed_terms, makes every fixed-point
term, each the one floor of an exact rational.  That keeps purely imaginary
arguments of moderate size (the oscillatory scattering regime) at full
accuracy.  A float sum that has not finished within its term cap is
re-summed the same way, or refused with DomainError; a partial sum is never
returned.  The result is within ~1e-12 relative wherever ``kummer_m``
returns.  The regime split follows Pearson, Olver & Porter, Numer.
Algorithms 74 (2017), section 3.

``kummer_m_many(a, b, zs)`` is ``kummer_m`` over many arguments that share
(a, b), as a field dump's Kummer factors do: each distinct z takes the same
checks and dispatch once.  The plain cancellation re-sums among them are
held back; where at least _TABLE_MIN_GROUP share (a, b), they are summed
from one table of the coefficients c_n R^n in fixed point, the series' own
terms at z = R, R a power of two above their largest |z|, by one Horner pass
each in the exact z / R, at the group's largest working bits.  Smaller
groups, and the re-sums of a float pass that overflowed or ran out of terms,
sum the terms at z itself.

The float Taylor pass sums in the arithmetic of its arguments: complex for
kummer_m, float where a, b and z are real.  ``kummer_m_poly(n, b, xs)`` is
``kummer_m(-n, b, x)`` over a list of real xs for a real b, the bound
states' radial polynomial, summed in float arithmetic: every imaginary part
of the complex sum is +-0, so the values are the same bit for bit.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

_EPS = 2.220446049250313e-16
LN_SQRT_TWO_PI = 0.9189385332046727
LN_PI = 1.1447298858494002

# Stirling correction coefficients B_{2n} / (2n (2n-1)) for n = 1..10; the
# series is applied only for |z| >= _STIRLING_RADIUS, where the first omitted
# term is below 1e-18.
_STIRLING_C = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)
_STIRLING_RADIUS = 9.0
# cmath.sin(pi z) overflows once |Im pi z| exceeds ~710; the reflection branch
# of ln_gamma switches to a log-sin form there.
_SIN_OVERFLOW_IM = 700.0
_LN_TWO = 0.6931471805599453

# Taylor regime: series up to this |z|, asymptotic expansion beyond.
_TAYLOR_RADIUS = 40.0
_TAYLOR_MAX_TERMS = 500
_TAYLOR_RTOL = 1e-16
# Re-sum in fixed point when the float series has lost more than this; the
# asymptotic expansion gives way to the Taylor sum when its truncation
# estimate exceeds it.
_CONDITION_LIMIT = 1e-13
# Bits the fixed-point re-sum keeps beyond those the cancellation costs:
# 84 > 25 log2(10), so the result keeps 25 significant digits.  The result
# then holds at least 2**_GUARD_BITS units of 2**-bits; the sum stops at a
# term of at most _TAIL_UNITS units, past the peak, where the terms left
# decay and add up to about 2**-75 of the result.
_GUARD_BITS = 84
_TAIL_BITS = 8
_TAIL_UNITS = 1 << _TAIL_BITS
# The re-sum runs past the float pass's _TAYLOR_MAX_TERMS, so a series the
# float pass stopped short on, a polynomial of degree up to this among them,
# is finished here.  Its error stays a few units per term
# however much the series cancels: a floor changes a term by under one unit,
# so by under 1/|term| relative, and that relative change carries over to the
# tail from that term on, which is about as large as the term or the result.
_RESUM_MAX_TERMS = 1000
# Where the float pass overflowed, the re-sum's bits come from a bound on the
# largest term; past this many bits it is refused, since its integers would
# make each term cost milliseconds.  A degree-1000 polynomial near the top of
# the double range, M(-1000, 1/2, 1418) = -4.1e307, needs about 2,700.
_RESUM_MAX_BITS = 1 << 14
# kummer_m_many sums the cancellation re-sums that share (a, b) from one
# coefficient table once a group has this many; smaller groups re-sum one
# by one.  On the re-sums of benchmark field dumps, the table and Horner
# passes of a group of 2 took 1.09-1.32 times the running products, of 3
# 0.77-1.07 times and of 4 0.89-1.21 times (0.73-1.12 at 6).  At 3, an
# even cost, verify's integer-flux PDE stencil sums its three s-wave
# re-sums from a table, so a fault in the table shows in verify.
_TABLE_MIN_GROUP = 3


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _right_half_terms(z: complex) -> tuple[tuple, tuple]:
    """Summands of ln Gamma for Re z >= 1/2, real and imaginary parts.

    Shifts z up the recurrence until |z| >= _STIRLING_RADIUS, then applies the
    Stirling series; the -log(z+k) recurrence terms join the same correctly
    rounded sum as the Stirling pieces.
    """
    shift_logs = []
    zs = z
    while abs(zs) < _STIRLING_RADIUS:
        shift_logs.append(cmath.log(zs))
        zs += 1.0
    lz = cmath.log(zs)
    inv = 1.0 / zs
    inv2 = inv * inv
    corr = 0.0 + 0.0j
    for c in reversed(_STIRLING_C):
        corr = (corr + c) * inv2
    corr = corr * zs  # sum c_n z^{1-2n}
    wr, wi = zs.real - 0.5, zs.imag
    re = (LN_SQRT_TWO_PI, wr * lz.real, -wi * lz.imag, -zs.real, corr.real) + tuple(
        -l.real for l in shift_logs)
    im = (wr * lz.imag, wi * lz.real, -zs.imag, corr.imag) + tuple(
        -l.imag for l in shift_logs)
    return re, im


def ln_gamma(z: complex) -> complex:
    """Principal-branch log-gamma on the complex plane.

    Continuous (and real) on the positive real axis; Re z < 1/2 is handled via
    the reflection formula, whose imaginary part may differ from the analytic
    continuation by multiples of 2 pi i.  Raises DomainError at the poles, the
    non-positive integers.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise DomainError(f"Gamma pole at z = {z.real}")
    if z.real < 0.5:
        if abs(z.imag) * math.pi < _SIN_OVERFLOW_IM:
            ls = cmath.log(cmath.sin(cmath.pi * z))
        else:
            # sin(pi z) = (i sgn/2) e^{-i pi z sgn} (1 - e^{2 pi i sgn z}) with
            # sgn = sign(Im z); the last factor is 1 to within e^{-1400}, so
            # its log1p vanishes in double precision.
            sgn = math.copysign(1.0, z.imag)
            ls = -1j * sgn * cmath.pi * z - _LN_TWO + 0.5j * sgn * cmath.pi
        re, im = _right_half_terms(1.0 - z)
        # LN_PI - ls - lnGamma(1-z) in one correctly rounded sum
        re_terms = (LN_PI, -ls.real) + tuple(-v for v in re)
        im_terms = (-ls.imag,) + tuple(-v for v in im)
        return complex(math.fsum(re_terms), math.fsum(im_terms))
    re, im = _right_half_terms(z)
    return complex(math.fsum(re), math.fsum(im))


def arg_gamma(z: complex) -> float:
    """Phase of Gamma(z): the imaginary part of ln_gamma.

    Continuous along paths staying in Re z >= 1/2, and continuous in beta for
    the scattering phases arg Gamma(i beta), arg Gamma(1/2 - i beta).  All
    downstream uses enter through cos(...) or exp(i ...), so 2 pi ambiguities
    on other paths are harmless.
    """
    return ln_gamma(z).imag


def _taylor(a: complex, b: complex, z: complex):
    """Direct Taylor sum of M(a,b,z).

    Returns (value, sum of |terms|, number of terms after the leading 1).
    Terminates exactly when a is a non-positive integer.  A term counts as
    small only once the terms shrink, |a+n| |z| < |b+n| (n+1): a tiny a
    makes the first terms tiny even where the later ones grow.

    The sum runs in the arithmetic of its arguments: float for real a, b
    and z, complex otherwise (a float with a complex converts the float to
    x+0j, so the leading 1.0 changes no complex sum).  Every term is added,
    a zero term last: it changes no value, and the total of complex
    arguments is complex even where the first term is zero.
    """
    term = total = 1.0
    abs_sum = 1.0
    small = 0
    n = 0
    while n < _TAYLOR_MAX_TERMS:
        term = term * (a + n) * z / ((b + n) * (n + 1))
        n += 1
        total += term
        if term == 0.0:
            break
        abs_sum += abs(term)
        if (abs(term) <= _TAYLOR_RTOL * abs(total)
                and abs(a + n) * abs(z) < abs(b + n) * (n + 1)):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total, abs_sum, n


def _exact(*xs: float) -> tuple[list[int], int]:
    """Floats or ints as integers over one common power of two: x_i = n_i / 2**e."""
    ratios = [x.as_integer_ratio() for x in xs]
    e = max(den.bit_length() for _, den in ratios) - 1
    return [num << (e + 1 - den.bit_length()) for num, den in ratios], e


def _fixed_terms(a: complex, b: complex, z: complex, bits: int):
    """The terms t_1, t_2, ... of M(a, b, z) on integers scaled by 2**bits, at
    most _RESUM_MAX_TERMS of them: t_0 = 2**bits and each part of t_n is one
    floor of the exact t_{n-1} (a+n-1) z / ((b+n-1) n).

    a, b and z convert exactly (z may also be an int, as a table's R is), and
    w = (a+n-1) z grows by z per term, so a term costs one complex multiply
    and one division by (b+n-1) n; a complex b+n-1 divides as its conjugate
    over its squared modulus.  A floor changes a term by under one unit.
    """
    (ar, ai, zr, zi), e = _exact(a.real, a.imag, z.real, z.imag)
    (cr, ci), eb = _exact(b.real, b.imag)  # b + n - 1 = (cr + i ci) / 2**eb
    wr, wi = ar * zr - ai * zi, ar * zi + ai * zr  # w = (wr + i wi) / 2**(2 e)
    zr, zi = zr << e, zi << e
    shift = eb - 2 * e
    up, down = max(shift, 0), max(-shift, 0)
    step = 1 << eb
    modulus = cr * cr + ci * ci
    tr, ti = 1 << bits, 0
    for n in range(1, _RESUM_MAX_TERMS + 1):
        xr, xi = (tr * wr - ti * wi) << up, (tr * wi + ti * wr) << up
        if ci:
            xr, xi = xr * cr + xi * ci, xi * cr - xr * ci
            den = modulus * n << down
            modulus += (2 * cr + step) * step
        else:
            den = cr * n << down
        tr, ti = xr // den, xi // den
        yield tr, ti
        wr += zr
        wi += zi
        cr += step


def _taylor_fixed(a: complex, b: complex, z: complex, bits: int,
                  relative: bool = False) -> complex:
    """Taylor sum of M(a,b,z) in binary fixed point: the sum of _fixed_terms,
    on integers scaled by 2**bits.

    Used when the float series has cancelled too much, or has not finished
    within _TAYLOR_MAX_TERMS terms.  The one rounding to a complex double is
    the final correctly rounded integer division.

    The sum stops at a term of at most _TAIL_UNITS units.  With ``relative``
    it also stops at a term of at most 2**-_GUARD_BITS of the sum so far once
    the terms shrink: the float pass's own rule, carried past its cap.  A
    series the float pass could not finish may sum to far more than
    2**_GUARD_BITS units, and then the absolute rule alone would run on until
    its terms fall below 2**-bits.  A series that meets neither rule within
    _RESUM_MAX_TERMS terms raises DomainError.
    """
    one = 1 << bits
    sr, si = one, 0
    for n, (tr, ti) in enumerate(_fixed_terms(a, b, z, bits), 1):
        sr += tr
        si += ti
        if (-_TAIL_UNITS <= tr <= _TAIL_UNITS and -_TAIL_UNITS <= ti <= _TAIL_UNITS
                or relative and abs(a + n) * abs(z) < abs(b + n) * (n + 1)
                and max(abs(tr), abs(ti)) <= max(abs(sr), abs(si)) >> _GUARD_BITS):
            break
    else:
        # Only a polynomial of degree _RESUM_MAX_TERMS ends here summed in full;
        # lower degrees reach a zero term and stop above.
        if a != -_RESUM_MAX_TERMS:
            raise DomainError(f"M({complex(a)}, {complex(b)}, {complex(z)}): the Taylor "
                              f"series has not converged after {_RESUM_MAX_TERMS} terms")
    return complex(sr / one, si / one)


def _asymptotic_sum(ratio_fn, z: complex) -> tuple[complex, float]:
    """Sum an asymptotic series with optimal truncation (stop at smallest term).

    Returns the sum and |last kept term| / |sum|, an estimate of its relative
    truncation error.  A NaN term (parameters so large that the ratios overflow) ends
    the sum with an infinite estimate; the loop would otherwise run on to the
    cap of about |z| terms.
    """
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    prev = 1.0
    cap = int(abs(z)) + 20
    for n in range(cap):
        term = term * ratio_fn(n) / z
        mag = abs(term)
        if math.isnan(mag):
            return total, math.inf
        if mag > prev and n > 2:
            break
        total += term
        prev = mag
        if mag <= 1e-17 * abs(total):
            break
    return total, prev / abs(total)


def _asymptotic(a: complex, b: complex, z: complex) -> tuple[complex, float]:
    """Two-sector large-|z| expansion of M(a,b,z) with Gamma prefactors.

    M ~ Gamma(b) [ e^{+-i pi a} z^{-a}/Gamma(b-a) * S_p
                 + e^z z^{a-b}/Gamma(a) * S_e ],
    upper sign for Im z > 0, lower for Im z < 0 (DLMF 13.7.2): the sign
    switches on the positive real axis, the Stokes line of the z^{-a} term,
    where the sectors are averaged (cos pi a).  Prefactors are assembled in
    log space to dodge overflow.  Returns the value and the larger of the
    two sums' truncation estimates.
    """
    log_z = cmath.log(z)
    ln_b = ln_gamma(b)
    s_e, error = _asymptotic_sum(lambda n: (b - a + n) * (1.0 - a + n) / (n + 1), z)
    result = cmath.exp(ln_b - ln_gamma(a) + z + (a - b) * log_z) * s_e
    if not _is_nonpositive_integer(b - a):
        s_p, error_p = _asymptotic_sum(lambda n: -(a + n) * (a - b + 1.0 + n) / (n + 1), z)
        error = max(error, error_p)
        pre = ln_b - ln_gamma(b - a) - a * log_z
        if z.imag == 0.0 and z.real > 0.0:
            result += cmath.exp(pre) * cmath.cos(cmath.pi * a) * s_p
        else:
            sign = math.copysign(1.0, z.imag)
            result += cmath.exp(pre + sign * 1j * cmath.pi * a) * s_p
    return result, error


def _check_arguments(a: complex, b: complex, z: complex) -> None:
    """kummer_m's refusals: a non-finite z, then a non-finite a or b, then a
    pole of b."""
    if not cmath.isfinite(z):
        raise DomainError(f"M(a, b, z) needs a finite argument, got z = {z}")
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        name, value = ("b", b) if cmath.isfinite(a) else ("a", a)
        raise DomainError(f"M(a, b, z) needs a finite parameter, got {name} = {value}")
    if _is_nonpositive_integer(b):
        raise DomainError(f"lower parameter pole at b = {b.real}")


def _dispatch(a: complex, b: complex, z: complex,
              deferred: list | None = None) -> complex | None:
    """M(a, b, z) by its one path, for checked complex arguments.

    With a list ``deferred``, a plain cancellation re-sum is not run: its
    (z, bits) is appended to the list and None is returned (see
    _taylor_checked).
    """
    if abs(z) > _TAYLOR_RADIUS and not _is_nonpositive_integer(a):
        value, error = _asymptotic(a, b, z)
        if error <= _CONDITION_LIMIT:
            return value
    return _taylor_checked(a, b, z, deferred)


def kummer_m(a: complex, b: complex, z: complex) -> complex:
    """Confluent hypergeometric function M(a, b, z) = 1F1(a; b; z).

    One path per argument: the large-|z| expansion for |z| > _TAYLOR_RADIUS
    when a is not a non-positive integer and the expansion's truncation
    estimate is within _CONDITION_LIMIT, the checked Taylor sum otherwise
    (an exact polynomial when a is a non-positive integer -n).  Target
    accuracy ~1e-12 relative wherever it returns; raises DomainError when b
    is a non-positive integer, a, b or z is not finite, or the Taylor sum
    cannot finish.
    """
    a, b, z = complex(a), complex(b), complex(z)
    _check_arguments(a, b, z)
    return _dispatch(a, b, z)


def kummer_m_poly(n: int, b: float, xs) -> list[complex]:
    """[kummer_m(-n, b, x) for x in xs] for an integer n >= 0, a real b and
    real xs, bit for bit, signed zeros included, summed in float arithmetic.

    Each x goes through kummer_m's dispatch on floats: its float Taylor pass
    and, where that cancels, overflows or runs out of terms, the same
    fixed-point re-sum.  Every imaginary part of kummer_m's complex sum is
    +-0, so complex +, * and / give its real parts the float results, and
    abs(x +- 0j) is |x|.  (n, b) is checked with the first x, each later x
    for finiteness only; a refusal is the one the list would raise first,
    with kummer_m's message.
    """
    a, b = float(-n), float(b)
    values = []
    for x in xs:
        if not values or not math.isfinite(x):
            _check_arguments(complex(a), complex(b), complex(x))
        values.append(complex(_dispatch(a, b, float(x))))
    return values


def kummer_m_many(a: complex, b: complex, zs) -> list[complex]:
    """[kummer_m(a, b, z) for z in zs], each distinct z evaluated once.

    Every distinct argument (a signed zero counts as distinct) goes through
    kummer_m's own checks and dispatch.  The plain cancellation re-sums that
    dispatch asks for are held back and summed together by _resum_many, from
    one coefficient table per (a, b).  A table sum and _taylor_fixed's sum
    of the terms at z differ by a few units of 2**-bits before their one
    rounding, so they round alike unless the sum lies that close to a tie
    between two doubles (none of 8,056 field re-sums did).  A refusal is the
    one the loop over zs would raise first: a held-back re-sum of an earlier
    argument that fails is raised before a later argument's refusal.
    """
    a, b = complex(a), complex(b)
    keys: list = []
    values: dict = {}
    deferred: list = []
    try:
        for z in map(complex, zs):
            key = (z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))
            keys.append(key)
            if key not in values:
                _check_arguments(a, b, z)
                values[key] = _dispatch(a, b, z, deferred)
    finally:  # after a refusal, an earlier argument's failing re-sum raises first
        held = iter(_resum_many(a, b, deferred))
    values = {key: next(held) if value is None else value for key, value in values.items()}
    return [values[key] for key in keys]


def _log2_term_sum_bound(a: complex, b: complex, z: complex) -> int:
    """An upper bound on log2 of sum |terms| over the terms _taylor_fixed can
    sum: log2 of the term count plus the largest |term|, which is tracked
    through the term ratios in log space and so cannot overflow."""
    log_z = math.log2(abs(z))
    log_term = peak = 0.0
    for n in range(_RESUM_MAX_TERMS):
        if a + n == 0.0:
            break
        log_term += math.log2(abs(a + n)) + log_z - math.log2(abs(b + n) * (n + 1))
        peak = max(peak, log_term)
    return math.ceil(peak + math.log2(_RESUM_MAX_TERMS + 1))


def _taylor_checked(a: complex, b: complex, z: complex,
                    deferred: list | None = None) -> complex | None:
    """Taylor sum with a cancellation check and a fixed-point re-sum fallback.

    The float pass's condition estimate, sum |terms| / |result|, sets the
    fallback's working bits: its binary logarithm plus _GUARD_BITS.  A float
    pass that overflowed (a polynomial of high degree at large rho) has no
    estimate; the bits are then _GUARD_BITS over a bound on sum |terms|,
    which serves any result of magnitude 1 or more.  A float pass that ran
    all _TAYLOR_MAX_TERMS terms is a partial sum, never returned: it is
    re-summed with the relative stopping rule, or DomainError is raised.
    With a list ``deferred``, the re-sum of a float pass that finished but
    cancelled is held back: (z, bits) is appended and None returned.
    """
    value, abs_sum, n = _taylor(a, b, z)
    if not cmath.isfinite(value):
        bits = _GUARD_BITS + _log2_term_sum_bound(a, b, z)
        if bits > _RESUM_MAX_BITS:
            raise DomainError(f"M({complex(a)}, {complex(b)}, {complex(z)}): its Taylor "
                              f"terms reach 2**{bits - _GUARD_BITS}, past the re-sum's range")
        return _taylor_fixed(a, b, z, bits)
    scale = max(abs(value), 1e-300)
    capped = n == _TAYLOR_MAX_TERMS
    if capped or _EPS * abs_sum / scale > _CONDITION_LIMIT:
        lost = math.frexp(abs_sum)[1] - math.frexp(scale)[1] + 1
        bits = _GUARD_BITS + max(0, lost)
        if deferred is not None and not capped:
            deferred.append((z, bits))
            return None
        value = _taylor_fixed(a, b, z, bits, capped)
    return value


def _coefficient_table(a: complex, b: complex, group: list) -> tuple:
    """(bits, r, terms, reach): the Taylor coefficients of M(a, b, .) scaled
    for every (z, bits) of group, as D_n = c_n R**n on integers over 2**bits.

    bits is the group's largest, and R = 2**r is the power of two just above
    its largest |z|, so that z / R is exact and |z / R| < 1.  D_n is the
    series' own term at z = R, _fixed_terms(a, b, R, bits); since |z| <= R, a
    floor's error grows no faster down the table than it does down the terms
    of any z of the group.

    The term D_n x**n, x = z / R, is below _TAIL_UNITS (both parts) where
    log2|x| < (_TAIL_BITS - 1/2 - s_n) / n, s_n the bit length of D_n's
    larger part; reach[n] is the largest of these bounds up to n, so the
    first small term of a z is at the first n with reach[n] > log2|x|.  The
    table stops there for the group's largest |z|, which is no earlier than
    for any other z, or at _RESUM_MAX_TERMS.
    """
    bits = max(bits for _, bits in group)
    z_max = max(abs(z) for z, _ in group)
    r = math.frexp(z_max)[1]
    log_x = math.log2(z_max) - r
    terms, reach = [(1 << bits, 0)], [-math.inf]
    for n, (dr, di) in enumerate(_fixed_terms(a, b, 2 ** r, bits), 1):
        terms.append((dr, di))
        size = max(abs(dr), abs(di)).bit_length()
        reach.append(max(reach[-1], (_TAIL_BITS - 0.5 - size) / n))
        if reach[-1] > log_x:
            break
    return bits, r, terms, reach


def _table_sum(table: tuple, z: complex) -> complex | None:
    """M(a, b, z) from a _coefficient_table of (a, b) that covers z: one
    Horner pass over D_N, ..., D_0 in x = z / R, flooring each product to
    2**-bits, so its error grows by at most a unit a term.  N is the first
    n at which the term D_n x**n is below _TAIL_UNITS by the table's bound,
    where _taylor_fixed's sum would stop or after it.  None if no term
    within the table is that small.
    """
    bits, r, terms, reach = table
    log_x = math.log2(abs(z)) - r
    lo, hi = 1, len(reach)
    while lo < hi:  # the first n >= 1 with reach[n] > log_x
        mid = (lo + hi) >> 1
        if reach[mid] > log_x:
            hi = mid
        else:
            lo = mid + 1
    if lo == len(reach):
        return None
    (zr, zi), e = _exact(z.real, z.imag)  # x = (zr + i zi) / 2**(e + r)
    e += r
    sr, si = terms[lo]
    for dr, di in terms[lo - 1::-1]:
        sr, si = dr + (sr * zr - si * zi >> e), di + (sr * zi + si * zr >> e)
    one = 1 << bits
    return complex(sr / one, si / one)


def _resum_many(a: complex, b: complex, deferred: list) -> list[complex]:
    """[_taylor_fixed(a, b, z, bits) for (z, bits) in deferred], to well
    within a double's rounding: where there are at least _TABLE_MIN_GROUP,
    from one _coefficient_table by _table_sum.  A re-sum that fails raises
    as _taylor_fixed does, the first in order.
    """
    table = _coefficient_table(a, b, deferred) if len(deferred) >= _TABLE_MIN_GROUP else None
    values = []
    for z, bits in deferred:
        value = None if table is None else _table_sum(table, z)
        values.append(_taylor_fixed(a, b, z, bits) if value is None else value)
    return values
