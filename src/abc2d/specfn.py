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
products are carried with exact-residual multiplication, and all the terms,
residuals included, are added in one correctly rounded ``math.fsum``, keeping
exp(ln_gamma) within 1e-13 of Gamma over the |z| <= 50 disk.  ``kummer_m``
takes one path per argument and never transforms it: the two-sector large-|z|
expansion for |z| > 40 where its optimal truncation reaches ~1e-13 (smallest
kept term vs sum), the Taylor series everywhere else, Re z < 0 included, so
the two sides of Kummer's transformation are independent sums.  The Taylor
sum monitors its own cancellation (sum of |terms| vs |result|); when
double precision cannot deliver ~1e-13, the series is re-summed in binary
fixed point: Python integers scaled by 2**bits, with the bits the
cancellation costs plus 84 guard bits, and one correctly rounded conversion
back to a complex double.  That keeps purely imaginary arguments of moderate
size (the oscillatory scattering regime) at full accuracy.  A float sum that
has not finished within its term cap is re-summed the same way, or refused
with DomainError; a partial sum is never returned.  The result is within
~1e-12 relative wherever ``kummer_m`` returns.  The regime split follows
Pearson, Olver & Porter, Numer. Algorithms 74 (2017), section 3.
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
_TAIL_UNITS = 1 << 8
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


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting constant


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """a*b as rounded product plus exact residual (Dekker/Veltkamp)."""
    p = a * b
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _right_half_terms(z: complex) -> tuple[tuple, tuple]:
    """Summands of ln Gamma for Re z >= 1/2, product residuals kept separate.

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
    inv2 = 1.0 / (zs * zs)
    corr = 0.0 + 0.0j
    for c in reversed(_STIRLING_C):
        corr = (corr + c) * inv2
    corr = corr * zs  # sum c_n z^{1-2n}
    wr, wi = zs.real - 0.5, zs.imag
    p1, e1 = _two_prod(wr, lz.real)
    p2, e2 = _two_prod(wi, lz.imag)
    p3, e3 = _two_prod(wr, lz.imag)
    p4, e4 = _two_prod(wi, lz.real)
    re = (LN_SQRT_TWO_PI, p1, e1, -p2, -e2, -zs.real, corr.real) + tuple(
        -l.real for l in shift_logs)
    im = (p3, e3, p4, e4, -zs.imag, corr.imag) + tuple(
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
    """
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    abs_sum = 1.0
    small = 0
    n = 0
    while n < _TAYLOR_MAX_TERMS:
        term = term * (a + n) * z / ((b + n) * (n + 1))
        n += 1
        if term == 0.0:
            break
        total += term
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
    """Floats as integers over one common power of two: x_i = n_i / 2**e."""
    ratios = [x.as_integer_ratio() for x in xs]
    e = max(den.bit_length() for _, den in ratios) - 1
    return [num << (e + 1 - den.bit_length()) for num, den in ratios], e


def _rescale(n: int, shift: int) -> int:
    """floor(n * 2**shift)."""
    return n << shift if shift >= 0 else n >> -shift


def _taylor_fixed(a: complex, b: complex, z: complex, bits: int,
                  relative: bool = False) -> complex:
    """Taylor sum of M(a,b,z) in binary fixed point, on integers scaled by 2**bits.

    Used when the float series has cancelled too much, or has not finished
    within _TAYLOR_MAX_TERMS terms.  The inputs convert
    exactly (a z is formed exactly, then floored), each term is floored to
    2**-bits, and the one rounding to a complex double is the final
    correctly rounded integer division.  w = (a+n) z grows by z per term, so
    a term costs one complex multiply and a division by (b+n)(n+1); a complex
    b+n divides as its conjugate over its squared modulus.

    The sum stops at a term of at most _TAIL_UNITS units.  With ``relative``
    it also stops at a term of at most 2**-_GUARD_BITS of the sum so far once
    the terms shrink: the float pass's own rule, carried past its cap.  A
    series the float pass could not finish may sum to far more than
    2**_GUARD_BITS units, and then the absolute rule alone would run on until
    its terms fall below 2**-bits.  A series that meets neither rule within
    _RESUM_MAX_TERMS terms raises DomainError.
    """
    (ar, ai, zr, zi), e = _exact(a.real, a.imag, z.real, z.imag)
    (cr, ci), eb = _exact(b.real, b.imag)  # b + n = (cr + i ci) / 2**eb
    bits = max(bits, eb)
    one = 1 << bits
    wr = _rescale(ar * zr - ai * zi, bits - 2 * e)
    wi = _rescale(ar * zi + ai * zr, bits - 2 * e)
    zr, zi = _rescale(zr, bits - e), _rescale(zi, bits - e)
    step = 1 << eb
    shift = bits - eb
    modulus = cr * cr + ci * ci
    tr, ti = one, 0
    sr, si = one, 0
    for n in range(1, _RESUM_MAX_TERMS + 1):
        xr, xi = tr * wr - ti * wi, tr * wi + ti * wr
        if ci:
            xr, xi = xr * cr + xi * ci, xi * cr - xr * ci
            den = modulus * n
            modulus += (2 * cr + step) * step
        else:
            den = cr * n
        # floor(x / 2**shift) // den == floor(x / (den 2**shift)) for den > 0
        tr, ti = (xr >> shift) // den, (xi >> shift) // den
        sr += tr
        si += ti
        if (-_TAIL_UNITS <= tr <= _TAIL_UNITS and -_TAIL_UNITS <= ti <= _TAIL_UNITS
                or relative and abs(a + n) * abs(z) < abs(b + n) * (n + 1)
                and max(abs(tr), abs(ti)) <= max(abs(sr), abs(si)) >> _GUARD_BITS):
            break
        wr += zr
        wi += zi
        cr += step
    else:
        # Only a polynomial of degree _RESUM_MAX_TERMS ends here summed in full;
        # lower degrees reach a zero term and stop above.
        if a != -_RESUM_MAX_TERMS:
            raise DomainError(f"M({a}, {b}, {z}): the Taylor series has not converged "
                              f"after {_RESUM_MAX_TERMS} terms")
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


def kummer_m(a: complex, b: complex, z: complex) -> complex:
    """Confluent hypergeometric function M(a, b, z) = 1F1(a; b; z).

    One path per argument: the large-|z| expansion for |z| > _TAYLOR_RADIUS
    when a is not a non-positive integer and the expansion's truncation
    estimate is within _CONDITION_LIMIT, the checked Taylor sum otherwise
    (an exact polynomial when a is a non-positive integer -n).  Target
    accuracy ~1e-12 relative wherever it returns; raises DomainError when b
    is a non-positive integer, z is not finite, or the Taylor sum cannot
    finish.
    """
    a, b, z = complex(a), complex(b), complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"M(a, b, z) needs a finite argument, got z = {z}")
    if _is_nonpositive_integer(b):
        raise DomainError(f"lower parameter pole at b = {b.real}")
    if abs(z) > _TAYLOR_RADIUS and not _is_nonpositive_integer(a):
        value, error = _asymptotic(a, b, z)
        if error <= _CONDITION_LIMIT:
            return value
    return _taylor_checked(a, b, z)


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


def _taylor_checked(a: complex, b: complex, z: complex) -> complex:
    """Taylor sum with a cancellation check and a fixed-point re-sum fallback.

    The float pass's condition estimate, sum |terms| / |result|, sets the
    fallback's working bits: its binary logarithm plus _GUARD_BITS.  A float
    pass that overflowed (a polynomial of high degree at large rho) has no
    estimate; the bits are then _GUARD_BITS over a bound on sum |terms|,
    which serves any result of magnitude 1 or more.  A float pass that ran
    all _TAYLOR_MAX_TERMS terms is a partial sum, never returned: it is
    re-summed with the relative stopping rule, or DomainError is raised.
    """
    value, abs_sum, n = _taylor(a, b, z)
    if not cmath.isfinite(value):
        bits = _GUARD_BITS + _log2_term_sum_bound(a, b, z)
        if bits > _RESUM_MAX_BITS:
            raise DomainError(f"M({a}, {b}, {z}): its Taylor terms reach "
                              f"2**{bits - _GUARD_BITS}, past the re-sum's range")
        return _taylor_fixed(a, b, z, bits)
    scale = max(abs(value), 1e-300)
    capped = n == _TAYLOR_MAX_TERMS
    if capped or _EPS * abs_sum / scale > _CONDITION_LIMIT:
        lost = math.frexp(abs_sum)[1] - math.frexp(scale)[1] + 1
        value = _taylor_fixed(a, b, z, _GUARD_BITS + max(0, lost), capped)
    return value
