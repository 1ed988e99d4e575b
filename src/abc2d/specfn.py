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
products and the long alternating sums are carried with exact-residual
multiplication and compensated accumulation, keeping exp(ln_gamma) within
1e-13 of Gamma over the |z| <= 50 disk.  ``kummer_m`` sums the Taylor series for
|z| <= 40 and switches to the two-sector large-|z| expansion beyond.  The
Taylor sum monitors its own cancellation (sum of |terms| vs |result|); when
double precision cannot deliver ~1e-13, the series is re-summed in decimal
arithmetic with enough guard digits.  That keeps purely imaginary arguments
of moderate size (the oscillatory scattering regime) at full accuracy.
"""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext

from .errors import DomainError, ParameterPole, PoleError

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
# Re-sum in decimal arithmetic when the float series has lost more than this.
_CONDITION_LIMIT = 1e-13


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _neumaier(terms_re, terms_im) -> complex:
    """Compensated (Neumaier) summation, separately on real and imaginary parts."""
    out = [0.0, 0.0]
    for k, terms in enumerate((terms_re, terms_im)):
        s = 0.0
        c = 0.0
        for t in terms:
            tot = s + t
            if abs(s) >= abs(t):
                c += (s - tot) + t
            else:
                c += (t - tot) + s
            s = tot
        out[k] = s + c
    return complex(out[0], out[1])


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
    Stirling series; the -log(z+k) recurrence terms join the same compensated
    accumulation as the Stirling pieces.
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
    continuation by multiples of 2 pi i.  Raises PoleError at non-positive
    integers.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"Gamma pole at z = {z.real}")
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
        # LN_PI - ls - lnGamma(1-z) in one compensated accumulation
        re_terms = (LN_PI, -ls.real) + tuple(-v for v in re)
        im_terms = (-ls.imag,) + tuple(-v for v in im)
        return _neumaier(re_terms, im_terms)
    re, im = _right_half_terms(z)
    return _neumaier(re, im)


def arg_gamma(z: complex) -> float:
    """Phase of Gamma(z): the imaginary part of ln_gamma.

    Continuous along paths staying in Re z >= 1/2, and continuous in beta for
    the scattering phases arg Gamma(i beta), arg Gamma(1/2 - i beta).  All
    downstream uses enter through cos(...) or exp(i ...), so 2 pi ambiguities
    on other paths are harmless.
    """
    return ln_gamma(z).imag


def gamma_moduli(beta: float) -> tuple[float, float]:
    """Closed-form squared moduli (|Gamma(i beta)|^2, |Gamma(1/2 + i beta)|^2).

    Returns (pi/(beta sinh pi beta), pi/cosh pi beta).  Raises
    ZeroDivisionError at beta = 0 where the first expression has a pole.
    """
    g0 = math.pi / (beta * math.sinh(beta * math.pi))
    g1 = math.pi / math.cosh(beta * math.pi)
    return g0, g1


def _taylor(a: complex, b: complex, z: complex):
    """Direct Taylor sum of M(a,b,z).

    Returns (value, sum of |terms|, number of terms after the leading 1).
    Terminates exactly when a is a non-positive integer.
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
        if abs(term) <= _TAYLOR_RTOL * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total, abs_sum, n


def _taylor_decimal(a: complex, b: complex, z: complex, digits: int):
    """Taylor sum in decimal arithmetic with `digits` working digits.

    Used when the float series has cancelled too much.  Complex values are
    carried as (Decimal, Decimal) pairs; floats convert exactly, so the only
    error is the final rounding back to a complex double.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        ar, ai = Decimal(a.real), Decimal(a.imag)
        br, bi = Decimal(b.real), Decimal(b.imag)
        zr, zi = Decimal(z.real), Decimal(z.imag)
        tr, ti = Decimal(1), Decimal(0)
        sr, si = Decimal(1), Decimal(0)
        stop = Decimal(10) ** (-(digits - 2))
        n = 0
        terms = 0
        while n < 1000:
            dn = Decimal(n)
            pr, pi_ = ar + dn, ai
            tr, ti = tr * pr - ti * pi_, tr * pi_ + ti * pr
            tr, ti = tr * zr - ti * zi, tr * zi + ti * zr
            qr, qi = br + dn, bi
            den = qr * qr + qi * qi
            tr, ti = (tr * qr + ti * qi) / den, (ti * qr - tr * qi) / den
            n += 1
            dn1 = Decimal(n)
            tr, ti = tr / dn1, ti / dn1
            if tr == 0 and ti == 0:
                break
            terms += 1
            sr, si = sr + tr, si + ti
            if abs(tr) + abs(ti) < stop * (abs(sr) + abs(si) + 1):
                break
        return complex(float(sr), float(si)), terms


def _asymptotic_sum(ratio_fn, z: complex) -> complex:
    """Sum an asymptotic series with optimal truncation (stop at smallest term).

    A NaN term (parameters so large that the ratios overflow) is returned at
    once as the sum, for the caller's finiteness check to report; the loop
    would otherwise run on to the cap of about |z| terms.
    """
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    prev = 1.0
    cap = int(abs(z)) + 20
    for n in range(cap):
        term = term * ratio_fn(n) / z
        mag = abs(term)
        if math.isnan(mag):
            return term
        if mag > prev and n > 2:
            break
        total += term
        prev = mag
        if mag <= 1e-17 * abs(total):
            break
    return total


def _asymptotic(a: complex, b: complex, z: complex) -> complex:
    """Two-sector large-|z| expansion of M(a,b,z) with Gamma prefactors.

    M ~ Gamma(b) [ e^{+-i pi a} z^{-a}/Gamma(b-a) * S_p
                 + e^z z^{a-b}/Gamma(a) * S_e ],
    upper sign for -pi/2 < arg z <= pi, lower for arg z <= -pi/2; on the
    positive real axis the sectors are averaged (cos pi a).  Prefactors are
    assembled in log space to dodge overflow.
    """
    log_z = cmath.log(z)
    ln_b = ln_gamma(b)
    result = 0.0 + 0.0j
    if not _is_nonpositive_integer(a):
        s_e = _asymptotic_sum(lambda n: (b - a + n) * (1.0 - a + n) / (n + 1), z)
        result += cmath.exp(ln_b - ln_gamma(a) + z + (a - b) * log_z) * s_e
    if not _is_nonpositive_integer(b - a):
        s_p = _asymptotic_sum(lambda n: -(a + n) * (a - b + 1.0 + n) / (n + 1), z)
        pre = ln_b - ln_gamma(b - a) - a * log_z
        if z.imag == 0.0 and z.real > 0.0:
            result += cmath.exp(pre) * cmath.cos(cmath.pi * a) * s_p
        else:
            sign = 1.0 if cmath.phase(z) > -0.5 * math.pi else -1.0
            result += cmath.exp(pre + sign * 1j * cmath.pi * a) * s_p
    return result


def kummer_m(a: complex, b: complex, z: complex) -> complex:
    """Confluent hypergeometric function M(a, b, z) = 1F1(a; b; z).

    Exact degree-n polynomial when a is a non-positive integer -n.  Kummer's
    transformation M(a,b,z) = e^z M(b-a, b, -z) is applied first for
    Re z < 0.  Target accuracy ~1e-12 relative for |z| <= 50 with parameters
    of moderate size; raises ParameterPole when b is a non-positive integer
    and DomainError when z is not finite.
    """
    a, b, z = complex(a), complex(b), complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"M(a, b, z) needs a finite argument, got z = {z}")
    if _is_nonpositive_integer(b):
        raise ParameterPole(f"lower parameter pole at b = {b.real}")
    if z == 0.0:
        return 1.0 + 0.0j
    if _is_nonpositive_integer(a):
        return _taylor_checked(a, b, z)
    if z.real < 0.0:
        return cmath.exp(z) * kummer_m(b - a, b, -z)
    if abs(z) <= _TAYLOR_RADIUS:
        return _taylor_checked(a, b, z)
    return _asymptotic(a, b, z)


def _taylor_checked(a: complex, b: complex, z: complex) -> complex:
    """Taylor sum with a cancellation check and decimal re-summation fallback."""
    value, abs_sum, _ = _taylor(a, b, z)
    scale = max(abs(value), 1e-300)
    if _EPS * abs_sum / scale > _CONDITION_LIMIT:
        digits = 25 + max(0, int(math.log10(abs_sum / scale)))
        value, _ = _taylor_decimal(a, b, z, digits)
    return value
