"""Double-double and fixed-point helpers for phase-critical evaluation.

The q-periodicity and q-derivative identities checked by this package hold
to within 1e-12 of the local scale, but a plain float64 pipeline loses
roughly ``2 * k**2 * |ln x| * eps`` of phase accuracy before the modulator
even sees its argument, which for steep modulators is orders of magnitude
above that budget.  The fix is standard compensated arithmetic: a value is
a pair ``(hi, lo)`` of float64 arrays with ``hi + lo`` accurate to about
1e-32 relative.  Only the handful of operations needed here are provided.

``dd_log`` is table driven (Tang 1990): the mantissa m is recentred into
[sqrt(1/2), sqrt(2)), rounded to c = i/1024, and ln m = ln c + 2 atanh z
with z = (m - c)/(m + c), |z| <= 3.5e-4.  The 725 values ln c are built at
import by the same atanh routine run to 24 double-double terms; at run
time only the 2z and 2z**3/3 terms need double-double, and z**5..z**9 are
summed in float64.  The result is within about 5e-32 * max(1, |ln x|) over
all positive finite doubles, and within ~2**-103 relative near x = 1.

A phase w = frac(u) leaves double-double once, as the 128-bit fraction
(w1 * 2**64 + w0) / 2**128 in two uint64 words, kept at least 1-d since
numpy's scalar uint64 products warn on wrap.  Folding by an integer
harmonic is multiplication mod 2**128, which rounds nothing (Payne and
Hanek, "Radian reduction for trigonometric functions", SIGNUM 1983).
``phase_sin`` reads sin(2 pi w) off the top word through a 256-entry table
and short polynomials, within ~2e-16 absolute.

All functions broadcast over numpy arrays and also accept Python floats.
References for the algorithms: Dekker (1971), Knuth TAOCP vol 2, Tang,
"Table-driven implementation of the logarithm function in IEEE
floating-point arithmetic" (ACM TOMS 16, 1990), and the QD library
recurrences of Hida, Li and Bailey (2001).
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1

# ln 2 = LN2_HI + LN2_LO to ~1e-33
LN2_HI = 0.6931471805599453
LN2_LO = 2.3190468138462996e-17

# 2*pi = TWO_PI_HI + TWO_PI_LO
TWO_PI_HI = 6.283185307179586
TWO_PI_LO = 2.4492935982947064e-16

_SQRT_HALF = 0.7071067811865476


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s + e == a + b exactly."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def _split(a):
    """Veltkamp split a = hi + lo, hi with 26 significant bits, lo with 27."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """Error-free product: returns (p, e) with p + e == a * b exactly."""
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def dd_add(xh, xl, yh, yl):
    sh, se = two_sum(xh, yh)
    te = se + (xl + yl)
    h = sh + te
    l = te - (h - sh)
    return h, l


def dd_mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    h = p + e
    l = e - (h - p)
    return h, l


def dd_mul_d(xh, xl, y):
    p, e = two_prod(xh, y)
    e = e + xl * y
    h = p + e
    l = e - (h - p)
    return h, l


def dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    p, e = two_prod(q1, yh)
    rh, rl = dd_add(xh, xl, -p, -e - q1 * yl)
    q2 = (rh + rl) / yh
    h = q1 + q2
    l = q2 - (h - q1)
    return h, l


def dd_sq(xh, xl):
    p, e = two_prod(xh, xh)
    e = e + 2.0 * (xh * xl)
    h = p + e
    l = e - (h - p)
    return h, l


# Coefficients 1/(2n+1) of the atanh series, as (hi, lo) pairs.
_ATANH_COEFF = []
for _n in range(24):
    _d = float(2 * _n + 1)
    _chi = 1.0 / _d
    _p, _e = two_prod(_chi, _d)
    _clo = -((_p - 1.0) + _e) / _d
    _ATANH_COEFF.append((_chi, _clo))
del _n, _d, _chi, _p, _e, _clo


def _log_ratio(a, b, terms):
    """ln(a / b) = 2 atanh z, z = (a - b) / (a + b), as a double-double pair.

    ``a - b`` must be exact (Sterbenz: b/2 <= a <= 2b); ``a + b`` is carried
    exactly by ``two_sum``.  The series ``sum_n z**(2n) / (2n+1)`` runs by
    Horner on z**2 with its first ``terms`` coefficients in double-double.
    """
    num = a - b
    den_h, den_l = two_sum(a, b)
    zh, zl = dd_div(num, 0.0, den_h, den_l)
    z2h, z2l = dd_sq(zh, zl)
    sh, sl = 0.0, 0.0
    for n in reversed(range(terms)):
        ch, cl = _ATANH_COEFF[n]
        sh, sl = dd_add(sh, sl, ch, 0.0)
        sl = sl + cl
        if n:
            sh, sl = dd_mul(sh, sl, z2h, z2l)
    lh, ll = dd_mul(sh, sl, zh, zl)
    return 2.0 * lh, 2.0 * ll


# ln c for the table points c = i / 1024 that a mantissa recentred into
# [sqrt(1/2), sqrt(2)) rounds to, i = 724..1448.  Here |z| <= 0.172, so 24
# double-double terms leave a truncation error below 1e-36.
_TABLE_SCALE = 1024.0
_TABLE_FIRST = int(np.rint(_SQRT_HALF * _TABLE_SCALE))  # and rint(1024 sqrt 2) = 1448
_TABLE_C = np.arange(_TABLE_FIRST, 2 * _TABLE_FIRST + 1) / _TABLE_SCALE
_LN_TABLE_HI, _LN_TABLE_LO = _log_ratio(_TABLE_C, 1.0, 24)


def dd_log(x):
    """Natural log of positive x as a double-double pair.

    With x = m * 2**e, m in [sqrt(1/2), sqrt(2)) (exact by frexp and one
    doubling), c = rint(1024 m) / 1024 and z = (m - c) / (m + c),

        ln x = e ln 2 + ln c + 2 atanh z,

    with ln c from the table and z a double-double quotient.  2z**3/3 comes
    from the exact cube of z's 26-bit head, divided by 3 with an exact
    remainder; z**5..z**9 are float64.  Input must be positive and finite.
    """
    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(x)
    # Recenter the mantissa into [sqrt(1/2), sqrt(2)); doubling is exact.
    low = m < _SQRT_HALF
    e = (e - low).astype(np.float64)
    f = (m + m * low) * _TABLE_SCALE - _TABLE_FIRST  # exact: bits to 2**-43
    del m, low  # here and below: dead arrays go at once, to keep the peak low
    j = np.rint(f)
    f -= j  # 1024 (m - c), exact
    idx = j.astype(np.intp)
    # z = f / (a + f) with a = 2048 c an integer, and dh + dl = a + f
    j = 2.0 * (j + _TABLE_FIRST)
    dh = j + f
    dl = f - (dh - j)
    z = f / dh
    p, pe = two_prod(z, dh)
    z2 = ((f - p) - pe - z * dl) / dh
    del j, f, p, pe, dl, dh
    # zh**3 = g1 + g2 exactly, and g1 = 3 q + rem with rem exact
    zh, zl = _split(z)
    sq = zh * zh
    g1, g2 = _split(sq)
    g1 *= zh
    zl += z2  # z + z2 = zh + zl
    br = g2 * zh + 3.0 * zl * (sq + zh * zl)  # z**3 - g1, to ~2**-79 relative
    del zh, zl, sq, g2
    q = g1 / 3.0
    s = q + q + q
    rem = (g1 - s) - (q - (s - (q + q)))
    s = z * z
    g1 += br
    g1 *= s * (0.4 + s * (2.0 / 7.0 + s * (2.0 / 9.0)))  # (2/5) z**5 + ...
    # 2 atanh z = 2 (z + q) + 2 z2 + (2/3)(rem + br) + ..., the first sum exact
    lh = z + q
    ll = 2.0 * ((q - (lh - z)) + z2) + (2.0 / 3.0) * (rem + br) + g1
    lh *= 2.0
    del s, z, z2, q, rem, br, g1
    # ln x = e ln 2 + ln c + 2 atanh z; each sum's first term is the larger
    th = _LN_TABLE_HI[idx]
    s = th + lh  # error lh - (s - th): |ln c| >= 9.7e-4 > |lh|, or ln c = 0
    eh, el = two_prod(e, LN2_HI)
    h = eh + s
    lo = ((s - (h - eh)) + (lh - (s - th)) + _LN_TABLE_LO[idx]
          + ll + el + e * LN2_LO)
    hi = h + lo
    return hi, lo - (hi - h)


def dd_exp_to_double(xh, xl):
    """exp of a double-double argument, returned as a plain float64.

    ``exp(xh) * (1 + xl)`` keeps the relative error near machine epsilon
    even when ``|xh|`` is large, where ``exp`` of the rounded sum alone
    would lose ``|xh| * eps / 2`` relative accuracy.  Requires |xl| small,
    which dd normalization guarantees.
    """
    return np.exp(xh) * (1.0 + xl)


_M32, _S32, _S63 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(63)


def _float_phase(x):
    """frac(x) of a float64 x as a phase, truncated below 2**-128."""
    f = np.atleast_1d(x - np.trunc(x))  # exact, with the sign of x
    neg = f.view(np.uint64) >> _S63  # 1 where w is 2**128 minus the magnitude
    f = np.abs(f) * 2.0**64
    t = np.trunc(f)
    w1, w0 = t.astype(np.uint64), ((f - t) * 2.0**64).astype(np.uint64)
    w0 = (w0 ^ -neg) + neg  # two's complement of both words where neg
    return (w1 ^ -neg) + (neg & (w0 == 0)), w0


def phase_from_dd(xh, xl):
    """frac(xh + xl) of a double-double value as a phase, within 2**-127.

    Each word is reduced on its own and the two are added mod 2**128, so
    any sign and any |xh| work: from |xh| >= 2**53 on, the whole fraction
    is in ``xl``.
    """
    (w1, w0), (v1, v0) = _float_phase(xh), _float_phase(xl)
    lo = w0 + v0
    return w1 + v1 + (lo < w0), lo


def fold_harmonic(w, h):
    """frac(h * w) = h * w mod 2**128 for an integer harmonic h, exactly.

    ``h`` is a Python int of any size, a uint64 array of harmonics below
    2**64, or a pair ``(h1, h0)`` of uint64 arrays holding the two words of
    h mod 2**128; arrays broadcast against the words.  The high word of the
    low words' product is built from 32-bit limbs, and a Python int below
    2**32 skips the products of its zero upper limb; nothing rounds, so
    folding by b twice equals folding by b**2.
    """
    w1, w0 = w
    h1 = None
    if isinstance(h, tuple):
        h1, h = h
    elif not isinstance(h, np.ndarray):
        h = int(h) % 2**128
        if h >> 32 == 0:  # one limb: a1 h + (a0 h >> 32) < 2**64
            h = np.uint64(h)
            hi = ((w0 >> _S32) * h + ((w0 & _M32) * h >> _S32)) >> _S32
            return hi + w1 * h, w0 * h
        h1 = np.uint64(h >> 64) if h >> 64 else None
        h = np.uint64(h & 0xFFFFFFFFFFFFFFFF)
    a1, a0, c1, c0 = w0 >> _S32, w0 & _M32, h >> _S32, h & _M32
    p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
    carry = ((p00 >> _S32) + (p01 & _M32) + (p10 & _M32)) >> _S32
    hi = a1 * c1 + (p01 >> _S32) + (p10 >> _S32) + carry + w1 * h
    return (hi if h1 is None else hi + w0 * h1), w0 * h


# sin and cos of 2 pi j / 256 = a + b, a double-double angle, within an ulp
_TRIG_A, _TRIG_B = two_prod(TWO_PI_HI, np.arange(256) / 256.0)
_TRIG_B += TWO_PI_LO * np.arange(256) / 256.0
_SIN_TABLE = np.sin(_TRIG_A) + np.cos(_TRIG_A) * _TRIG_B
_COS_TABLE = np.cos(_TRIG_A) - np.sin(_TRIG_A) * _TRIG_B


def phase_sin(w1):
    """sin(2*pi*w) of a phase w from its top word w1 alone, within ~2e-16.

    With j the top 8 bits and rho = 2*pi*(w - j/256) < 2*pi/256, it is
    S_j + S_j (cos rho - 1) + C_j sin rho, by the table and Taylor
    polynomials of degree 6 and 7 (under 1e-17 left out).  The low word is
    not read.  Adding a quarter turn, 2**62, to w1 gives cos(2*pi*w).
    """
    j = (w1 >> np.uint64(56)).view(np.int64)
    rho = (w1 & np.uint64(2**56 - 1)).view(np.int64) * (TWO_PI_HI * 2.0**-64)
    r2 = rho * rho
    s = _SIN_TABLE.take(j)
    out = r2 * (-0.5 + r2 * (1.0 / 24.0 - r2 * (1.0 / 720.0)))
    out *= s
    rho *= 1.0 + r2 * (-1.0 / 6.0 + r2 * (1.0 / 120.0 - r2 * (1.0 / 5040.0)))
    rho *= _COS_TABLE.take(j)
    out += rho
    out += s
    return out


def phase_angle(w):
    """The float64 angle 2*pi*w of a phase w in uint64 words."""
    w1, w0 = w
    top = (w1 >> np.uint64(11)) * 2.0**-53
    rest = (w1 & np.uint64(0x7FF)) * 2.0**-64 + w0 * 2.0**-128
    return phase_angle_split(top, rest)


def phase_angle_split(top, rest):
    """The float64 angle 2*pi*(top + rest), within an ulp, for a small rest."""
    fh = top + rest
    fl = rest - (fh - top)  # exact while |rest| <= |top|, or top is 0
    return TWO_PI_HI * fh + (TWO_PI_HI * fl + TWO_PI_LO * fh)
