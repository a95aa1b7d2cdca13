"""Vectorized double-double helpers for phase-critical evaluation.

The q-periodicity and q-derivative identities checked by this package hold
to within 1e-12 of the local scale, but a plain float64 pipeline loses
roughly ``2 * k**2 * |ln x| * eps`` of phase accuracy before the modulator
even sees its argument, which for steep modulators is orders of magnitude
above that budget.  The fix is standard compensated arithmetic: a value is
a pair ``(hi, lo)`` of float64 arrays with ``hi + lo`` accurate to about
1e-32 relative.  Only the handful of operations needed here are provided.

``dd_log`` is table driven (Tang 1990): the mantissa m is recentred into
[sqrt(1/2), sqrt(2)), rounded to c = i/128, and ln m = ln c + 2 atanh z
with z = (m - c)/(m + c), |z| <= 2.8e-3.  The 91 values ln c are built at
import by the same atanh routine run to 24 double-double terms; at run
time the series stops at z**10, with only its first three terms in
double-double.  The error budget is derived in its docstring: about
1e-31 * max(1, |ln x|) over all positive finite doubles.

All functions broadcast over numpy arrays and also accept Python floats.
References for the algorithms: Dekker (1971), Knuth TAOCP vol 2, Tang,
"Table-driven implementation of the logarithm function in IEEE
floating-point arithmetic" (ACM TOMS 16, 1990), and the QD library
recurrences of Hida, Li and Bailey (2001).
"""

from __future__ import annotations

import math

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


def two_prod(a, b):
    """Error-free product: returns (p, e) with p + e == a * b exactly."""
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def dd_add(xh, xl, yh, yl):
    sh, se = two_sum(xh, yh)
    te = se + (xl + yl)
    h = sh + te
    l = te - (h - sh)
    return h, l


def dd_add_d(xh, xl, y):
    sh, se = two_sum(xh, y)
    te = se + xl
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


def _log_ratio(a, b, terms, float_terms=0):
    """ln(a / b) = 2 atanh z, z = (a - b) / (a + b), as a double-double pair.

    ``a - b`` must be exact (Sterbenz: b/2 <= a <= 2b); ``a + b`` is carried
    exactly by ``two_sum``.  The series ``sum_n z**(2n) / (2n+1)`` runs by
    Horner on z**2 with its first ``terms`` coefficients in double-double;
    the next ``float_terms`` are summed in plain float64 beforehand.
    """
    num = a - b
    den_h, den_l = two_sum(a, b)
    zh, zl = dd_div(num, 0.0, den_h, den_l)
    z2h, z2l = dd_sq(zh, zl)
    t = 0.0
    for ch, _ in reversed(_ATANH_COEFF[terms : terms + float_terms]):
        t = t * z2h + ch
    sh, sl = t * z2h, 0.0
    for n in reversed(range(terms)):
        ch, cl = _ATANH_COEFF[n]
        sh, sl = dd_add_d(sh, sl, ch)
        sl = sl + cl
        if n:
            sh, sl = dd_mul(sh, sl, z2h, z2l)
    lh, ll = dd_mul(sh, sl, zh, zl)
    return 2.0 * lh, 2.0 * ll


# ln c for the table points c = i / 128 that a mantissa recentred into
# [sqrt(1/2), sqrt(2)) rounds to, i = 91..181.  Here |z| <= 0.172, so 24
# double-double terms leave a truncation error below 1e-36.
_TABLE_SCALE = 128.0
_TABLE_FIRST = int(np.rint(_SQRT_HALF * _TABLE_SCALE))
_TABLE_C = np.arange(
    _TABLE_FIRST, int(np.rint(2.0 * _SQRT_HALF * _TABLE_SCALE)) + 1
) / _TABLE_SCALE
_LN_TABLE_HI, _LN_TABLE_LO = _log_ratio(_TABLE_C, 1.0, 24)


def dd_log(x):
    """Natural log of positive x as a double-double pair.

    With x = m * 2**e, m in [sqrt(1/2), sqrt(2)) (exact by frexp and one
    doubling), c = rint(128 m) / 128 and z = (m - c) / (m + c),

        ln x = e ln 2 + ln c + 2 atanh z,

    with ln c read from a table built at import.  |z| <= 2.8e-3, so
    z**2 <= 7.8e-6 and the series stops at z**10: the first dropped term
    adds under 1e-34.  Only the 1/3 and 1/5 Horner steps need
    double-double; the z**6..z**10 tail (about 6e-17 of the series) is
    summed in float64, whose rounding costs about eps * z**6 = 5e-32
    relative.  z itself carries ~1e-32 relative error from ``dd_div``, the
    table ~1e-32 absolute, and LN2_HI + LN2_LO is ln 2 to ~1e-33, so the
    result is within about 1e-31 * max(1, |ln x|) of ln x over the whole
    positive float64 range, subnormals included.  Input must be positive
    and finite.
    """
    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(x)
    # Recenter the mantissa into [sqrt(1/2), sqrt(2)); doubling is exact.
    low = m < _SQRT_HALF
    m = np.where(low, m + m, m)
    e = (e - low).astype(np.float64)

    i = np.rint(m * _TABLE_SCALE)
    lh, ll = _log_ratio(m, i / _TABLE_SCALE, 3, 3)
    idx = i.astype(np.intp) - _TABLE_FIRST
    lh, ll = dd_add(_LN_TABLE_HI[idx], _LN_TABLE_LO[idx], lh, ll)
    # ln x = e * ln2 + ln m
    th, tl = two_prod(e, LN2_HI)
    tl = tl + e * LN2_LO
    return dd_add(th, tl, lh, ll)


def dd_frac(xh, xl):
    """Fractional part of a double-double value, reduced into [0, 1).

    The returned pair can have ``hi == 1.0`` with a negative ``lo`` when
    the value sits just below 1; the represented value is still inside
    [0, 1).  Range tests therefore look at both words, not just ``hi``.
    """
    f = np.floor(xh)
    # xh - f is NOT always exact (e.g. negative xh close to 0), so run it
    # through an error-free transform and fold the residual into lo.
    dh, de = two_sum(xh, -f)
    rh, rl = dd_add_d(dh, de, xl)
    under = (rh < 0.0) | ((rh == 0.0) & (rl < 0.0))
    rh2, rl2 = dd_add_d(rh, rl, 1.0)
    rh = np.where(under, rh2, rh)
    rl = np.where(under, rl2, rl)
    over = (rh > 1.0) | ((rh == 1.0) & (rl >= 0.0))
    rh3, rl3 = dd_add_d(rh, rl, -1.0)
    rh = np.where(over, rh3, rh)
    rl = np.where(over, rl3, rl)
    return rh, rl


def dd_exp_to_double(xh, xl):
    """exp of a double-double argument, returned as a plain float64.

    ``exp(xh) * (1 + xl)`` keeps the relative error near machine epsilon
    even when ``|xh|`` is large, where ``exp`` of the rounded sum alone
    would lose ``|xh| * eps / 2`` relative accuracy.  Requires |xl| small,
    which dd normalization guarantees.
    """
    return np.exp(xh) * (1.0 + xl)


def fold_harmonic(wh, wl, b):
    """Map a phase w in [0,1) to frac(b * w) for an integer harmonic b.

    b must be exactly representable in float64 (b <= 2**53).  The result
    stays a double-double pair so repeated folding loses only O(eps**2)
    per step relative to the incoming phase.
    """
    ph, pl = dd_mul_d(wh, wl, float(b))
    return dd_frac(ph, pl)
