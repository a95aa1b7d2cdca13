"""Independent reference implementations used only by the test suite.

Everything here is built from mpmath, scipy, and the math module directly,
never from the package under test, so agreement between the two is
meaningful.  The mpmath routines run at 50 significant digits unless noted.
The exceptions are the replaced paths, kept to compare each new method
against the one it replaced: :func:`gl_component`, the composite
Gauss-Legendre path that the Filon rule replaced,
:func:`dd_log_series`, the untabulated double-double logarithm,
:func:`dd_frac` with :func:`dd_fold_harmonic`, the double-double phase
folding that 128-bit fixed-point phases replaced, and
:func:`dd_log_allocating`, :func:`float_phase_allocating`,
:func:`phase_from_dd_allocating` and :func:`phase_sin_allocating` with
their error-free products, the pointwise kernels as they were before they
computed in place: the same arithmetic, one fresh array per operation; and
:func:`as_positive_array_masked`, the input check that built its mask
before any reduction.

A second, algorithmically different quadrature (adaptive Simpson) lives
here as well; it is practical only for integrands with modest oscillation
and is used to cross-check derivations, while scipy.integrate.quad (an
adaptive Gauss-Kronrod code) serves as the production-independent oracle
for oscillatory moment integrals.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 50


def mp_lnq(k):
    return -1 / (2 * mpmath.mpf(k) ** 2)


def mp_q(k):
    return mpmath.exp(mp_lnq(k))


def mp_weight(k, x):
    k = mpmath.mpf(k)
    return k / mpmath.sqrt(mpmath.pi) * mpmath.exp(-(k**2) * mpmath.log(x) ** 2)


def _mp_terms(desc):
    """Expand a modulator dict into (amplitude, harmonic, kind) triples."""
    if "weierstrass" in desc:
        w = desc["weierstrass"]
        a, b, n, kind = mpmath.mpf(w["a"]), int(w["b"]), int(w["N"]), w["kind"]
        return [(a**i, b**i, kind) for i in range(1, n + 1)]
    return [(mpmath.mpf(m["a"]), int(m["b"]), m["kind"]) for m in desc["modes"]]


def mp_modulator(desc, x):
    """g(x) for a modulator dict, evaluated in mpmath."""
    u = mpmath.log(mpmath.mpf(x)) / mp_lnq(desc["k"])
    total = mpmath.mpf(0)
    for amp, harm, kind in _mp_terms(desc):
        theta = 2 * mpmath.pi * mpmath.frac(harm * u)
        total += amp * (mpmath.sin(theta) if kind == "sine" else mpmath.cos(theta))
    return total


def mp_series_oscillation(a, b, n, kind, w0, h, probes, prec=256):
    """max |W(w0 + d) - W(w0)| over d = +-h j / probes, j = 1..probes.

    W(w) = sum_{t=1..n} a**t trig(2 pi b**t w) at the exact real points
    w0 + d, in ``prec``-bit arithmetic: enough to hold b**n (w0 + d) with
    every fractional bit of a float w0.
    """
    with mpmath.workprec(prec):
        amps = [mpmath.mpf(a) ** t for t in range(1, n + 1)]
        trig = mpmath.sin if kind == "sine" else mpmath.cos

        def profile(w):
            return mpmath.fsum(
                amp * trig(2 * mpmath.pi * mpmath.frac(b**t * w))
                for t, amp in enumerate(amps, 1)
            )

        w0 = mpmath.mpf(w0)
        at_w0 = profile(w0)
        offsets = [s * mpmath.mpf(h) * j / probes
                   for j in range(1, probes + 1) for s in (1, -1)]
        return float(max(abs(profile(w0 + d) - at_w0) for d in offsets))


def mp_density(desc, x):
    lam = mpmath.mpf(desc["lambda"])
    return mp_weight(desc["k"], x) * (1 + lam * mp_modulator(desc, x))


def mp_moment_closed_form(k, n):
    """ln of the n-th moment of the base weight: (n+1)**2 / (4 k**2)."""
    return (mpmath.mpf(n) + 1) ** 2 / (4 * mpmath.mpf(k) ** 2)


def mp_moment_quad(desc, n, dps=50):
    """n-th moment of the perturbed density by mpmath tanh-sinh quadrature.

    Substitutes x = exp(t) and integrates over a window wide enough for
    5e-17 truncation at the given k and n.  Practical for small |omega|
    only; heavy oscillation needs the scipy oracle below.
    """
    with mpmath.workdps(dps):
        k = mpmath.mpf(desc["k"])
        lam = mpmath.mpf(desc["lambda"])
        lnq = mp_lnq(desc["k"])
        terms = _mp_terms(desc)

        def integrand(t):
            g = mpmath.mpf(0)
            u = t / lnq
            for amp, harm, kind in terms:
                theta = 2 * mpmath.pi * mpmath.frac(harm * u)
                g += amp * (
                    mpmath.sin(theta) if kind == "sine" else mpmath.cos(theta)
                )
            return (
                k
                / mpmath.sqrt(mpmath.pi)
                * mpmath.exp((n + 1) * t - k**2 * t**2)
                * (1 + lam * g)
            )

        mu = (mpmath.mpf(n) + 1) / (2 * k**2)
        half = mpmath.sqrt(mpmath.mpf(dps + 5) * mpmath.log(10)) / k
        return mpmath.quad(integrand, [mu - half, mu, mu + half])


def scipy_moment_rel(desc, n, rel_tol=1e-13):
    """n-th moment divided by the closed-form base moment, via scipy.

    The integral is centered and rescaled before scipy sees it:
    with t = mu + s, the integrand becomes exp(-k**2 s**2) * phi(s) times
    exp((n+1)**2/(4 k**2)), so the returned ratio is O(1) regardless of n.
    Uses plain float64 evaluation; accuracy is limited to ~1e-13 by the
    phase arithmetic, which is enough to corroborate 1e-11 claims.
    """
    from scipy.integrate import quad

    k = float(desc["k"])
    lam = float(desc["lambda"])
    lnq = -1.0 / (2.0 * k * k)
    terms = [(float(a), float(b), kind) for a, b, kind in _mp_terms(desc)]
    mu = (n + 1.0) / (2.0 * k * k)
    half = math.sqrt(math.log(1e17)) / k

    def phi(s):
        g = 0.0
        u = (mu + s) / lnq
        for amp, harm, kind in terms:
            theta = 2.0 * math.pi * ((harm * u) % 1.0)
            g += amp * (math.sin(theta) if kind == "sine" else math.cos(theta))
        return math.exp(-(k * s) ** 2) * (1.0 + lam * g)

    val, err = quad(phi, -half, half, epsabs=1e-15, epsrel=rel_tol, limit=4000)
    ratio = val * k / math.sqrt(math.pi)
    return ratio, err * k / math.sqrt(math.pi)


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=40):
    """Classic recursive Simpson with Richardson acceptance.

    Kept deliberately simple; this is the second independent quadrature
    algorithm for smooth cross-checks.
    """

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if depth <= 0:
            raise RuntimeError("adaptive_simpson: max depth exceeded")
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth - 1) + recurse(
            m, fm, rm, frm, b, fb, right, 0.5 * tol, depth - 1
        )

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = simpson(fa, fm, fb, b - a)
    return recurse(a, fa, m, fm, b, fb, whole, tol, max_depth)


def mp_orthonormal_coeffs(k, degree, dps=60):
    """Monic orthogonal polynomial coefficients, scaled variable, mpmath.

    Works in y = x / rho with rho = M1/M0 = exp(3 / (4 k**2)) and moments
    normalized by M0, i.e. mhat_n = exp(n(n-1)/(4 k**2) ... ) computed
    from the closed form.  Returns a (degree+1) x (degree+1) lower
    triangular list of mpmath floats: row j holds the coefficients of the
    monic degree-j polynomial in powers of y.  Gram-Schmidt on the
    monomials with exact moment inner products.
    """
    with mpmath.workdps(dps):
        kk = mpmath.mpf(k)

        def mhat(n):
            # ln Mn - ln M0 - n (ln M1 - ln M0) = n(n-1)/(4 k**2)
            return mpmath.exp(mpmath.mpf(n) * (n - 1) / (4 * kk**2))

        size = degree + 1
        coeffs = []
        for j in range(size):
            work = [mpmath.mpf(0)] * size
            work[j] = mpmath.mpf(1)
            for prev in coeffs:
                num = mpmath.mpf(0)
                den = mpmath.mpf(0)
                for r in range(size):
                    if prev[r] == 0:
                        continue
                    for s in range(size):
                        if work[s] != 0:
                            num += prev[r] * work[s] * mhat(r + s)
                        if prev[s] != 0:
                            den += prev[r] * prev[s] * mhat(r + s)
                factor = num / den
                for r in range(size):
                    work[r] -= factor * prev[r]
            coeffs.append(work)
        return coeffs


def mp_sw_norms(k, degree, dps=60):
    """<P_n, P_n> for the Stieltjes-Wigert P_0 .. P_degree, from determinants.

    The monic orthogonal polynomial of degree n has squared norm D_{n+1} /
    D_n, D_n = det [M_{i+j}]_{i,j<n} with the closed-form M_n = exp((n+1)**2
    / (4 k**2)); P_n has leading coefficient (-1)**n q**(n*n + n/2) / (q;q)_n,
    q = exp(-1 / (2 k**2)).  Nothing here uses the closed-form norm.
    """
    with mpmath.workdps(dps):
        kk = mpmath.mpf(k)
        q = mpmath.exp(-1 / (2 * kk**2))

        def m(n):
            return mpmath.exp(mpmath.mpf(n + 1) ** 2 / (4 * kk**2))

        dets = [mpmath.mpf(1)] + [
            mpmath.det(mpmath.matrix([[m(i + j) for j in range(size)] for i in range(size)]))
            for size in range(1, degree + 2)
        ]
        return [
            (q ** (n * n + mpmath.mpf(n) / 2) / mpmath.qp(q, q, n)) ** 2 * dets[n + 1] / dets[n]
            for n in range(degree + 1)
        ]


def mp_panel(k, c0, c1, center, half, phase0, a, kind, dps=60):
    """One oscillatory panel integral in closed form, via the complex erf.

    Returns ``half * integral_{-1}^{1} exp(-k**2 s**2 + c0 + c1 s) *
    trig(phase0 + a x) dx`` with ``s = center + half * x``, trig being sin
    for kind "sine" and cos otherwise, every input taken as the exact
    binary double it is.  With ``alpha = k * half`` the exponent is
    ``-alpha**2 x**2 + B x + C`` for complex B and C; completing the square
    gives ``sqrt(pi) / (2 alpha) * exp(C + B**2 / (4 alpha**2))`` times a
    difference of erf values at ``alpha * (+-1 - x0)``, ``x0 = B / (2
    alpha**2)``.  The huge factors at large ``a`` cancel in extended
    precision.
    """
    with mpmath.workdps(dps):
        k, c0, c1, c, h, phi, a = (
            mpmath.mpf(v) for v in (k, c0, c1, center, half, phase0, a)
        )
        alpha = k * h
        b = -2 * k**2 * c * h + c1 * h + mpmath.mpc(0, 1) * a
        const = -(k**2) * c**2 + c0 + c1 * c + mpmath.mpc(0, 1) * phi
        x0 = b / (2 * alpha**2)
        val = (
            h
            * mpmath.sqrt(mpmath.pi)
            / (2 * alpha)
            * mpmath.exp(const + b**2 / (4 * alpha**2))
            * (mpmath.erf(alpha * (1 - x0)) - mpmath.erf(alpha * (-1 - x0)))
        )
        return float(val.imag if kind == "sine" else val.real)


def gl_component(k, n, harmonic, kind, rel_tol=1e-12):
    """Centered component integral by the replaced composite Gauss-Legendre rule.

    Built on the package's panel kernel ``_kernels.gauss_panels`` and its
    centering and phase anchors, with the old panel plan: at most 3
    oscillation periods per 32-node panel (>= 10 nodes per period), and
    1.5x that panel count.  Its cost grows with the
    harmonic, so keep harmonics modest.  ``kind`` is "sine" or "cosine".
    """
    from qmoments import _kernels
    from qmoments import quadrature as qd

    _, T, (smooth, _) = qd._plan_components(k, [n], [], qd.QuadratureSpec(rel_tol=rel_tol))
    mu, _, c0, c1 = qd._center_residuals(k, n)
    omega = qd._omega_s(k, harmonic)
    periods = abs(omega) * T / math.pi
    p = max(smooth.size, math.ceil(periods / 3.0))
    centers, half = qd._panel_grid(T, math.ceil(1.5 * p))
    phase0 = qd._phase_anchors(k, mu, [harmonic], (centers, half))[:, 0]
    nodes, weights = np.polynomial.legendre.leggauss(32)
    code = 1 if kind == "sine" else 2
    partials = _kernels.gauss_panels(
        centers, half, nodes, weights, k * k, c0, c1, phase0, omega, code
    )
    return float(np.sum(partials))


def exact_anchor_error(k, mus, centers, harmonics, angles):
    """Largest |angle - 2 pi frac(h (mu + c) / ln q)| of a table of anchors, mod 2 pi.

    ``angles`` has one row per order's center mu and panel center c (mu
    varying slowest) and one column per harmonic h.  ln q = -1/(2 k**2)
    exactly, so each phase is an exact Fraction, reduced mod 1 in integers
    (its denominator is a power of 2).  2 pi, from mpmath at 80 digits, and
    the float angles are compared in integers scaled by 2**200.
    """
    with mpmath.workdps(80):
        tau = int(mpmath.floor(2 * mpmath.pi * 2**200))
    per_lnq = -2 * Fraction(k) ** 2
    by_center = [per_lnq * Fraction(c) for c in centers]
    phases = (per_lnq * Fraction(mu) + u for mu in mus for u in by_center)
    worst = 0
    for u, row in zip(phases, np.asarray(angles).tolist(), strict=True):
        for h, angle in zip(harmonics, row, strict=True):
            ref = (h * u.numerator % u.denominator) * tau // u.denominator
            num, den = angle.as_integer_ratio()
            diff = ((num << 200) // den - ref) % tau
            worst = max(worst, min(diff, tau - diff))
    return worst / 2**200


def mp_spherical_jn(l, x):
    """Spherical Bessel j_l(x) = sqrt(pi / (2x)) J_{l+1/2}(x) for x >= 0."""
    if x == 0:
        return 1.0 if l == 0 else 0.0
    x = mpmath.mpf(x)
    return float(mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(l + 0.5, x))


def mp_gauss_legendre(dps=40):
    """The 32 Gauss-Legendre nodes and weights at ``dps`` digits.

    Newton's method on P_32 from numpy's nodes, then w_i = 2 / ((1 -
    x_i**2) P_32'(x_i)**2); P_32 and P_31 by the three-term recurrence.
    """
    def legendre_pair(t):  # P_31(t), P_32(t)
        prev, cur = mpmath.mpf(1), t
        for l in range(1, 32):
            prev, cur = cur, ((2 * l + 1) * t * cur - l * prev) / (l + 1)
        return prev, cur

    nodes, weights = [], []
    with mpmath.workdps(dps):
        for x0 in np.polynomial.legendre.leggauss(32)[0].tolist():
            x = mpmath.mpf(x0)
            for _ in range(6):
                p31, p32 = legendre_pair(x)
                x -= p32 / (32 * (p31 - x * p32) / (1 - x * x))
            p31, _ = legendre_pair(x)
            nodes.append(x)
            weights.append(2 * (1 - x * x) / (32 * p31) ** 2)
    return nodes, weights


def mp_filon_weights(a, nodes, weights, dps=40):
    """W_i(a) = w_i sum_{l<32} (2l+1) i**l j_l(a) P_l(x_i) at exact nodes;
    negative a uses j_l(-a) = (-1)**l j_l(a)."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(abs(a))
        jn = [(-1 if a < 0 and l % 2 else 1) * mpmath.sqrt(mpmath.pi / (2 * x))
              * mpmath.besselj(l + 0.5, x) if a else mpmath.mpf(l == 0) for l in range(32)]
        out = []
        for x, w in zip(nodes, weights):
            p_prev, p, total = mpmath.mpf(1), x, jn[0]
            for l in range(1, 32):
                total += (2 * l + 1) * mpmath.mpc(0, 1) ** l * jn[l] * p
                p_prev, p = p, ((2 * l + 1) * x * p - l * p_prev) / (l + 1)
            out.append(w * total)
        return out


def dd_log_series(x):
    """ln x as a double-double pair by the replaced untabulated series.

    Recentres the mantissa m into [sqrt(1/2), sqrt(2)) and sums 24
    double-double terms of ``ln m = 2 atanh((m - 1) / (m + 1))``, where
    z**2 <= 0.0294 leaves a truncation error below 1e-36.  Built on the
    package's double-double primitives, with its own coefficients.
    """
    from qmoments import _dd

    coeff = []
    for n in range(24):
        d = float(2 * n + 1)
        chi = 1.0 / d
        p, e = _dd.two_prod(chi, d)
        coeff.append((chi, -((p - 1.0) + e) / d))
    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(x)
    low = m < 0.7071067811865476
    m = np.where(low, m + m, m)
    e = (e - low).astype(np.float64)
    num = m - 1.0
    den_h, den_l = _dd.two_sum(m, 1.0)
    zh, zl = _dd.dd_div(num, np.zeros_like(num), den_h, den_l)
    z2h, z2l = _dd.dd_sq(zh, zl)
    sh = np.full_like(m, coeff[-1][0])
    sl = np.full_like(m, coeff[-1][1])
    for ch, cl in coeff[-2::-1]:
        sh, sl = _dd.dd_mul(sh, sl, z2h, z2l)
        sh, sl = _dd.dd_add(sh, sl, ch, 0.0)
        sl = sl + cl
    lh, ll = _dd.dd_mul(sh, sl, zh, zl)
    lh, ll = _dd.dd_mul_d(lh, ll, 2.0)
    th, tl = _dd.two_prod(e, _dd.LN2_HI)
    tl = tl + e * _dd.LN2_LO
    return _dd.dd_add(th, tl, lh, ll)


def dd_frac(xh, xl):
    """Fractional part of a double-double value by the replaced path.

    Reduced into [0, 1) as a value: the returned pair can have
    ``hi == 1.0`` with a negative ``lo`` just below 1.  Built on the
    package's double-double primitives.
    """
    from qmoments import _dd

    f = np.floor(xh)
    # xh - f is not always exact (negative xh close to 0), so the residual
    # of an error-free sum is folded into lo
    dh, de = _dd.two_sum(xh, -f)
    rh, rl = _dd.dd_add(dh, de, xl, 0.0)
    under = (rh < 0.0) | ((rh == 0.0) & (rl < 0.0))
    rh2, rl2 = _dd.dd_add(rh, rl, 1.0, 0.0)
    rh = np.where(under, rh2, rh)
    rl = np.where(under, rl2, rl)
    over = (rh > 1.0) | ((rh == 1.0) & (rl >= 0.0))
    rh3, rl3 = _dd.dd_add(rh, rl, -1.0, 0.0)
    rh = np.where(over, rh3, rh)
    rl = np.where(over, rl3, rl)
    return rh, rl


def dd_fold_harmonic(wh, wl, b):
    """frac(b * w) of a double-double phase by the replaced path.

    b is rounded to float64, so it is exact only up to 2**53; each fold
    loses O(eps**2) relative to the incoming phase.
    """
    from qmoments import _dd

    ph, pl = _dd.dd_mul_d(wh, wl, np.asarray(b, dtype=np.float64))
    return dd_frac(ph, pl)


def dd_angle(wh, wl):
    """2*pi*w from a double-double phase, as the replaced path formed it."""
    from qmoments import _dd

    return _dd.TWO_PI_HI * wh + (_dd.TWO_PI_HI * wl + _dd.TWO_PI_LO * wh)


def _split_allocating(a):
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod_allocating(a, b):
    """Dekker's error-free product as the package first wrote it."""
    p = a * b
    ahi, alo = _split_allocating(a)
    bhi, blo = _split_allocating(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def dd_mul_d_allocating(xh, xl, y):
    p, e = two_prod_allocating(xh, y)
    e = e + xl * y
    h = p + e
    return h, e - (h - p)


def dd_sq_allocating(xh, xl):
    p, e = two_prod_allocating(xh, xh)
    e = e + 2.0 * (xh * xl)
    h = p + e
    return h, e - (h - p)


def dd_log_allocating(x):
    """The table-driven double-double ln x, one fresh array per operation.

    Reads the package's ln c table, so it checks the arithmetic that runs
    on top of the table, not the table itself.
    """
    from qmoments import _dd

    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(x)
    low = m < _dd._SQRT_HALF
    e = (e - low).astype(np.float64)
    f = (m + m * low) * _dd._TABLE_SCALE - _dd._TABLE_FIRST
    j = np.rint(f)
    f -= j
    idx = j.astype(np.intp)
    j = 2.0 * (j + _dd._TABLE_FIRST)
    dh = j + f
    dl = f - (dh - j)
    z = f / dh
    p, pe = two_prod_allocating(z, dh)
    z2 = ((f - p) - pe - z * dl) / dh
    zh, zl = _split_allocating(z)
    sq = zh * zh
    g1, g2 = _split_allocating(sq)
    g1 *= zh
    zl += z2
    br = g2 * zh + 3.0 * zl * (sq + zh * zl)
    q = g1 / 3.0
    s = q + q + q
    rem = (g1 - s) - (q - (s - (q + q)))
    s = z * z
    g1 += br
    g1 *= s * (0.4 + s * (2.0 / 7.0 + s * (2.0 / 9.0)))
    lh = z + q
    ll = 2.0 * ((q - (lh - z)) + z2) + (2.0 / 3.0) * (rem + br) + g1
    lh *= 2.0
    th = _dd._LN_TABLE_HI[idx]
    s = th + lh
    eh, el = two_prod_allocating(e, _dd.LN2_HI)
    h = eh + s
    lo = ((s - (h - eh)) + (lh - (s - th)) + _dd._LN_TABLE_LO[idx]
          + ll + el + e * _dd.LN2_LO)
    hi = h + lo
    return hi, lo - (hi - h)


def float_phase_allocating(x):
    """frac(x) of a float64 x as two uint64 words, the allocating form."""
    f = np.atleast_1d(x - np.trunc(x))
    neg = f.view(np.uint64) >> np.uint64(63)
    f = np.abs(f) * 2.0**64
    t = np.trunc(f)
    w1, w0 = t.astype(np.uint64), ((f - t) * 2.0**64).astype(np.uint64)
    w0 = (w0 ^ -neg) + neg
    return (w1 ^ -neg) + (neg & (w0 == 0)), w0


def phase_from_dd_allocating(xh, xl):
    (w1, w0), (v1, v0) = float_phase_allocating(xh), float_phase_allocating(xl)
    lo = w0 + v0
    return w1 + v1 + (lo < w0), lo


def phase_sin_allocating(w1):
    """sin(2 pi w) from the top word, the allocating form."""
    from qmoments import _dd

    j = (w1 >> np.uint64(56)).view(np.int64)
    rho = (w1 & np.uint64(2**56 - 1)).view(np.int64) * (_dd.TWO_PI_HI * 2.0**-64)
    r2 = rho * rho
    s = _dd._SIN_TABLE.take(j)
    out = r2 * (-0.5 + r2 * (1.0 / 24.0 - r2 * (1.0 / 720.0)))
    out *= s
    rho *= 1.0 + r2 * (-1.0 / 6.0 + r2 * (1.0 / 120.0 - r2 * (1.0 / 5040.0)))
    rho *= _dd._COS_TABLE.take(j)
    out += rho
    out += s
    return out


def as_positive_array_masked(x, name="x"):
    """The input check of the pointwise evaluators, mask first."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    bad = ~np.isfinite(arr) | (arr <= 0.0)
    if np.any(bad):
        offender = arr[bad][0]
        raise ValueError(f"{name} must be positive and finite, got {offender!r}")
    return arr, scalar
