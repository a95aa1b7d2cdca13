"""Correctness checks built outside the program.

Every reference here is recomputed from the closed forms of the
construction, in plain float64 or mpmath, never from qmoments:

* vanishing integrals are 0;
* sine-only modulators leave every moment at M_n = exp((n+1)^2/(4k^2));
* cosine content rescales every moment by 1 + sum lam*a*exp(-4 pi^2 b^2 k^2);
* the convention case reads ln M_1 = 1 at k = 1;
* Holder fits give ln(1/a)/ln(b) (1 for the smooth control);
* the q-Pearson and q-derivative residuals are 0 up to the CLI's noise
  model;
* normalized Hankel matrices of the shared moments are the Gaussian
  Toeplitz matrices exp(-(i-j)^2/(4k^2)).

Values are held to the tolerances the CLI uses, not to the program's own
``error_estimate``.  Each check returns a list of failure messages (the
battery check also returns the ids of cases the program could not
compute); an empty list means the outputs are right.
"""

import math

import numpy as np

from inputs import BATTERY_MODULATORS, modulator_terms, sup_bound

EPS = float(np.finfo(float).eps)

TOL_VANISH = 1e-10
TOL_MOMENT = 1e-10
TOL_RATIO = 1e-8
TOL_PEARSON = 1e-13
TOL_QDERIV = 1e-12
TOL_GRAM = 1e-6
TOL_HOLDER = 0.05
TOL_SMOOTH = 0.02
MIN_FIT_R2 = 0.98
# Gap allowed between a reported Hankel eigenvalue and the reference one:
# both come from eigvalsh of matrices whose entries agree to ~1e-13.
TOL_HANKEL = 1e-10
# eval_density against the float64 reference g below, in units of the
# local scale f(x) * (1 + |lam| * S); the reference's own phase rounding is
# ~4e-12 for the 10-term Weierstrass modulator.
TOL_DENSITY = 1e-10
# eval_density against 30-digit mpmath, same units.
TOL_DENSITY_MP = 1e-12
MP_DPS = 30


def ln_moment(k, n):
    """ln M_n = (n+1)^2 / (4 k^2) for the base weight."""
    return (n + 1) ** 2 / (4.0 * k * k)


def ln_vanish_scale(k, n):
    """ln of the vanishing integral without its sine: ln M_n + ln(sqrt(pi)/k)."""
    return ln_moment(k, n) + math.log(math.sqrt(math.pi) / k)


def cosine_factor(desc):
    """1 + sum over cosine harmonics of lam * a * exp(-4 pi^2 b^2 k^2)."""
    k, lam = desc["k"], desc["lambda"]
    return 1.0 + sum(
        lam * a * math.exp(-4.0 * math.pi ** 2 * b * b * k * k)
        for a, b, kind in modulator_terms(desc) if kind == "cosine"
    )


def holder_exponent(a, b):
    return math.log(1.0 / a) / math.log(b)


# ---------------------------------------------------------------- integrals

def integral_over_scale(call, sign, ln_abs):
    """The program's integral in units of its closed-form scale."""
    if call["kind"] == "vanish":
        scale = ln_vanish_scale(call["k"], call["n"])
    else:
        scale = ln_moment(call["modulator"]["k"], call["n"])
    return 0.0 if sign == 0 else sign * math.exp(ln_abs - scale)


def check_integral(call, sign, ln_abs):
    """One lowfreq-sweep result against its closed form."""
    v = integral_over_scale(call, sign, ln_abs)
    if call["kind"] == "vanish":
        ref, tol = 0.0, TOL_VANISH
    else:
        ref, tol = cosine_factor(call["modulator"]), TOL_MOMENT
    if not abs(v - ref) <= tol:
        return [f"{call}: value/scale {v!r}, expected {ref!r} within {tol:g}"]
    return []


def opposite_convention(call, sign, ln_abs):
    """The result a program using M_n = q^{+(n+1)^2/2} would report.

    Under that sign the moment is exp(-(n+1)^2/(4k^2)) times the factor,
    i.e. ln|value| shifted by -2 ln M_n.
    """
    return sign, ln_abs - 2.0 * ln_moment(call["modulator"]["k"], call["n"])


# ------------------------------------------------------------------ battery

def _battery_references():
    """Case id -> (reference, tolerance, rule) for every case of `all`."""
    refs = {}
    for k in (0.5, 1.0, 2.0):
        for n in range(11):
            for j in range(1, 6):
                refs[f"vanish/k={k}/n={n}/j={j}"] = (0.0, TOL_VANISH, "abs")
    for name in ("sine1", "sine3", "weier"):
        lam_max = 1.0 / sup_bound(BATTERY_MODULATORS[name])
        for lam in (-lam_max, 0.3, lam_max):
            for n in range(11):
                refs[f"invariance/{name}/lam={lam}/n={n}"] = (1.0, TOL_MOMENT, "abs")
    for name in ("cos1", "mix"):
        factor = cosine_factor(BATTERY_MODULATORS[name])
        for n in range(11):
            refs[f"ratio/{name}/n={n}"] = (factor, TOL_RATIO, "abs")
        refs[f"ratio/{name}/spread"] = (0.0, TOL_RATIO, "spread")
    for k in (0.5, 1.0, 2.0):
        refs[f"pearson/weight/k={k}"] = (0.0, TOL_PEARSON, "residual")
    refs["pearson/density/weier"] = (0.0, TOL_PEARSON, "residual")
    for name in BATTERY_MODULATORS:
        refs[f"qderiv/{name}"] = (0.0, TOL_QDERIV, "residual")
    dim = 6
    for k in (0.5, 1.0, 2.0):
        eig = gaussian_toeplitz_min_eig(k, dim)
        refs[f"hankel/closed/k={k}/dim={dim}"] = (eig, TOL_HANKEL, "abs")
        refs[f"hankel/closed/k={k}/dim={dim}/shifted"] = (eig, TOL_HANKEL, "abs")
    # The weier density shares every moment with the k = 1 weight.
    eig = gaussian_toeplitz_min_eig(1.0, dim)
    refs[f"hankel/quadrature/weier/dim={dim}"] = (eig, TOL_HANKEL, "abs")
    refs[f"hankel/quadrature/weier/dim={dim}/shifted"] = (eig, TOL_HANKEL, "abs")
    for tail in ("self", "cross/sine3", "cross/weier"):
        refs[f"gram/k=1.0/{tail}"] = (0.0, TOL_GRAM, "residual")
    for a, b in ((0.5, 3), (0.7, 2), (0.9, 2)):
        refs[f"holder/a={a}/b={b}/alpha"] = (holder_exponent(a, b), TOL_HOLDER, "abs")
        refs[f"holder/a={a}/b={b}/fit"] = (1.0, 1.0 - MIN_FIT_R2, "abs")
    refs["holder/smooth/alpha"] = (1.0, TOL_SMOOTH, "abs")
    refs["holder/smooth/fit"] = (1.0, 1.0 - MIN_FIT_R2, "abs")
    refs["convention/positive-exponent"] = (ln_moment(1.0, 1), 0.0, "abs")
    return refs


def gaussian_toeplitz_min_eig(k, dim):
    """Smallest eigenvalue of exp(-(i-j)^2/(4k^2)), the normalized Hankel."""
    idx = np.arange(dim)
    mat = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (4.0 * k * k))
    return float(np.linalg.eigvalsh(mat)[0])


def check_battery(cases):
    """(failed ids, wrong messages) for the case list of an `all` report.

    A case the program could not compute (value null) is a failed
    operation; a computed value off its reference is wrong.
    """
    refs = _battery_references()
    by_id = {c["id"]: c for c in cases}
    wrong = [f"missing case {cid}" for cid in sorted(set(refs) - set(by_id))]
    wrong += [f"unexpected case {cid}" for cid in sorted(set(by_id) - set(refs))]
    failed = []
    for cid in sorted(set(refs) & set(by_id)):
        value = by_id[cid]["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            failed.append(cid)
            continue
        ref, tol, rule = refs[cid]
        if rule == "spread":
            name = cid.split("/")[1]
            ratios = [by_id.get(f"ratio/{name}/n={n}", {}).get("value") for n in range(11)]
            ratios = [r for r in ratios if isinstance(r, float)]
            ref = max(ratios) - min(ratios) if ratios else math.nan
            ok = abs(value - ref) <= EPS and value <= tol
        elif rule == "residual":
            ok = 0.0 <= value <= tol
        else:
            ok = abs(value - ref) <= tol
        if cid.startswith("hankel/"):
            ok = ok and value > 0.0
        if not ok:
            wrong.append(f"{cid}: {value!r}, expected {ref!r} within {tol:g}")
    return failed, wrong


def battery_opposite_convention(cases):
    """The cases a program using M_n = q^{+(n+1)^2/2} would report.

    In the battery only the convention case carries the sign (every other
    moment is reported relative to the closed form): ln M_1 at k = 1
    becomes -1.
    """
    out = [dict(c) for c in cases]
    for c in out:
        if c["id"] == "convention/positive-exponent":
            c["value"] = -ln_moment(1.0, 1)
    return out


# ---------------------------------------------------------------- pointwise

def weight_reference(k, x):
    t = np.log(x)
    return (k / math.sqrt(math.pi)) * np.exp(-(k * k) * t * t)


def modulator_reference(desc, x):
    """g(x) in plain float64: sum a * trig(2 pi frac(b * frac(u)))."""
    u = np.log(x) * (-2.0 * desc["k"] ** 2)
    w = u - np.floor(u)
    g = np.zeros_like(x)
    for a, b, kind in modulator_terms(desc):
        f = b * w
        theta = 2.0 * math.pi * (f - np.floor(f))
        g += a * (np.sin(theta) if kind == "sine" else np.cos(theta))
    return g


def _local_scale(desc, x):
    return weight_reference(desc["k"], x) * (1.0 + abs(desc["lambda"]) * sup_bound(desc))


def check_density(desc, x, values):
    ref = weight_reference(desc["k"], x) * (1.0 + desc["lambda"] * modulator_reference(desc, x))
    worst = float(np.max(np.abs(values - ref) / _local_scale(desc, x)))
    if not worst <= TOL_DENSITY:
        return [f"eval_density off the reference by {worst:.3g} of local scale"]
    return []


def check_pearson(desc, x, residual):
    """The CLI's pearson criterion: |res| / (f(x) max(1, sqrt(q) x) (1+|lam|S))."""
    k = desc["k"]
    sqrt_q = math.exp(-0.25 / (k * k))
    scale = _local_scale(desc, x) * np.maximum(1.0, sqrt_q * x)
    worst = float(np.max(np.abs(residual) / scale))
    if not worst <= TOL_PEARSON:
        return [f"q-Pearson residual {worst:.3g} exceeds {TOL_PEARSON:g}"]
    return []


def _log_slope_bound(desc):
    """2 pi * sum |a| b * 2 k^2, the CLI's phase-noise model."""
    if "weierstrass" in desc:
        w = desc["weierstrass"]
        ab = w["a"] * w["b"]
        s = float(w["N"]) if ab == 1.0 else ab * (ab ** w["N"] - 1.0) / (ab - 1.0)
    else:
        s = float(sum(abs(m["a"]) * m["b"] for m in desc["modes"]))
    return 2.0 * math.pi * s * 2.0 * desc["k"] ** 2


def check_qderiv(desc, x, dq):
    """The CLI's qderiv criterion, with g from the float64 reference."""
    q = math.exp(-0.5 / desc["k"] ** 2)
    floor = 1.25 * EPS * _log_slope_bound(desc) / ((1.0 - q) * x)
    norm = 1.0 + np.abs(modulator_reference(desc, x)) / x
    worst = float(np.max(np.maximum(np.abs(dq) - floor, 0.0) / norm))
    if not worst <= TOL_QDERIV:
        return [f"q-derivative residual {worst:.3g} exceeds {TOL_QDERIV:g}"]
    return []


def check_holder(a, b, alpha, r_squared):
    exact = holder_exponent(a, b)
    out = []
    if not abs(alpha - exact) <= TOL_HOLDER:
        out.append(f"holder a={a} b={b}: alpha {alpha!r}, expected {exact!r}")
    if not r_squared >= MIN_FIT_R2:
        out.append(f"holder a={a} b={b}: r^2 {r_squared!r} below {MIN_FIT_R2}")
    return out


def check_witness(a, b, quotients, implied_alpha):
    """Difference quotients grow by ~10^(1-alpha) per decade, within 50%."""
    exact = holder_exponent(a, b)
    growth = np.asarray(quotients[1:]) / np.asarray(quotients[:-1])
    expected = 10.0 ** (1.0 - exact)
    out = []
    if not np.all((growth >= 0.5 * expected) & (growth <= 1.5 * expected)):
        out.append(f"witness growth {growth.tolist()} not near {expected:.3g}")
    if not abs(implied_alpha - exact) <= 0.08:
        out.append(f"witness alpha {implied_alpha!r}, expected {exact!r}")
    return out


# ------------------------------------------------------------------- mpmath

def _mp():
    import mpmath

    mpmath.mp.dps = MP_DPS
    return mpmath


def mp_integral_over_scale(call):
    """The lowfreq-sweep integral in units of its scale, at 30 digits.

    Integrates (k/sqrt(pi)) exp(-k^2 s^2) Phi(mu + s) over the centered
    variable, panel by panel at half periods of the fastest harmonic.
    """
    mp = _mp()
    if call["kind"] == "vanish":
        k = mp.mpf(call["k"])
        terms, lam = [(1, call["j"], "sine")], mp.mpf(1)
        base = 0
    else:
        desc = call["modulator"]
        k = mp.mpf(desc["k"])
        terms, lam = modulator_terms(desc), mp.mpf(desc["lambda"])
        base = 1
    mu = (call["n"] + 1) / (2 * k ** 2)
    half = mp.sqrt(80) / k  # exp(-80) is far below 30 digits

    def integrand(s):
        u = -2 * k ** 2 * (mu + s)
        g = 0
        for a, b, kind in terms:
            theta = 2 * mp.pi * b * u
            g += mp.mpf(a) * (mp.sin(theta) if kind == "sine" else mp.cos(theta))
        return mp.exp(-(k * s) ** 2) * (base + lam * g)

    bmax = max(b for _, b, _ in terms)
    panels = int(mp.ceil(2 * half * 4 * k ** 2 * bmax)) + 1
    edges = [-half + 2 * half * i / panels for i in range(panels + 1)]
    return float(k / mp.sqrt(mp.pi) * mp.quad(integrand, edges, method="gauss-legendre"))


def mp_density(desc, x):
    mp = _mp()
    k, lam = mp.mpf(desc["k"]), mp.mpf(desc["lambda"])
    t = mp.log(mp.mpf(x))
    u = t * (-2 * k ** 2)
    g = 0
    for a, b, kind in modulator_terms(desc):
        theta = 2 * mp.pi * b * u
        g += mp.mpf(a) * (mp.sin(theta) if kind == "sine" else mp.cos(theta))
    return float(k / mp.sqrt(mp.pi) * mp.exp(-(k * t) ** 2) * (1 + lam * g))


def mp_eligible(call):
    """Calls cheap enough for the 30-digit reference: k * harmonic <= 2."""
    if call["kind"] == "vanish":
        return call["k"] * call["j"] <= 2.0
    desc = call["modulator"]
    return desc["k"] * max(b for _, b, _ in modulator_terms(desc)) <= 2.0


def battery_mp_samples(cases, seed):
    """A seeded pick of battery integrals as (call, value/scale) pairs.

    Two vanishing integrals and two moments of the sine1, cos1 or mix
    modulators, among the cases cheap enough for mpmath.
    """
    vanish, moment = [], []
    for c in cases:
        part = c["id"].split("/")
        if part[0] == "vanish":
            k, n, j = float(part[1][2:]), int(part[2][2:]), int(part[3][2:])
            call = {"kind": "vanish", "k": k, "n": n, "j": j}
        elif part[0] in ("invariance", "ratio") and part[-1].startswith("n="):
            desc = dict(BATTERY_MODULATORS[part[1]])
            if part[0] == "invariance":
                desc["lambda"] = float(part[2][4:])
            call = {"kind": "moment", "n": int(part[-1][2:]), "modulator": desc}
        else:
            continue
        if mp_eligible(call):
            (vanish if call["kind"] == "vanish" else moment).append((call, c["value"]))
    rng = np.random.default_rng([seed, 5])
    return [pool[i] for pool in (vanish, moment)
            for i in rng.choice(len(pool), size=min(2, len(pool)), replace=False)]


def check_mp_integrals(samples):
    """samples: (call, value/scale) pairs; compare with 30-digit mpmath."""
    out = []
    for call, got in samples:
        ref = mp_integral_over_scale(call)
        tol = TOL_VANISH if call["kind"] == "vanish" else TOL_MOMENT
        if not abs(got - ref) <= tol:
            out.append(f"{call}: {got!r} vs mpmath {ref!r}")
    return out


def check_mp_densities(samples):
    """samples: (modulator name, x, eval_density value) triples."""
    out = []
    for name, x, value in samples:
        desc = BATTERY_MODULATORS[name]
        ref = mp_density(desc, x)
        scale = float(_local_scale(desc, np.array([x]))[0])
        if not abs(value - ref) <= TOL_DENSITY_MP * scale:
            out.append(f"eval_density {name} at x={x!r}: {value!r} vs mpmath {ref!r}")
    return out
