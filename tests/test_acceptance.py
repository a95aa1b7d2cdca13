"""Acceptance battery: nine go/no-go criteria for the whole package.

Each test prints exactly one line, ``criterion N PASS/FAIL (...)``, and
asserts it.  Tolerances and runtime limits are stated inline; a
criterion with a runtime limit fails when it runs over, not only when a
value drifts.  Everything here goes through public API plus the
independent oracles in ``tests/oracles.py``; nothing reuses package
internals.
"""

import json
import math
import time

import numpy as np

import oracles
from qmoments import (
    MOMENT_SIGN_NOTE,
    LogNormalWeight,
    Modulator,
    PerturbedDensity,
    TrigMode,
    WeierstrassSpec,
    MomentSequence,
    base_moment_closed_form,
    eval_modulator,
    eval_weight,
    holder_estimate,
    integrate_moment,
    modulator_moment_factor,
    positivity_bound,
    q_derivative,
    q_pearson_residual,
    stieltjes_wigert_check,
    vanishing_integral,
)
from qmoments.cli import main

EPS = np.finfo(float).eps


def _verdict(num, ok, elapsed, limit, detail):
    mark = "PASS" if ok else "FAIL"
    budget = f", runtime limit {limit:g} s" if limit else ""
    line = f"criterion {num} {mark} ({elapsed:.2f} s{budget}): {detail}"
    print(line)
    assert ok, line


def _sine_family():
    """The three sine-only constructions the invariance criteria sweep."""
    k1 = LogNormalWeight(1.0)
    return (
        ("single-sine", Modulator(k1, 1.0, (TrigMode(1.0, 1, "sine"),))),
        ("three-sine", Modulator(k1, 1.0, (TrigMode(0.5, 1, "sine"),
                                           TrigMode(0.3, 2, "sine"),
                                           TrigMode(0.2, 5, "sine")))),
        ("weier", Modulator(k1, 1.0, WeierstrassSpec(0.5, 3, 10, "sine"))),
    )


def _cosine_family():
    return (
        ("single-cosine", Modulator(LogNormalWeight(0.5), 0.1,
                                    (TrigMode(1.0, 1, "cosine"),))),
        ("mixed", Modulator(LogNormalWeight(0.45), -0.6,
                            (TrigMode(0.5, 1, "cosine"),
                             TrigMode(0.5, 3, "sine")))),
    )


def test_criterion_1_vanishing_identity():
    # |integral of kernel * x^n * sin(2 pi j u)| <= 1e-10 * M_n for
    # k in {0.5, 1, 2}, n = 0..10, j = 1..5: 165 cases, under 10 s.
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for k in (0.5, 1.0, 2.0):
        w = LogNormalWeight(k)
        unit = math.sqrt(math.pi) / k
        for n in range(11):
            for j in range(1, 6):
                r = vanishing_integral(w, n, j)
                worst = max(worst, abs(r.mantissa) * unit)
                count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and count == 165 and elapsed < 10.0
    _verdict(1, ok, elapsed, 10,
             f"{count} vanishing integrals, worst |I|/M_n {worst:.2e} "
             f"(limit 1e-10)")


def test_criterion_2_moment_invariance():
    # Sine-only perturbations at lambda in {-max, 0.3, +max} reproduce
    # every base moment n = 0..10 to 1e-10 relative, under 30 s.
    t0 = time.perf_counter()
    worst = 0.0
    for _, m in _sine_family():
        lam_max = positivity_bound(m)
        for lam in (-lam_max, 0.3, lam_max):
            d = PerturbedDensity.of(Modulator(m.weight, lam, m.content))
            for n in range(11):
                r = integrate_moment(d, n)
                worst = max(worst, abs(r.mantissa - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _verdict(2, ok, elapsed, 30,
             f"3 modulators x 3 lambdas x 11 moments, worst relative "
             f"deviation {worst:.2e} (limit 1e-10)")


def test_criterion_3_ratio_constancy():
    # Cosine-containing perturbations scale all moments by one factor:
    # spread over n = 0..10 below 1e-8 and equal to the closed-form
    # factor within 1e-8, under 10 s.
    t0 = time.perf_counter()
    worst_spread = 0.0
    worst_gap = 0.0
    for _, m in _cosine_family():
        d = PerturbedDensity.of(m)
        factor = modulator_moment_factor(m)
        ratios = [integrate_moment(d, n).mantissa
                  for n in range(11)]
        worst_spread = max(worst_spread, max(ratios) - min(ratios))
        worst_gap = max(worst_gap, max(abs(v - factor) for v in ratios))
    elapsed = time.perf_counter() - t0
    ok = worst_spread < 1e-8 and worst_gap <= 1e-8 and elapsed < 10.0
    _verdict(3, ok, elapsed, 10,
             f"ratio spread {worst_spread:.2e} (limit 1e-8), gap to "
             f"closed form {worst_gap:.2e} (limit 1e-8)")


def test_criterion_4_q_pearson_identity():
    # f(q x) = sqrt(q) x f(x) at 100 random points for 3 k values,
    # residual within 1e-13 of the local scale, under 1 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(8262026)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 100))
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        w = LogNormalWeight(k)
        res = np.abs(q_pearson_residual(w, xs))
        scale = eval_weight(w, xs) * np.maximum(1.0, math.sqrt(w.q) * xs)
        worst = max(worst, float(np.max(res / scale)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and elapsed < 1.0
    _verdict(4, ok, elapsed, 1,
             f"300 q-Pearson residuals, worst {worst:.2e} of local scale "
             f"(limit 1e-13)")


def test_criterion_5_q_derivative_annihilation():
    # D_q g = 0 for every constructed modulator at 100 random points,
    # within 1e-12 of scale, under 1 s.  q_derivative takes g(q*x) from
    # ln x + ln q in double-double; the floor subtracted is still the one
    # a float64 q*x would need (~1.25 eps of ln x), which is conservative.
    t0 = time.perf_counter()
    rng = np.random.default_rng(8262027)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 100))
    worst = 0.0
    families = list(_sine_family()) + list(_cosine_family())
    for _, m in families:
        q = m.weight.q
        vals = np.abs(q_derivative(m, xs, q))
        g = eval_modulator(m, xs)
        floor = 1.25 * EPS * m.log_slope_bound / ((1.0 - q) * xs)
        excess = np.maximum(vals - floor, 0.0) / (1.0 + np.abs(g) / xs)
        worst = max(worst, float(np.max(excess)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(5, ok, elapsed, 1,
             f"{len(families)} modulators x 100 points, worst scaled "
             f"|D_q g| {worst:.2e} (limit 1e-12)")


def test_criterion_6_holder_exponents():
    # Fitted alpha within 0.05 of ln(1/a)/ln(b) for three rough profiles
    # and within 0.02 of 1 for a smooth control, under 60 s.
    t0 = time.perf_counter()
    gaps = []
    for a, b in ((0.5, 3), (0.7, 2), (0.9, 2)):
        spec = WeierstrassSpec(a, b, 10, "sine")
        est = holder_estimate(spec)
        gaps.append(abs(est.alpha - spec.holder_exponent))
    smooth = holder_estimate(lambda u: np.sin(2.0 * np.pi * u))
    smooth_gap = abs(smooth.alpha - 1.0)
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 0.05 and smooth_gap <= 0.02 and elapsed < 60.0
    _verdict(6, ok, elapsed, 60,
             f"rough-profile alpha gaps {[f'{g:.3f}' for g in gaps]} "
             f"(limit 0.05), smooth control gap {smooth_gap:.3f} "
             f"(limit 0.02)")


def test_criterion_7_orthogonality_transfer():
    # The closed-form Stieltjes-Wigert polynomials of degree <= 6 at k = 1
    # stay orthonormal against the closed-form moments and against
    # quadrature moments of the base weight and of two sine-perturbed
    # densities: residual within 1e-6 and within its own bound, under 60 s.
    t0 = time.perf_counter()
    w = LogNormalWeight(1.0)
    count = 13
    seqs = {
        "closed": MomentSequence.closed_form(w, count),
        "base": MomentSequence.from_quadrature(w, count),
    }
    for name, m in _sine_family()[1:]:
        ml = Modulator(m.weight, 0.9, m.content)
        seqs[name] = MomentSequence.from_quadrature(PerturbedDensity.of(ml), count)
    reports = {name: stieltjes_wigert_check(w, seq, 6) for name, seq in seqs.items()}
    elapsed = time.perf_counter() - t0
    worst = max(r.residual for r in reports.values())
    backed = all(r.residual + r.bound <= 1e-6 for r in reports.values())
    ok = worst <= 1e-6 and backed and elapsed < 60.0
    detail = ", ".join(f"{k} {r.residual:.2e} (bound {r.bound:.1e})"
                       for k, r in reports.items())
    _verdict(7, ok, elapsed, 60,
             f"cross-orthogonality residuals {detail} (limit 1e-6)")


def test_criterion_8_oracle_honesty():
    # 20 random modulated densities: production quadrature agrees with
    # an independent adaptive oracle to 1e-11 relative, and the reported
    # error_estimate bounds the observed deviation once the oracle's own
    # error is added (the mantissa carries no rounding of sigma, so no
    # allowance for it remains).
    t0 = time.perf_counter()
    rng = np.random.default_rng(8262028)
    kinds = ("sine", "cosine")
    worst_diff = 0.0
    bounded = True
    for _ in range(20):
        k = float(rng.uniform(0.45, 1.5))
        modes = [
            (
                float(rng.uniform(0.1, 1.0)) * float(rng.choice((-1.0, 1.0))),
                int(rng.integers(1, 10)),
                kinds[int(rng.integers(0, 2))],
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        sup = sum(abs(a) for a, _, _ in modes)
        lam = 0.9 / sup * float(rng.choice((-1.0, 1.0)))
        n = int(rng.integers(0, 11))
        w = LogNormalWeight(k)
        d = PerturbedDensity.of(
            Modulator(w, lam, tuple(TrigMode(a, b, kd) for a, b, kd in modes))
        )
        r = integrate_moment(d, n)
        desc = {
            "k": k,
            "lambda": lam,
            "modes": [{"a": a, "b": b, "kind": kd} for a, b, kd in modes],
        }
        ref, ref_err = oracles.scipy_moment_rel(desc, n)
        diff = abs(r.mantissa - ref)
        worst_diff = max(worst_diff, diff)
        if diff > r.error_estimate + ref_err:
            bounded = False
    elapsed = time.perf_counter() - t0
    ok = worst_diff <= 1e-11 and bounded
    _verdict(8, ok, elapsed, None,
             f"20 instances vs adaptive oracle, worst diff "
             f"{worst_diff:.2e} (limit 1e-11), estimate bounds deviation: "
             f"{bounded}")


def test_criterion_9_moment_sign_guard(tmp_path):
    # The n-th moment is exp(+(n+1)^2/(4 k^2)); the opposite-sign variant
    # exp(-(n+1)^2/(4 k^2)) is rejected by direct quadrature, and every
    # report states the convention verbatim in its header.
    t0 = time.perf_counter()
    w = LogNormalWeight(1.0)
    closed = base_moment_closed_form(w, 1)
    r = integrate_moment(w, 1)
    quad_ln = r.value.ln_abs
    right = closed == 1.0 and abs(quad_ln - 1.0) <= 1e-12
    wrong_rejected = abs(quad_ln - (-1.0)) > 1.9
    note_names_both = ("exp(+(n+1)**2 / (4*k**2))" in MOMENT_SIGN_NOTE
                       and "q**(+(n+1)**2/2)" in MOMENT_SIGN_NOTE)
    out = tmp_path / "report.json"
    code = main(["moments", "--k", "1", "--n", "0..1", "--out", str(out)])
    header = json.loads(out.read_text())["header"]
    in_report = header["moment_convention"] == MOMENT_SIGN_NOTE
    elapsed = time.perf_counter() - t0
    ok = right and wrong_rejected and note_names_both and in_report and code == 0
    _verdict(9, ok, elapsed, None,
             f"ln M_1(k=1) = {quad_ln:.12f} (positive exponent), opposite "
             f"sign rejected: {wrong_rejected}, convention string in "
             f"report header: {in_report}")
