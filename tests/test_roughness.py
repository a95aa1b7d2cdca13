"""Oscillation scans: rough members scale as h**alpha, smooth ones as h.

The alpha references are ln(1/a)/ln(b) evaluated once and frozen; the
estimator is statistical, so the acceptance bands are wide (+-0.05) while
the determinism test pins exact reproducibility at a fixed seed.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from test_measures import weier_modulator

from qmoments.measures import LogNormalWeight, Modulator, TrigMode, WeierstrassSpec
from qmoments.roughness import divergence_witness, holder_estimate, local_oscillation

ALPHA_CASES = [
    (0.5, 3, 0.63092975357145744, 21),
    (0.7, 2, 0.51457317282975833, 37),
    (0.9, 2, 0.15200309344504997, 86),
]


def brute_profile(w, a, b, n, kind):
    """Pure-python replica of the iterated-folding evaluation order."""
    total = 0.0
    amp = 1.0
    x = w - math.floor(w)
    for _ in range(n):
        amp *= a
        x *= b
        x -= math.floor(x)
        theta = 2.0 * math.pi * x
        total += amp * (math.sin(theta) if kind == "sine" else math.cos(theta))
    return total


@pytest.mark.parametrize("a, b, alpha, depth", ALPHA_CASES)
def test_alpha_matches_series_exponent(a, b, alpha, depth):
    spec = WeierstrassSpec(a, b, 5, "sine")
    assert spec.holder_exponent == pytest.approx(alpha, abs=1e-15)
    est = holder_estimate(spec)
    assert abs(est.alpha - alpha) <= 0.05
    assert est.r_squared >= 0.98
    assert est.terms_used == depth
    assert est.samples_per_scale == 64
    assert est.scales[0] == 2.0**-4 and est.scales[-1] == 2.0**-20


def test_cosine_series_is_equally_rough():
    est = holder_estimate(WeierstrassSpec(0.5, 3, 5, "cosine"))
    assert abs(est.alpha - 0.63092975357145744) <= 0.05
    assert est.r_squared >= 0.98


def test_summable_series_is_lipschitz():
    # a*b < 1: term-by-term derivatives converge, oscillation ~ h
    est = holder_estimate(WeierstrassSpec(0.4, 2, 5, "sine"))
    assert 0.9 <= est.alpha <= 1.1


def test_smooth_callable_control():
    est = holder_estimate(lambda w: np.sin(2.0 * np.pi * w))
    assert 0.95 <= est.alpha <= 1.06
    assert est.r_squared >= 0.99
    assert est.terms_used is None


def test_trig_modulator_is_smooth():
    m = Modulator(
        LogNormalWeight(1.0),
        0.8,
        (TrigMode(0.6, 3, "sine"), TrigMode(0.2, 7, "cosine")),
    )
    est = holder_estimate(m)
    assert est.alpha >= 0.95
    assert est.terms_used is None


def test_modulator_coupling_scales_oscillations_linearly():
    spec_est = holder_estimate(WeierstrassSpec(0.5, 3, 5, "sine"))
    mod_est = holder_estimate(weier_modulator(1.0, 0.9, 0.5, 3, 5))
    assert np.allclose(
        mod_est.oscillations, 0.9 * spec_est.oscillations, rtol=1e-12
    )
    assert mod_est.alpha == pytest.approx(spec_est.alpha, abs=1e-12)


def test_depth_cap():
    est = holder_estimate(
        WeierstrassSpec(0.999, 2, 5, "sine"),
        scales=2.0 ** -np.arange(4, 9),
        samples=8,
        probes=8,
    )
    assert est.terms_used == 10_000


@pytest.mark.parametrize(
    "spec, scales, samples, probes",
    [
        # the largest grid the validators admit, 4096 x 2*256 per scale
        (WeierstrassSpec(0.5, 3, 5, "sine"), 2.0 ** -np.arange(4, 7), 4096, 256),
        # the depth cap, 10 000 terms
        (WeierstrassSpec(0.999, 2, 5, "sine"), 2.0 ** -np.arange(4, 9), 8, 8),
        (WeierstrassSpec(0.999, 2, 5, "sine"), 2.0 ** -np.arange(4, 7), 256, 64),
    ],
)
def test_scan_memory_is_bounded(spec, scales, samples, probes):
    # the scan works in blocks under fixed element budgets, so its peak
    # does not grow with samples x probes (a full grid here is 16 MB per
    # float array) or with the series depth
    tracemalloc.start()
    try:
        holder_estimate(spec, scales=scales, samples=samples, probes=probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_divergence_witness_grows_without_bound():
    wit = divergence_witness(WeierstrassSpec(0.5, 3, 5, "sine"))
    assert np.all(np.diff(wit.quotients) > 0.0)
    # decade growth 10**(1-alpha) ~ 2.34, within +-50%
    assert np.all(wit.growth_ratios >= 1.17)
    assert np.all(wit.growth_ratios <= 3.51)
    assert abs(wit.implied_alpha - 0.63092975357145744) <= 0.08


def witness_misses(seed):
    """Where the witness of W(0.5, 3, 10 terms) at ``seed`` (32 samples, 8
    probes) leaves its window: every decade's growth within +-50% of
    10**(1 - alpha), and the implied alpha within 0.08 of alpha."""
    alpha = math.log(2.0) / math.log(3.0)
    wit = divergence_witness(WeierstrassSpec(0.5, 3, 10, "sine"), None, 32, 8, seed)
    growth = wit.growth_ratios / 10.0 ** (1.0 - alpha)
    return [g for g in growth if not 0.5 <= g <= 1.5] + [
        a for a in [wit.implied_alpha] if not abs(a - alpha) <= 0.08]


@pytest.mark.parametrize("seed", [52, 95, 152, 170])
def test_witness_holds_where_the_pcg64_points_missed(seed):
    # numpy's default_rng base points at these seeds left the window
    assert witness_misses(seed) == []


def test_witness_holds_over_a_seed_sweep():
    assert [s for s in range(200) if witness_misses(s)] == []


def test_divergence_witness_flat_for_smooth():
    wit = divergence_witness(lambda w: np.sin(2.0 * np.pi * w))
    assert wit.growth_ratios.max() <= 1.05
    assert wit.implied_alpha >= 0.97


def test_local_oscillation_values_and_shapes():
    osc = local_oscillation(lambda w: np.sin(2.0 * np.pi * w), 0.0, 0.25, probes=64)
    assert osc == pytest.approx(1.0, rel=1e-12)
    arr = local_oscillation(
        lambda w: np.sin(2.0 * np.pi * w), np.array([0.0, 0.25]), 0.25, probes=64
    )
    assert arr.shape == (2,)
    # around the crest the drop to sin(0) = 0 dominates
    assert arr[1] == pytest.approx(1.0, rel=1e-12)


def brute_trig_profile(w, modes):
    """Pure-python replica of the per-mode folding of a harmonic list."""
    x = w - math.floor(w)
    total = 0.0
    for amp, harmonic, kind in modes:
        f = harmonic * x
        f -= math.floor(f)
        theta = 2.0 * math.pi * f
        total += amp * (math.sin(theta) if kind == "sine" else math.cos(theta))
    return total


def test_profile_wiring_matches_pure_python():
    # depth 30 exceeds the auto-raise target at this coarse scale, so both
    # paths evaluate exactly 30 terms
    lam = 0.8
    modes = ((0.5, 1, "sine"), (-0.3, 4, "cosine"), (0.2, 9, "sine"))
    modulator = Modulator(LogNormalWeight(1.0), lam, tuple(TrigMode(*m) for m in modes))
    scaled = [(lam * a, b, kind) for a, b, kind in modes]
    cases = [
        (WeierstrassSpec(0.6, 2, 30, "cosine"),
         lambda w: brute_profile(w, 0.6, 2, 30, "cosine")),
        (WeierstrassSpec(0.6, 2, 30, "sine"),
         lambda w: brute_profile(w, 0.6, 2, 30, "sine")),
        (modulator, lambda w: brute_trig_profile(w, scaled)),
    ]
    h = 2.0**-9
    offsets = h * np.arange(1, 9) / 8.0
    deltas = np.concatenate([-offsets[::-1], offsets])
    for obj, ref_fn in cases:
        for w0 in (0.12, 0.5, 0.83):
            ref0 = ref_fn(w0)
            ref = max(abs(ref_fn(w0 + d) - ref0) for d in deltas)
            got = local_oscillation(obj, w0, h, probes=8)
            assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("w0", [0.3, 0.71])
def test_deep_series_oscillation_matches_mpmath(w0):
    # at h = 2**-10 the depth rises to 72 terms, so the deepest harmonic
    # 3**72 ~ 2**114 sees every bit of w0 + d; the exact phases must give
    # the oscillation of the real points w0 + d, not of rounded ones
    spec = WeierstrassSpec(0.9, 3, 40, "sine")
    h = 2.0**-10
    got = local_oscillation(spec, w0, h, probes=8)
    ref = oracles.mp_series_oscillation(0.9, 3, 72, "sine", w0, h, 8)
    assert got == pytest.approx(ref, rel=1e-12)


def test_validation():
    spec = WeierstrassSpec(0.5, 3, 5, "sine")
    for bad in (7, True, 2.5):
        with pytest.raises(ValueError):
            holder_estimate(spec, probes=bad)
    with pytest.raises(ValueError):
        holder_estimate(spec, samples=4)
    with pytest.raises(ValueError, match="samples must be <= 4096"):
        holder_estimate(spec, samples=4097)
    with pytest.raises(ValueError, match="probes must be <= 256"):
        divergence_witness(spec, probes=257)
    for bad_scales in ([], [0.1, 0.2], [0.1, -0.2, 0.01], [0.6, 0.1, 0.01], [0.1, 0.1, 0.01]):
        with pytest.raises(ValueError):
            holder_estimate(spec, scales=bad_scales)
    with pytest.raises(ValueError):
        holder_estimate(Modulator(LogNormalWeight(1.0), 0.0, ()))
    with pytest.raises(ValueError):
        holder_estimate(3.5)
    with pytest.raises(ValueError):
        holder_estimate(lambda w: 1.0)
    with pytest.raises(ValueError):
        local_oscillation(spec, 0.1, 0.75)
    with pytest.raises(ValueError):
        local_oscillation(spec, 0.1, 1)
    with pytest.raises(ValueError, match="w must be finite"):
        local_oscillation(spec, np.array([0.1, math.inf]), 0.25)


def test_constant_profile_refused():
    with pytest.raises(ValueError, match="no oscillation"):
        holder_estimate(lambda w: np.zeros_like(w))


def test_determinism():
    a = holder_estimate(WeierstrassSpec(0.5, 3, 5, "sine"), seed=7)
    b = holder_estimate(WeierstrassSpec(0.5, 3, 5, "sine"), seed=7)
    assert a.alpha == b.alpha
    assert np.array_equal(a.oscillations, b.oscillations)


@pytest.mark.parametrize("kind, alpha, r_squared", [
    ("sine", -0.00043468801160676234, 0.026297375766431985),
    ("cosine", 0.0022203382048069553, 0.18359501425283054),
])
def test_zero_harmonics_add_nothing(kind, alpha, r_squared):
    # b = 2 reaches 2**128 = 0 (mod 2**128) at t = 128, so 9 873 of the
    # 10 000 terms fold every phase to 0; skipping them must leave the fit
    # as it was when every term was folded (values frozen from that path)
    est = holder_estimate(WeierstrassSpec(0.999, 2, 5, kind), samples=256, probes=64)
    assert est.terms_used == 10_000
    assert abs(est.alpha - alpha) <= 1e-12
    assert abs(est.r_squared - r_squared) <= 1e-12
