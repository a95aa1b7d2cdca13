"""Moment quadrature against closed forms and two independent oracles.

The frozen reference ratios below were produced by oracles.mp_moment_quad
(mpmath tanh-sinh at 50 digits) evaluated at the exact binary doubles the
tests pass in; scipy.integrate.quad corroborates the oscillatory cases at
runtime.  Everything the quadrature claims about itself (error estimate,
node accounting, budget refusal) is exercised here as well.
"""

import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_measures import trig_modulator, weier_modulator

from qmoments import quadrature as qd
from qmoments.logscale import LogScaled
from qmoments.measures import LogNormalWeight, PerturbedDensity, modulator_from_dict
from qmoments.quadrature import (
    MOMENT_SIGN_NOTE,
    BudgetExceededError,
    QuadratureSpec,
    base_moment_closed_form,
    integrate_moment,
    modulator_moment_factor,
    vanishing_integral,
)

import oracles


def density(k, lam, modes):
    return PerturbedDensity.of(trig_modulator(k, lam, modes))


# Reference ratios moment / exp((n+1)^2 / (4 k^2)) from mpmath tanh-sinh
# quadrature at 50 digits.  The first instance has a factor visible in the
# third decimal, so a wrong cosine contribution cannot hide below the
# tolerance.  Each value was identical for every n checked (0 and 5 for
# the first), which is itself the shared-moment property.
FROZEN_RATIOS = [
    (0.35, 0.5, [(1.0, 1, "cosine")], 0, 1.0039689514518361),
    (0.35, 0.5, [(1.0, 1, "cosine")], 5, 1.0039689514518361),
    (0.5, 0.1, [(1.0, 1, "cosine")], 3, 1.0000051723186204),
    (0.6, 0.7, [(0.8, 2, "sine")], 2, 1.0),
    (0.45, -0.6, [(0.5, 1, "cosine"), (0.5, 3, "sine")], 1, 0.99989879398531273),
]


# ln M_4 at k = 0.7, sigma = 25/1.96, frozen from the integrator
FROZEN_BASE_LN = {(0.7, 4): 12.755102040816318}
BASE_CASES = [
    (k, n) for n in (-3, 0, 1, 5, 10) for k in (0.35, 0.5, 1.0, 2.0)
] + list(FROZEN_BASE_LN)


@pytest.mark.parametrize(
    "k, n", BASE_CASES, ids=[f"{n}-{k}" for k, n in BASE_CASES]
)
def test_base_moment_matches_closed_form(k, n):
    w = LogNormalWeight(k)
    r = integrate_moment(w, n)
    assert r.value.sign == 1
    dev = abs(r.value_over_scale() - 1.0)
    assert dev <= 1e-12
    # honesty: the mantissa is relative to the exact exp(sigma), so the
    # estimate covers the deviation with no allowance for sigma's rounding
    assert dev <= r.error_estimate
    assert r.ln_scale == base_moment_closed_form(w, n).ln_abs
    assert r.series_tail_budget == 0.0
    assert r.nodes_used > 0
    if (k, n) in FROZEN_BASE_LN:
        assert abs(r.value.ln_abs - FROZEN_BASE_LN[k, n]) <= 1e-10


def test_moment_sign_convention_positive_exponent():
    # The n-th base moment is exp(+(n+1)^2/(4 k^2)); at k=1, n=1 that is
    # e^1, and the opposite-sign variant e^-1 is two e-foldings away.
    w = LogNormalWeight(1.0)
    r = integrate_moment(w, 1)
    assert abs(r.value.ln_abs - 1.0) < 1e-9
    assert r.value.ln_abs > 0.0
    wrong = LogScaled.exp(-1.0)
    assert r.value.ln_abs - wrong.ln_abs > math.log(2.0)  # |r / wrong - 1| > 1
    r3 = integrate_moment(LogNormalWeight(0.5), 3)
    assert abs(r3.value.ln_abs - 16.0) < 1e-8
    assert "exp(+(n+1)**2 / (4*k**2))" in MOMENT_SIGN_NOTE
    assert "q**(-(n+1)**2/2)" in MOMENT_SIGN_NOTE


def test_huge_order_stays_finite():
    # sigma = 41^2/(4 * 0.35^2) ~ 3430; the float moment overflows but the
    # log-scaled pipeline keeps full relative accuracy.
    w = LogNormalWeight(0.35)
    r = integrate_moment(w, 40)
    closed = base_moment_closed_form(w, 40)
    assert math.isinf(r.value.to_float())
    assert abs(r.value_over_scale() - 1.0) <= 1e-11
    assert abs(r.value.ln_abs - closed.ln_abs) <= 1e-9


@pytest.mark.parametrize("k, lam, modes, n, expected", FROZEN_RATIOS)
def test_frozen_oracle_ratios(k, lam, modes, n, expected):
    r = integrate_moment(density(k, lam, modes), n)
    assert abs(r.value_over_scale() - expected) <= 1e-13


@pytest.mark.parametrize(
    "k, lam, modes",
    [
        (0.35, 0.5, [(1.0, 1, "cosine")]),
        (0.45, -0.6, [(0.5, 1, "cosine"), (0.5, 3, "sine")]),
    ],
)
def test_ratio_constant_in_order(k, lam, modes):
    d = density(k, lam, modes)
    factor = modulator_moment_factor(d.modulator)
    for n in range(9):
        r = integrate_moment(d, n)
        assert abs(r.value_over_scale() - factor) <= 1e-12


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "modes",
    [
        [(1.0, 1, "sine")],
        [(0.6, 2, "sine"), (0.4, 5, "sine")],
    ],
)
def test_lambda_invariance_sine_trig(k, modes):
    # sup|g| = 1 for both mode sets, so lambda = +-1 sits exactly on the
    # positivity boundary.
    for lam in (-1.0, 0.3, 1.0):
        d = density(k, lam, modes)
        assert d.positive
        for n in range(11):
            r = integrate_moment(d, n)
            assert abs(r.value_over_scale() - 1.0) <= 1e-12
            assert r.value.sign == 1


@pytest.mark.parametrize("k", [0.5, 1.0])
def test_lambda_invariance_weierstrass(k):
    # a=0.5, b=3: nowhere-differentiable member (a*b >= 1), sup bound
    # a/(1-a) = 1 independent of truncation depth.
    for lam in (-1.0, 0.3, 1.0):
        d = PerturbedDensity.of(weier_modulator(k, lam, 0.5, 3, 10))
        for n in range(11):
            r = integrate_moment(d, n)
            assert abs(r.value_over_scale() - 1.0) <= 1e-12
            assert r.series_tail_budget == abs(lam) * 0.5**10 / 0.5
            # the series cutoff distance is reported, never silently
            # folded into the quadrature error
            assert r.error_estimate < r.series_tail_budget


def test_mixed_modulator_tracks_closed_form_factor():
    for lam in (-0.6, 0.3):
        d = density(0.45, lam, [(0.5, 1, "cosine"), (0.5, 3, "sine")])
        factor = modulator_moment_factor(d.modulator)
        for n in range(7):
            r = integrate_moment(d, n)
            assert abs(r.value_over_scale() - factor) <= 1e-12


def test_scipy_oracle_equivalence_random_instances():
    rng = np.random.default_rng(20260817)
    kinds = ("sine", "cosine")
    for _ in range(20):
        k = float(rng.uniform(0.45, 1.5))
        n_modes = int(rng.integers(1, 4))
        modes = [
            (
                float(rng.uniform(0.1, 1.0)) * float(rng.choice((-1.0, 1.0))),
                int(rng.integers(1, 10)),
                kinds[int(rng.integers(0, 2))],
            )
            for _ in range(n_modes)
        ]
        sup = sum(abs(a) for a, _, _ in modes)
        lam = 0.9 / sup * float(rng.choice((-1.0, 1.0)))
        n = int(rng.integers(0, 11))
        r = integrate_moment(density(k, lam, modes), n)
        desc = {
            "k": k,
            "lambda": lam,
            "modes": [{"a": a, "b": b, "kind": kind} for a, b, kind in modes],
        }
        ref, ref_err = oracles.scipy_moment_rel(desc, n)
        diff = abs(r.value_over_scale() - ref)
        assert diff <= 1e-11
        assert diff <= r.error_estimate + ref_err + 5e-13


def test_error_estimate_covers_deliberately_bad_truncation():
    # Cut the window at T=2 for k=1: the discarded tail is erfc(2) ~ 4.7e-3
    # and the result must both miss the closed form by about that much and
    # admit it in the estimate.
    w = LogNormalWeight(1.0)
    r = integrate_moment(w, 0, QuadratureSpec(truncation=2.0))
    dev = abs(r.value_over_scale() - 1.0)
    assert dev > 1e-3
    assert dev <= r.error_estimate * (1.0 + 1e-6) + 1e-15
    # and a generous window drives the tail term out of the picture
    r8 = integrate_moment(w, 0, QuadratureSpec(truncation=8.0))
    assert r8.rel_tail_error < 1e-27
    assert abs(r8.value_over_scale() - 1.0) <= 1e-12


def test_rel_tol_controls_window_and_cost():
    w = LogNormalWeight(1.0)
    loose = integrate_moment(w, 2, QuadratureSpec(rel_tol=1e-8))
    tight = integrate_moment(w, 2, QuadratureSpec(rel_tol=1e-12))
    assert loose.truncation < tight.truncation
    assert loose.nodes_used < tight.nodes_used
    assert abs(loose.value_over_scale() - 1.0) <= max(loose.error_estimate, 1e-8)


@pytest.mark.parametrize("k", [0.5, 1.0])
def test_vanishing_integral_sweep(k):
    w = LogNormalWeight(k)
    scale_tail = math.log(math.sqrt(math.pi) / k)
    for n in range(7):
        sigma = base_moment_closed_form(w, n).ln_abs
        for j in range(1, 5):
            r = vanishing_integral(w, n, j)
            small = abs(r.value_over_scale())
            assert small <= max(r.error_estimate, 1e-12)
            assert small <= 1e-10
            assert abs(r.ln_scale - (sigma + scale_tail)) <= 1e-12 * max(
                1.0, abs(sigma)
            )


def test_vanishing_integral_rejects_bad_harmonic():
    w = LogNormalWeight(1.0)
    for bad in (0, -2, 1.5, True):
        with pytest.raises(ValueError):
            vanishing_integral(w, 0, bad)
    with pytest.raises(ValueError):
        vanishing_integral(object(), 0, 1)


def test_budget_refusal_is_eager_and_named():
    d = density(0.7, 0.8, [(0.6, 3, "sine"), (0.4, 7, "cosine")])
    with pytest.raises(BudgetExceededError, match="budget"):
        integrate_moment(d, 0, QuadratureSpec(node_budget=1000))
    # a deep Weierstrass truncation reaches harmonic 3^34 > 2^53, above
    # the quadrature's harmonic bound; the refusal must arrive from
    # planning alone, naming the harmonic
    deep = PerturbedDensity.of(weier_modulator(1.0, 0.5, 0.5, 3, 34))
    with pytest.raises(BudgetExceededError, match="harmonic"):
        integrate_moment(deep, 0)
    # below 2^53 the cost no longer grows with the harmonic, so a single
    # 2^50 sine is computed, and must be seen to vanish
    huge = density(1.0, 0.5, [(1.0, 2**50, "sine")])
    r = integrate_moment(huge, 0)
    dev = abs(r.value_over_scale() - 1.0)
    assert dev <= max(r.error_estimate, 1e-12)
    assert dev <= 1e-10


@pytest.mark.parametrize("k", [1e-160, 1e-155, 1e155, 1e160])
def test_unanchorable_k_is_a_named_budget_refusal(k, monkeypatch):
    # ln q = -1/(2 k**2) is not a finite double-double here, so no phase
    # can be anchored; the planner refuses, naming k, before any anchor
    anchored = []
    monkeypatch.setattr(qd, "_phase_anchors", lambda *args: anchored.append(args))
    with pytest.raises(BudgetExceededError, match=re.escape(f"k={k!r}")):
        integrate_moment(LogNormalWeight(k), 0)
    assert anchored == []


def test_quadrature_spec_validation():
    for bad in (0.0, -1e-3, 0.02, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=bad)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            QuadratureSpec(truncation=bad)
    for bad in (32, 1.5, "many"):
        with pytest.raises(ValueError):
            QuadratureSpec(node_budget=bad)


def test_moment_order_validation():
    w = LogNormalWeight(1.0)
    for bad in (2.5, "3", True, 2**49):
        with pytest.raises(ValueError):
            integrate_moment(w, bad)
    with pytest.raises(ValueError):
        integrate_moment(lambda x: x, 0)
    with pytest.raises(ValueError):
        base_moment_closed_form(object(), 0)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_error_estimate_covers_log_scale_granularity(n):
    # The battery's mix modulator at k = 0.45: sigma = (n+1)^2/(4 k^2)
    # reaches ~2075 at n = 40, where a value kept as the rounded sum sigma
    # + ln|mantissa| would carry ~eps * sigma (4.6e-13) of granularity.  The
    # mantissa sits beside the exact scale and carries none of it: the
    # bound covers the deviation and stays below 1e-13 at every n.
    d = density(0.45, -0.6, [(0.5, 1, "cosine"), (0.5, 3, "sine")])
    factor = modulator_moment_factor(d.modulator)
    r = integrate_moment(d, n)
    assert abs(r.value_over_scale() - factor) <= r.error_estimate < 1e-13


@pytest.mark.parametrize("k, lam, n", [(0.1, 0.9, 12), (0.1, 0.99, 72), (0.15, 0.9, 9),
                                       (0.15, 0.9, 54)])
def test_log_scale_granularity_scales_with_the_factor(k, lam, n):
    # A cosine mode at small k lifts every moment by up to 1.67x, and the
    # bound's rounding terms must grow with it; a bound taken relative to
    # the scale alone once missed each of these by 2-37%.
    d = density(k, lam, [(1.0, 1, "cosine")])
    r = integrate_moment(d, n)
    assert abs(r.value_over_scale() - modulator_moment_factor(d.modulator)) <= r.error_estimate


def test_vanishing_error_estimate_scales_granularity_by_value():
    # A vanishing integral's value is ~0, so the rounding of its mantissa
    # is relative to that value, not to the scale; an eps * sigma term of
    # the scale (~4.6e-13 at n = 40) would loosen the very comparison that
    # tests the identity.
    w = LogNormalWeight(0.45)
    sigma = base_moment_closed_form(w, 40).ln_abs
    r = vanishing_integral(w, 40, 1)
    assert r.rel_quad_error < 0.1 * 2.220446049250313e-16 * sigma
    assert abs(r.value_over_scale()) <= r.error_estimate


def test_results_are_deterministic():
    d = density(0.8, 0.4, [(0.7, 2, "cosine")])
    a = integrate_moment(d, 4)
    b = integrate_moment(d, 4)
    fresh = integrate_moment(density(0.8, 0.4, [(0.7, 2, "cosine")]), 4)
    assert a.value.ln_abs == b.value.ln_abs == fresh.value.ln_abs
    assert a.error_estimate == b.error_estimate == fresh.error_estimate
    assert a.nodes_used == b.nodes_used == fresh.nodes_used


def test_mode_integrals_shared_across_lambda():
    # One modulator family, three couplings: the node count must not grow
    # with lambda, and the ratio must be affine in lambda to rounding
    # (zero second difference over equally spaced couplings).
    rs = [
        integrate_moment(density(0.35, lam, [(1.0, 1, "cosine")]), 0)
        for lam in (0.1, 0.2, 0.3)
    ]
    assert rs[0].nodes_used == rs[1].nodes_used == rs[2].nodes_used
    v = [r.value_over_scale() for r in rs]
    assert v[2] - 1.0 > 1e-3
    assert abs(v[0] - 2.0 * v[1] + v[2]) <= 5e-15


def test_zero_coupling_equals_weight():
    w = LogNormalWeight(1.3)
    d = density(1.3, 0.0, [(0.9, 4, "sine")])
    rw = integrate_moment(w, 6)
    rd = integrate_moment(d, 6)
    assert rw.value.ln_abs == rd.value.ln_abs
    assert rw.nodes_used == rd.nodes_used
    assert rd.series_tail_budget == 0.0


def test_moment_factor_drops_terms_past_the_float_range():
    # (pi k)**2 overflows at k = 1e200 and float(b**N) at b**N = 1000**200;
    # both arguments become inf and their terms vanish instead of raising
    assert modulator_moment_factor(trig_modulator(1e200, 0.1, [(1.0, 1, "cosine")])) == 1.0
    deep = weier_modulator(1.0, 0.1, 0.9, 1000, 200, "cosine")
    assert modulator_moment_factor(deep) == 1.0
    # pi k b = pi * 1e-10 is small although b**2 alone would overflow and
    # (pi k)**2 alone underflow: the term stays, 0.1 * 0.5 * exp(-4e-19)
    tiny_k = weier_modulator(1e-170, 0.1, 0.5, 10**160, 1, "cosine")
    assert modulator_moment_factor(tiny_k) == pytest.approx(1.05, rel=1e-15)
    # at representable arguments the closed form is unchanged
    m = trig_modulator(0.5, 0.1, [(1.0, 1, "cosine")])
    assert modulator_moment_factor(m) == 1.0 + 0.1 * math.exp(-4.0 * (math.pi * 0.5) ** 2)


# Every k LogNormalWeight admits (any positive finite float), and a
# log-uniform draw over the range the planner does not refuse by k
ANY_K = st.one_of(
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    st.floats(min_value=-151.0, max_value=150.0).map(lambda e: 10.0**e),
)
ANY_N = st.one_of(st.integers(-60, 60), st.integers(-(2**48), 2**48))


@settings(max_examples=300, deadline=None)
@given(k=st.floats(min_value=6e-151, max_value=8e149), n=ANY_N)
@example(k=6.1e-151, n=0)
@example(k=6.1e-151, n=-3)
@example(k=7.9e149, n=2**48)
@example(k=7.9e149, n=-(2**48))
@example(k=0.45, n=2**48 - 1)
@example(k=1e-100, n=-(2**48))
def test_centering_rounds_each_exact_rational_once(k, n):
    k2, m = Fraction(k) ** 2, n + 1
    mu_exact, sigma_exact = m / (2 * k2), m * m / (4 * k2)
    assume(max(abs(mu_exact), sigma_exact) < 2**1023)
    mu, sigma, c0, c1 = qd._center_residuals(k, n)
    assert mu == float(mu_exact)
    assert sigma == float(sigma_exact)
    c1_exact = m - 2 * k2 * Fraction(mu)
    assert c1 == float(c1_exact)
    # c0 completes the square about the exact center: the exponent is the
    # exact sigma, not its rounding
    c0_exact = -c1_exact**2 / (4 * k2)
    assert m * Fraction(mu) - k2 * Fraction(mu) ** 2 - c0_exact == sigma_exact
    assert c0 == float(c0_exact)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(k=ANY_K, n=ANY_N, j=st.one_of(st.integers(1, 50), st.integers(1, 2**53)))
@example(k=1.0, n=10**10, j=1)
@example(k=1.0, n=10**11, j=1)
@example(k=0.01, n=10**12, j=1)
@example(k=1e-90, n=0, j=1)
@example(k=1e-150, n=2**48, j=1)  # sigma and mu would overflow float64
@example(k=1e-120, n=-1, j=1)
@example(k=1e-310, n=0, j=1)
@example(k=1e308, n=0, j=1)
def test_admitted_k_and_n_end_in_their_bound_or_a_named_refusal(k, n, j):
    w = LogNormalWeight(k)
    for call, exact in ((lambda: integrate_moment(w, n), 1.0),
                        (lambda: vanishing_integral(w, n, j), 0.0)):
        try:
            r = call()
        except BudgetExceededError:
            continue
        assert abs(r.value_over_scale() - exact) <= r.error_estimate


@pytest.mark.parametrize("k, n", [(1e-20, 0), (0.01, 2**48), (0.1, -(2**48)), (1e-90, 0)])
def test_sigma_granularity_is_a_named_refusal(k, n):
    # The window is centred on mu = (n+1)/(2 k**2) rounded, within u |mu|,
    # so the Gaussian's exact center may lie u sqrt(sigma) / k away: where
    # that granularity may reach 2**-4 of the width 1/k, no number is
    # reported.  At k = 1e-20 and 1e-90 with n = 0 it is ~6e3 and ~6e73.
    w = LogNormalWeight(k)
    for call in (lambda: integrate_moment(w, n), lambda: vanishing_integral(w, n, 1)):
        with pytest.raises(BudgetExceededError, match=re.escape(f"n={n} at k={k!r}")):
            call()


@pytest.mark.parametrize("k, n", [(0.05, 50), (0.2, 17)])
def test_small_k_cosine_moments_match_mpmath(k, n):
    # sigma = 2.6e5 and 2.0e3, where eps * sigma once entered every bound;
    # the cosine mode scales the moments by 1.27 and 1.06, and the
    # mantissa meets 30-digit tanh-sinh within its bound
    desc = {"k": k, "lambda": 0.6, "modes": [{"a": 0.5, "b": 1, "kind": "cosine"},
                                             {"a": 0.5, "b": 2, "kind": "sine"}]}
    ref = oracles.mp_moment_quad(desc, n, dps=30) / mpmath.exp(
        mpmath.mpf(n + 1) ** 2 / (4 * mpmath.mpf(k) ** 2))
    r = integrate_moment(PerturbedDensity.of(modulator_from_dict(desc)), n)
    assert abs(r.value_over_scale() - float(ref)) <= r.error_estimate < 1e-13


@pytest.mark.parametrize("n", [112588, -112589])
@pytest.mark.parametrize("rel_tol", [1e-2, 1e-4])
def test_tail_term_charges_the_center_offset(n, rel_tol):
    # At k = 1e-10 the Gaussian's center lies k |s0| = 0.016 and 0.040 from
    # the window's: the deviation, mostly the lost tail, passes erfc(k T)
    # plus the quadrature bound, and erfc(k (T - |s0|)) covers it
    k = 1e-10
    r = integrate_moment(LogNormalWeight(k), n, QuadratureSpec(rel_tol=rel_tol))
    dev = abs(r.value_over_scale() - 1.0)
    assert r.rel_quad_error + math.erfc(k * r.truncation) < dev <= r.error_estimate


@pytest.mark.parametrize("k, n", [(1.0, 10**10), (1.0, 10**11), (0.01, 10**12)])
def test_orders_where_eps_sigma_passes_one_integrate(k, n):
    # sigma reaches 2.5e21 and 2.5e27 here, where the (sign, ln) form
    # could not hold the value; the mantissa beside the exact scale can
    w = LogNormalWeight(k)
    r = integrate_moment(w, n)
    assert abs(r.value_over_scale() - 1.0) <= r.error_estimate < 1e-13
    r = vanishing_integral(w, n, 1)
    assert abs(r.value_over_scale()) <= r.error_estimate < 1e-13


def test_sigma_refusal_is_exact_at_its_bound():
    # k |mu - mu_exact| <= 2**-54 |n+1| / k reaches 2**-4 exactly when |n + 1|
    # >= 2**50 k; at k = 1e-10 the first refused |n + 1| is floor(2**50 k) +
    # 1 = 112590, and it refuses its whole block
    k = 1e-10
    first = math.floor(Fraction(k) * 2**50) + 1
    assert first == 112590
    w = LogNormalWeight(k)
    for n in (first - 2, -first + 1):
        r = integrate_moment(w, n)
        assert abs(r.value_over_scale() - 1.0) <= r.error_estimate < 1e-13
    for n in (first - 1, -first - 1):
        with pytest.raises(BudgetExceededError, match=f"n={n} "):
            integrate_moment(w, n)
    with pytest.raises(BudgetExceededError, match=f"n={first - 1} "):
        qd._integrate_orders(w, [0, first - 1, 5])


@pytest.mark.parametrize("k", [3e-155, 1e-160, 1e-200, 5e-324])
def test_closed_form_without_a_float64_exponent_is_a_named_refusal(k):
    w = LogNormalWeight(k)
    with pytest.raises(BudgetExceededError, match=re.escape(f"n=0 at k={k!r}")):
        base_moment_closed_form(w, 0)
    assert base_moment_closed_form(w, -1) == LogScaled.exp(0.0)


def test_tiny_k_integrates_where_sigma_is_zero():
    # sigma = 0 at n = -1, so nothing is refused at k = 1e-120; the
    # oscillation per panel, a ~ 5e-120, is below where Miller's
    # recurrence overflows
    r = vanishing_integral(LogNormalWeight(1e-120), -1, 1)
    assert abs(r.value_over_scale()) <= r.error_estimate < 1e-12
