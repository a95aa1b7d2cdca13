import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmoments.measures import (
    LogNormalWeight,
    Modulator,
    PerturbedDensity,
    TrigMode,
    WeierstrassSpec,
    eval_density,
    eval_modulator,
    eval_weight,
)
from qmoments.qcalc import QDerivativeSample, q_derivative, q_pearson_residual

from test_measures import modulator_strategy, phase_noise_budget


class TestQDerivative:
    def test_identity_map_gives_minus_one(self):
        # (x - q*x) / ((q-1) * x) = -1: the sign convention in one line.
        for q in (0.1, 0.5, 0.60653065971263342, 0.999):
            s = q_derivative(lambda x: x, 3.7, q)
            assert s.value == pytest.approx(-1.0, rel=1e-14)

    def test_square_map_analytic(self):
        # D_q x**2 = -x (1 + q).
        q = 0.6
        for x in (0.25, 1.0, 50.0):
            s = q_derivative(lambda t: t * t, x, q)
            assert s.value == pytest.approx(-x * (1 + q), rel=1e-13)

    def test_constant_annihilated_exactly(self):
        s = q_derivative(lambda x: np.full_like(x, 2.5), 7.0, 0.3)
        assert s.value == 0.0

    def test_scalar_returns_sample(self):
        s = q_derivative(lambda x: x, 2.0, 0.5)
        assert isinstance(s, QDerivativeSample)
        assert s.x == 2.0 and s.q == 0.5

    def test_array_returns_array(self):
        v = q_derivative(lambda x: x, np.array([1.0, 2.0]), 0.5)
        assert isinstance(v, np.ndarray)
        assert v == pytest.approx([-1.0, -1.0])

    def test_rejects_bad_q(self):
        for q in (0.0, 1.0, -0.5, 2.0, math.nan):
            with pytest.raises(ValueError):
                q_derivative(lambda x: x, 1.0, q)

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            q_derivative(lambda x: x, -1.0, 0.5)


class TestAnnihilation:
    # A q-periodic modulator satisfies g(q*x) = g(x), so D_q g vanishes;
    # the tolerance scale is 1e-12 * (1 + |g(x)| / x).

    def check(self, m, xs):
        w = m.weight
        vals = q_derivative(m, xs, w.q)
        g = eval_modulator(m, xs)
        tol = 1e-12 * (1.0 + np.abs(g) / xs)
        assert np.all(np.abs(vals) <= tol)

    def test_flagship_weierstrass(self):
        rng = np.random.default_rng(1234)
        for k in (0.5, 1.0):
            m = Modulator(LogNormalWeight(k), 1.0, WeierstrassSpec(0.5, 3, 10, "sine"))
            self.check(m, np.exp(rng.uniform(0.0, math.log(1e3), 200)))

    def test_flagship_trig(self):
        rng = np.random.default_rng(99)
        for k in (0.5, 1.0, 2.0):
            m = Modulator(
                LogNormalWeight(k),
                1.0,
                (TrigMode(1.0, 1, "sine"), TrigMode(0.3, 4, "cosine")),
            )
            self.check(m, np.exp(rng.uniform(0.0, math.log(1e3), 200)))

    @given(
        m=modulator_strategy(),
        x=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariant_within_quantization_feasibility(self, m, x):
        # The numerator noise floor is the q*x quantization budget and the
        # denominator scales it by 1/((1-q) x); instances whose floor
        # crosses ~1/3 of the tolerance are screened out, since no double
        # precision evaluation could certify them either way.
        w = m.weight
        noise = phase_noise_budget(m) / ((1.0 - w.q) * x)
        assume(noise < 3e-13)
        s = q_derivative(m, x, w.q)
        g = eval_modulator(m, x)
        assert abs(s.value) <= 1e-12 * (1.0 + abs(g) / x)


class TestQPearsonWeight:
    # f(q*x) = sqrt(q) * x * f(x); tolerance 1e-13 * f(x) * max(1, sqrt(q) x).

    def tol(self, w, x):
        return 1e-13 * eval_weight(w, x) * np.maximum(1.0, math.sqrt(w.q) * x)

    def test_dense_sweep(self):
        for k in (0.4, 0.5, 1.0, 2.0):
            w = LogNormalWeight(k)
            xs = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 500))
            res = q_pearson_residual(w, xs)
            assert np.all(np.abs(res) <= self.tol(w, xs))

    @given(
        k=st.floats(min_value=0.4, max_value=2.0),
        x=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariant(self, k, x):
        w = LogNormalWeight(k)
        res = q_pearson_residual(w, x)
        assert abs(res) <= float(self.tol(w, np.float64(x)))

    def test_scalar_and_array_agree(self):
        w = LogNormalWeight(1.0)
        assert q_pearson_residual(w, 2.0) == q_pearson_residual(w, np.array([2.0]))[0]

    def test_rejects_q_for_weight(self):
        with pytest.raises(ValueError, match="implied"):
            q_pearson_residual(LogNormalWeight(1.0), 1.0, q=0.5)


class TestQPearsonDensity:
    def test_perturbed_density_satisfies_identity(self):
        # q-periodicity of g makes the perturbed density satisfy the same
        # difference equation, at the same tolerance; this holds even for
        # a 30-term Weierstrass modulator.
        for k in (0.5, 1.0, 2.0):
            w = LogNormalWeight(k)
            d = PerturbedDensity.of(Modulator(w, 1.0, WeierstrassSpec(0.5, 3, 30, "sine")))
            xs = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 400))
            res = q_pearson_residual(d, xs)
            tol = 1e-13 * eval_weight(w, xs) * np.maximum(1.0, math.sqrt(w.q) * xs)
            assert np.all(np.abs(res) <= tol)

    @given(m=modulator_strategy(), x=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=80, deadline=None)
    def test_invariant_any_modulator(self, m, x):
        # The modulator enters the residual as f(q*x) * lam * (g(q*x) - g(x)),
        # and the phases behind g carry ~1e-32 |u| of dd error that each
        # harmonic amplifies.  Draws whose quantization budget (which bounds
        # that error many times over) crosses ~1/3 of the tolerance are held
        # to the 4x noise certificate instead: harmonics reach 5**30 here.
        d = PerturbedDensity.of(m)
        res = q_pearson_residual(d, x)
        w = m.weight
        local = eval_weight(w, x) * max(1.0, math.sqrt(w.q) * x)
        noise = abs(m.lam) * phase_noise_budget(m)
        if noise < 3e-14:
            assert abs(res) <= 1e-13 * local * (1.0 + abs(m.lam) * m.sup_bound)
        else:
            assert abs(res) <= 4.0 * noise * local

    def test_discriminates_non_q_periodic_modulation(self):
        # A harmonic at non-integer frequency is NOT q-periodic, and the
        # residual must light up far beyond tolerance; this is what the
        # check would catch if the construction were wrong.
        w = LogNormalWeight(1.0)
        lnq = w.ln_q

        def fake_density(x):
            u = np.log(x) / lnq
            return eval_weight(w, x) * (1.0 + 0.5 * np.sin(2.0 * math.pi * 2.7 * u))

        xs = np.exp(np.linspace(-2.0, 2.0, 50))
        res = q_pearson_residual(fake_density, xs, q=w.q)
        tol = 1e-13 * eval_weight(w, xs) * np.maximum(1.0, math.sqrt(w.q) * xs)
        # Not just above tolerance: ten orders of magnitude above.
        assert np.max(np.abs(res) / tol) > 1e9

    def test_callable_requires_q(self):
        with pytest.raises(ValueError, match="explicit q"):
            q_pearson_residual(lambda x: x, 1.0)

    def test_rejects_other_objects(self):
        with pytest.raises(ValueError, match="expected"):
            q_pearson_residual(3.5, 1.0)


class TestExtremeK:
    # Every positive finite k is admitted; the pointwise evaluators either
    # answer finitely or refuse by naming k, without a numpy warning.
    XS = np.array([1e-3, 0.5, 1.0, 3.0, 1e3])

    @staticmethod
    def objects(k):
        w = LogNormalWeight(k)
        m = Modulator(w, 0.5, (TrigMode(1.0, 1, "sine"), TrigMode(0.5, 3, "cosine")))
        return w, m, PerturbedDensity.of(m)

    def test_tiny_k_residual_is_zero(self):
        # At k = 1e-100, f(q*x) and sqrt(q) both underflow to 0, so the
        # residual is exactly 0; forming k**2 * ln(q*x)**2 overflowed.
        w, m, d = self.objects(1e-100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for obj in (w, d):
                assert np.array_equal(q_pearson_residual(obj, self.XS), np.zeros(5))
            assert np.all(np.isfinite(eval_modulator(m, self.XS)))
            assert np.all(np.isfinite(eval_density(d, self.XS)))

    @pytest.mark.parametrize("k", [1e-160, 1e155, 1e160])
    def test_unrepresentable_ln_q_is_refused_by_name(self, k):
        w, m, d = self.objects(k)
        calls = [
            lambda: eval_modulator(m, self.XS),
            lambda: eval_density(d, self.XS),
            lambda: q_pearson_residual(w, self.XS),
            lambda: q_pearson_residual(d, self.XS),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match=re.escape(f"k={k!r}")):
                    call()
            # the weight needs no ln q: f(1) = k / sqrt(pi) even where k**2
            # overflows, and f is finite everywhere
            f = eval_weight(w, self.XS)
        assert f[2] == pytest.approx(k / math.sqrt(math.pi), rel=1e-15)
        assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
