import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qmoments.measures import (
    BudgetExceededError,
    LogNormalWeight,
    Modulator,
    PerturbedDensity,
    TrigMode,
    WeierstrassSpec,
    eval_density,
    eval_modulator,
    eval_weight,
)
from qmoments import qcalc
from qmoments.cli import main
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


class TestSharedLogPath:
    """A Modulator at its own q takes g(q*x) from ln x + ln q in double-double."""

    SINE1 = '{"k": 1.0, "lambda": 0.5, "modes": [{"a": 1.0, "b": 1, "kind": "sine"}]}'
    MODULATORS = (
        Modulator(LogNormalWeight(1.0), 1.0, (TrigMode(1.0, 1, "sine"),)),
        Modulator(LogNormalWeight(1.0), 1.0, (TrigMode(0.5, 1, "sine"), TrigMode(0.3, 2, "sine"),
                                              TrigMode(0.2, 5, "sine"))),
        Modulator(LogNormalWeight(1.0), 0.9, WeierstrassSpec(0.5, 3, 10, "sine")),
        Modulator(LogNormalWeight(0.5), 0.1, (TrigMode(1.0, 1, "cosine"),)),
        Modulator(LogNormalWeight(0.45), -0.6, (TrigMode(0.5, 1, "cosine"),
                                                TrigMode(0.5, 3, "sine"))),
    )

    def qderiv_case(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["qderiv", "--modulator", self.SINE1, "--out", str(out)])
        return code, json.loads(out.read_text())["cases"][0]

    def test_planted_ln_q_defect_fails(self, tmp_path, monkeypatch):
        # ln q off by 1e-14 relative moves the phase of q*x by 1e-14 turns;
        # at k = 1 the worst scaled |D_q g| is then ~3.5 times the 1e-12
        # tolerance, so the zeros of the true identity come from the
        # arithmetic, not from a whole turn built into the evaluator.
        code, case = self.qderiv_case(tmp_path)
        assert code == 0 and case["pass"] and case["value"] == 0.0
        lnq_dd = qcalc._lnq_dd
        monkeypatch.setattr(qcalc, "_lnq_dd",
                            lambda k: tuple(v * (1.0 + 1e-14) for v in lnq_dd(k)))
        code, case = self.qderiv_case(tmp_path)
        assert code == 1 and not case["pass"] and "reason" not in case["inputs"]
        assert 2e-12 < case["value"] < 1e-11

    def test_within_the_float64_steps_floor_of_the_callable_path(self):
        # the callable path evaluates g at the rounded q*x; the two differ
        # by no more than the 1.25 eps floor that the qderiv check subtracts
        rng = np.random.default_rng(8262027)
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000))
        for m in self.MODULATORS:
            q = m.weight.q
            shared = q_derivative(m, xs, q)
            stepped = q_derivative(lambda x: eval_modulator(m, x), xs, q)
            floor = 1.25 * np.finfo(float).eps * m.log_slope_bound / ((1.0 - q) * xs)
            assert np.all(np.abs(shared - stepped) <= floor)

    def test_other_q_takes_the_float64_step(self):
        m = self.MODULATORS[2]
        xs = np.exp(np.linspace(-5.0, 5.0, 101))
        for q in (0.5, np.nextafter(m.weight.q, 1.0)):
            want = q_derivative(lambda x: eval_modulator(m, x), xs, q)
            assert q_derivative(m, xs, q).tobytes() == want.tobytes()

    def test_scalar_matches_array(self):
        m = self.MODULATORS[4]
        xs = np.array([1e-3, 0.37, 1.0, 2.0, 777.7])
        vals = q_derivative(m, xs, m.weight.q)
        for x, v in zip(xs, vals):
            s = q_derivative(m, float(x), m.weight.q)
            assert isinstance(s, QDerivativeSample) and s.value == v


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
                with pytest.raises(BudgetExceededError, match=re.escape(f"k={k!r}")):
                    call()
            # the weight needs no ln q: f(1) = k / sqrt(pi) even where k**2
            # overflows, and f is finite everywhere
            f = eval_weight(w, self.XS)
        assert f[2] == pytest.approx(k / math.sqrt(math.pi), rel=1e-15)
        assert np.all(np.isfinite(f)) and np.all(f >= 0.0)

    @pytest.mark.parametrize("k, x", [(1e16, 0.5), (1e16, 1.3), (1e100, 1e-300), (1e100, 2.0)])
    def test_phase_without_a_fractional_bit_is_refused_by_name(self, k, x):
        # 2 k**2 |ln x| >= 2**104: the ~2**-104 relative rounding of the
        # base phase exceeds a whole turn, so no value is reported
        _, m, d = self.objects(k)
        for call in (lambda: eval_modulator(m, x), lambda: eval_density(d, x),
                     lambda: q_pearson_residual(d, x)):
            with pytest.raises(BudgetExceededError, match=re.escape(f"k={k!r}: at ln x = ")):
                call()
        # at x = 1 the phase is exactly 0 at any k whose ln q is finite
        assert eval_modulator(m, 1.0) == 0.5

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.one_of(st.floats(min_value=5e-324, max_value=sys.float_info.max),
                    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)),
        xs=st.lists(st.one_of(
            st.floats(min_value=5e-324, max_value=sys.float_info.max),
            st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
        ), min_size=1, max_size=6),
    )
    @example(k=1e16, xs=[0.5, 1.0, 1.3])
    @example(k=3.2e148, xs=[math.exp(690.0)])  # the dd_div split overflowed
    @example(k=2e306, xs=[1e-102, 1.0, 1e152])  # k * ln x overflows to inf
    @example(k=0.025, xs=[5e-324, sys.float_info.max])
    def test_admitted_k_and_x_end_finite_or_in_a_named_refusal(self, k, xs):
        w, m, d = self.objects(k)
        xs = np.array(xs)
        for call, obj in ((eval_weight, w), (eval_modulator, m), (eval_density, d),
                          (q_pearson_residual, w), (q_pearson_residual, d)):
            try:
                out = call(obj, xs)
            except BudgetExceededError:
                continue
            assert np.all(np.isfinite(out))
