import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from qmoments import _dd, measures
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
    modulator_from_dict,
    modulator_to_dict,
    positivity_bound,
)
from qmoments.moments import MomentSequence, hankel_check, stieltjes_wigert_check
from qmoments.quadrature import (
    base_moment_closed_form,
    integrate_moment,
    vanishing_integral,
)
from qmoments.qcalc import q_derivative, q_pearson_residual
from qmoments.roughness import holder_estimate

EPS = 2.220446049250313e-16


def trig_modulator(k, lam, modes):
    w = LogNormalWeight(k)
    return Modulator(w, lam, tuple(TrigMode(a, b, kind) for a, b, kind in modes))


def weier_modulator(k, lam, a, b, n, kind="sine"):
    w = LogNormalWeight(k)
    return Modulator(w, lam, WeierstrassSpec(a, b, n, kind))


def phase_noise_budget(m):
    """Worst-case |g(fl(q*x)) - g(x)| from input quantization alone.

    Forming q*x in float64 perturbs ln x by about 2.5*eps, which moves the
    periodic variable u by 2.5*eps*k**2 and the n-th harmonic phase by
    b_n times that.  This is a property of the evaluation points, not of
    any particular algorithm; no double-precision interface can beat it.
    """
    k = m.weight.k
    du = 2.5 * EPS * k * k
    slope = sum(abs(a) * b for a, b, _ in m.terms())
    return 2.0 * math.pi * slope * du


class TestLogNormalWeight:
    def test_value_at_one(self):
        # f(1) = k / sqrt(pi); no exponential involved.
        assert eval_weight(LogNormalWeight(1.0), 1.0) == pytest.approx(
            0.5641895835477563, rel=1e-15
        )
        assert eval_weight(LogNormalWeight(2.0), 1.0) == pytest.approx(
            2 * 0.5641895835477563, rel=1e-15
        )

    def test_frozen_values(self):
        # mpmath references at 50 digits.
        assert eval_weight(LogNormalWeight(1.0), math.e) == pytest.approx(
            0.20755374871029735, rel=1e-14
        )
        assert eval_weight(LogNormalWeight(0.5), 10.0) == pytest.approx(
            0.074946057983199332, rel=1e-14
        )
        assert eval_weight(LogNormalWeight(2.0), 0.1) == pytest.approx(
            6.9520788201304065e-10, rel=2e-14
        )

    def test_q_value(self):
        assert LogNormalWeight(1.0).q == pytest.approx(0.60653065971263342, rel=1e-15)
        assert LogNormalWeight(1.0).ln_q == -0.5
        assert LogNormalWeight(0.5).ln_q == -2.0

    def test_vectorized_matches_scalar(self):
        w = LogNormalWeight(1.3)
        xs = np.array([0.01, 1.0, 7.5, 900.0])
        vec = eval_weight(w, xs)
        for i, x in enumerate(xs):
            assert vec[i] == eval_weight(w, float(x))

    def test_rejects_bad_domain(self):
        w = LogNormalWeight(1.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                eval_weight(w, bad)
        with pytest.raises(ValueError):
            eval_weight(w, np.array([1.0, -2.0]))

    def test_rejects_bad_k(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                LogNormalWeight(bad)

    def test_callable_alias(self):
        w = LogNormalWeight(1.0)
        assert w(2.0) == eval_weight(w, 2.0)


class TestTrigMode:
    def test_validation(self):
        TrigMode(0.5, 3, "sine")
        with pytest.raises(ValueError):
            TrigMode(math.inf, 1, "sine")
        with pytest.raises(ValueError):
            TrigMode(1.0, 0, "sine")
        with pytest.raises(ValueError):
            TrigMode(1.0, 1.5, "sine")
        with pytest.raises(ValueError):
            TrigMode(1.0, True, "sine")
        with pytest.raises(ValueError):
            TrigMode(1.0, 1, "tangent")
        with pytest.raises(ValueError):
            TrigMode(1.0, 2**53 + 2, "sine")


class TestWeierstrassSpec:
    def test_validation(self):
        WeierstrassSpec(0.5, 3, 10, "sine")
        for bad_a in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValueError):
                WeierstrassSpec(bad_a, 3, 10, "sine")
        with pytest.raises(ValueError):
            WeierstrassSpec(0.5, 1, 10, "sine")
        with pytest.raises(ValueError):
            WeierstrassSpec(0.5, 3, 0, "sine")
        with pytest.raises(ValueError):
            WeierstrassSpec(0.5, 3, 10, "cos")

    def test_nowhere_differentiable_flag(self):
        # Hardy: a*b >= 1.
        assert WeierstrassSpec(0.5, 3, 10, "sine").nowhere_differentiable
        assert WeierstrassSpec(0.5, 2, 10, "sine").nowhere_differentiable
        assert not WeierstrassSpec(0.4, 2, 10, "sine").nowhere_differentiable
        assert WeierstrassSpec(0.9, 2, 10, "cosine").nowhere_differentiable

    def test_holder_exponent_frozen(self):
        assert WeierstrassSpec(0.5, 3, 10, "sine").holder_exponent == pytest.approx(
            0.63092975357145744, rel=1e-15
        )
        assert WeierstrassSpec(0.9, 2, 10, "sine").holder_exponent == pytest.approx(
            0.15200309344504997, rel=1e-14
        )

    def test_tail_bound(self):
        # a**N / (1 - a) with a = 1/2, N = 10: 2 * 2**-10.
        assert WeierstrassSpec(0.5, 3, 10, "sine").tail_bound == pytest.approx(
            2.0**-9, rel=1e-15
        )


class TestSupAndPositivity:
    def test_single_sine_bound_is_one(self):
        m = trig_modulator(1.0, 1.0, [(1.0, 1, "sine")])
        assert m.sup_bound == 1.0
        assert positivity_bound(m) == 1.0
        assert m.positive

    def test_mode_list_bound(self):
        m = trig_modulator(1.0, 2.0, [(0.3, 1, "sine"), (-0.2, 4, "cosine")])
        assert m.sup_bound == pytest.approx(0.5)
        assert positivity_bound(m) == pytest.approx(2.0)
        assert m.positive
        m2 = trig_modulator(1.0, 2.1, [(0.3, 1, "sine"), (-0.2, 4, "cosine")])
        assert not m2.positive

    def test_weierstrass_full_series_bound(self):
        # a = 1/2: the untruncated series bound a/(1-a) = 1, regardless
        # of the truncation level.
        for n in (1, 5, 40):
            m = weier_modulator(1.0, 1.0, 0.5, 3, n)
            assert m.sup_bound == 1.0
            assert positivity_bound(m) == 1.0
            assert m.positive

    def test_zero_modulator(self):
        m = trig_modulator(1.0, 0.7, [])
        assert m.sup_bound == 0.0
        assert positivity_bound(m) == math.inf
        assert m.positive
        assert eval_modulator(m, 5.0) == 0.0

    def test_boundary_lambda_accepted(self):
        m0 = trig_modulator(1.0, 0.0, [(0.3, 1, "sine"), (0.37, 2, "cosine")])
        lam = positivity_bound(m0)
        m = trig_modulator(1.0, lam, [(0.3, 1, "sine"), (0.37, 2, "cosine")])
        assert m.positive

    @given(
        lam_frac=st.floats(min_value=0.0, max_value=1.0),
        amps=st.lists(
            st.floats(min_value=-1.0, max_value=1.0).filter(lambda a: abs(a) > 1e-3),
            min_size=1,
            max_size=4,
        ),
        x=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_density_nonnegative_inside_bound(self, lam_frac, amps, x):
        modes = [(a, i + 1, "sine" if i % 2 else "cosine") for i, a in enumerate(amps)]
        m0 = trig_modulator(1.0, 0.0, modes)
        lam = lam_frac * positivity_bound(m0)
        d = PerturbedDensity.of(trig_modulator(1.0, lam, modes))
        f = eval_weight(d.weight, x)
        # Allow the documented float boundary: a -1e-14 * f(x) dip at
        # lam exactly on the bound is evaluation noise, not signedness.
        assert eval_density(d, x) >= -1e-14 * f

    def test_sup_bound_never_exceeded_pointwise(self):
        m = weier_modulator(1.0, 1.0, 0.5, 3, 25)
        xs = np.exp(np.linspace(-6.9, 6.9, 20001))
        vals = eval_modulator(m, xs)
        assert np.max(np.abs(vals)) <= m.sup_bound + 1e-12


class TestEvalModulator:
    def test_frozen_single_sine(self):
        m = trig_modulator(1.0, 0.5, [(1.0, 1, "sine")])
        assert eval_modulator(m, 2.0) == pytest.approx(
            -0.65518962640801413, abs=1e-15
        )

    def test_frozen_two_modes(self):
        m = trig_modulator(1.0, 0.25, [(0.7, 2, "cosine"), (0.2, 5, "sine")])
        assert eval_modulator(m, 2.0) == pytest.approx(0.18249591513873291, abs=1e-15)
        assert eval_modulator(m, 0.037) == pytest.approx(
            0.22900818397342879, abs=1e-15
        )

    def test_frozen_weierstrass(self):
        m = weier_modulator(1.0, 1.0, 0.5, 3, 10)
        assert eval_modulator(m, 2.0) == pytest.approx(-0.53329472605125385, abs=1e-14)
        assert eval_modulator(m, 0.37) == pytest.approx(-0.33818434867775505, abs=1e-14)
        m2 = weier_modulator(2.0, 1.0, 0.6, 2, 8, "cosine")
        assert eval_modulator(m2, 777.7) == pytest.approx(0.25659894979959639, abs=1e-14)

    def test_density_frozen(self):
        d = PerturbedDensity.of(trig_modulator(1.0, 0.5, [(1.0, 1, "sine")]))
        assert eval_density(d, 2.0) == pytest.approx(0.23463782580003883, rel=1e-14)

    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        k=st.floats(min_value=0.4, max_value=2.0),
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.integers(min_value=1, max_value=40),
        kind=st.sampled_from(["sine", "cosine"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_mpmath_oracle(self, x, k, a, b, kind):
        m = trig_modulator(k, 1.0, [(a, b, kind)])
        got = eval_modulator(m, x)
        want = float(
            oracles.mp_modulator(
                {"k": k, "lambda": 1.0, "modes": [{"a": a, "b": b, "kind": kind}]}, x
            )
        )
        assert got == pytest.approx(want, abs=5e-15 * max(1.0, abs(a)))

    @pytest.mark.parametrize("kind", ["sine", "cosine"])
    def test_huge_weierstrass_b_matches_mpmath(self, kind):
        # WeierstrassSpec puts no upper bound on b.  Folding b = 2**60 + 1
        # exactly leaves only the ~1e-32 |u| base-phase error, grown by b
        # to ~1e-14; a fold that rounds b to a double is off by O(1)
        # (-0.2600 for 0.1908 at x = 1.3 in the sine case).
        desc = {"k": 1.0, "lambda": 0.1,
                "weierstrass": {"a": 0.5, "b": 2**60 + 1, "N": 1, "kind": kind}}
        m = modulator_from_dict(desc)
        d = PerturbedDensity.of(m)
        xs = np.array([1.3, 0.02, 0.77, 5.0, 240.0])
        g, p = eval_modulator(m, xs), eval_density(d, xs)
        for i, x in enumerate(xs):
            assert g[i] == pytest.approx(float(oracles.mp_modulator(desc, x)), abs=1e-12)
            want = float(oracles.mp_density(desc, x))
            assert p[i] == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert eval_modulator(m, 1.3) == pytest.approx(
            float(oracles.mp_modulator(desc, 1.3)), abs=1e-12
        )

    def test_vectorized_matches_scalar(self):
        m = weier_modulator(1.2, 0.5, 0.7, 2, 12, "cosine")
        xs = np.array([1e-3, 0.2, 1.0, 3.7, 1e3])
        vec = eval_modulator(m, xs)
        for i, x in enumerate(xs):
            assert vec[i] == eval_modulator(m, float(x))


def modulator_strategy():
    """Random modulators, steep Weierstrass truncations included."""
    trig = st.builds(
        lambda k, lam, modes: trig_modulator(k, lam, modes),
        st.floats(min_value=0.4, max_value=2.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.lists(
            st.tuples(
                st.floats(min_value=-1.5, max_value=1.5),
                st.integers(min_value=1, max_value=64),
                st.sampled_from(["sine", "cosine"]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    weier = st.builds(
        lambda k, lam, a, b, n, kind: weier_modulator(k, lam, a, b, n, kind),
        st.floats(min_value=0.4, max_value=2.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.15, max_value=0.9),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=30),
        st.sampled_from(["sine", "cosine"]),
    )
    return st.one_of(trig, weier)


class TestQPeriodicity:
    @given(m=modulator_strategy(), x=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=150, deadline=None)
    def test_invariant_within_quantization_feasibility(self, m, x):
        # The identity g(q*x) = g(x) is checked at the contract tolerance
        # 1e-12 * (1 + |g(x)|) whenever the evaluation points themselves
        # can represent it: forming q*x rounds ln x by ~2.5 eps, so
        # steep modulators are screened by the quantization budget, and
        # covered instead by the noise-certificate test below.
        assume(phase_noise_budget(m) < 3e-13)
        g_x = eval_modulator(m, x)
        g_qx = eval_modulator(m, m.weight.q * x)
        assert abs(g_qx - g_x) <= 1e-12 * (1.0 + abs(g_x))

    def test_flagship_weierstrass_cases(self):
        # The steep (a, b) = (0.5, 3), N = 10 family passes the full
        # contract tolerance for k <= 1.
        for k in (0.5, 1.0):
            m = weier_modulator(k, 1.0, 0.5, 3, 10)
            for x in np.exp(np.linspace(-6.9, 6.9, 400)):
                g_x = eval_modulator(m, float(x))
                g_qx = eval_modulator(m, m.weight.q * float(x))
                assert abs(g_qx - g_x) <= 1e-12 * (1.0 + abs(g_x))

    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        k=st.floats(min_value=0.4, max_value=2.0),
        n=st.integers(min_value=10, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_steep_cases_obey_noise_certificate(self, x, k, n):
        # Beyond the quantization budget the defect must still be fully
        # explained by input rounding: |residual| <= 4x the worst-case
        # phase noise.  A genuine periodicity defect would scale with the
        # modulator value instead and blow through this bound.
        m = weier_modulator(k, 1.0, 0.5, 3, n)
        g_x = eval_modulator(m, x)
        g_qx = eval_modulator(m, m.weight.q * x)
        budget = max(phase_noise_budget(m), 1e-15)
        assert abs(g_qx - g_x) <= 4.0 * budget


class TestJsonRoundtrip:
    def test_modes_roundtrip(self):
        m = trig_modulator(1.5, -0.4, [(0.3, 2, "sine"), (0.1, 7, "cosine")])
        d = modulator_to_dict(m)
        assert json.loads(json.dumps(d)) == d
        m2 = modulator_from_dict(d)
        assert m2 == m

    def test_weierstrass_roundtrip(self):
        m = weier_modulator(0.8, 0.9, 0.5, 3, 12, "cosine")
        d = modulator_to_dict(m)
        assert d["weierstrass"] == {"a": 0.5, "b": 3, "N": 12, "kind": "cosine"}
        assert modulator_from_dict(d) == m

    def test_error_paths_name_the_field(self):
        with pytest.raises(ValueError, match="missing required field 'k'"):
            modulator_from_dict({"lambda": 1.0, "modes": []})
        with pytest.raises(ValueError, match="exactly one of"):
            modulator_from_dict({"k": 1.0, "lambda": 0.0})
        with pytest.raises(ValueError, match="exactly one of"):
            modulator_from_dict(
                {
                    "k": 1.0,
                    "lambda": 0.0,
                    "modes": [],
                    "weierstrass": {"a": 0.5, "b": 3, "N": 5, "kind": "sine"},
                }
            )
        with pytest.raises(ValueError, match=r"modes\[1\]\.b: expected an integer"):
            modulator_from_dict(
                {
                    "k": 1.0,
                    "lambda": 0.0,
                    "modes": [
                        {"a": 1.0, "b": 1, "kind": "sine"},
                        {"a": 1.0, "b": 2.5, "kind": "sine"},
                    ],
                }
            )
        with pytest.raises(ValueError, match=r"weierstrass.*b must be >= 2"):
            modulator_from_dict(
                {
                    "k": 1.0,
                    "lambda": 0.0,
                    "weierstrass": {"a": 0.5, "b": 1, "N": 5, "kind": "sine"},
                }
            )
        with pytest.raises(ValueError, match="unknown fields"):
            modulator_from_dict({"k": 1.0, "lambda": 0.0, "modes": [], "zeta": 1})

    @given(m=modulator_strategy())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, m):
        assert modulator_from_dict(modulator_to_dict(m)) == m


class TestPerturbedDensity:
    def test_mismatched_weight_rejected(self):
        m = trig_modulator(1.0, 0.5, [(1.0, 1, "sine")])
        with pytest.raises(ValueError, match="different weight"):
            PerturbedDensity(LogNormalWeight(2.0), m)

    def test_of_constructor(self):
        m = trig_modulator(1.0, 0.5, [(1.0, 1, "sine")])
        d = PerturbedDensity.of(m)
        assert d.weight == m.weight
        assert d.positive

    def test_density_validates_its_input_once(self, monkeypatch):
        from qmoments import measures

        calls = []
        original = measures._as_positive_array

        def counting(x, name="x"):
            calls.append(name)
            return original(x, name)

        monkeypatch.setattr(measures, "_as_positive_array", counting)
        d = PerturbedDensity.of(trig_modulator(1.0, 0.5, [(1.0, 1, "sine")]))
        xs = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(
            eval_density(d, xs),
            eval_weight(d.weight, xs) * (1.0 + 0.5 * eval_modulator(d.modulator, xs)),
        )
        calls.clear()
        eval_density(d, xs)
        assert calls == ["x"]
        with pytest.raises(ValueError, match="positive and finite"):
            eval_density(d, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("x", [
        math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 2.5, [], [[]],
        [1.0, math.nan], [2.0, math.inf, math.nan], [3.0, -math.inf], [1.0, 0.0],
        [-0.0, 1.0], [4.0, -2.0, math.nan], [[1.0, 2.0], [0.5, -3.0]],
        [1.0, 1.7976931348623157e308], np.array(7.0), np.float64(-1.0),
    ])
    def test_input_check_matches_the_masked_form(self, x):
        # min() and max() decide; the mask is built only to name the offender
        try:
            want = oracles.as_positive_array_masked(x)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                measures._as_positive_array(x)
            assert str(got.value) == str(exc)
        else:
            arr, scalar = measures._as_positive_array(x)
            assert scalar == want[1] and arr.shape == want[0].shape
            assert arr.tobytes() == want[0].tobytes()



class TestBasePhase:
    """frac(-2 k**2 ln x) from the exact k**2, against mpmath."""

    def check(self, k, xs):
        w = measures._base_phase(k, *_dd.dd_log(xs))
        with mpmath.workdps(90):
            for i, x in enumerate(xs):
                t = mpmath.log(mpmath.mpf(float(x)))
                u = -2 * mpmath.mpf(k) ** 2 * t
                d = abs(mpmath.mpf(int(w[0][i]) << 64 | int(w[1][i])) / 2**128
                        - (u - mpmath.floor(u)))
                # dd_log's budget grown by 2 k**2, the product's rounding
                # and the conversion's truncation
                bound = 2 * k * k * 1e-31 * max(1, abs(t)) + 2.0**-103 * abs(u) + 2.0**-125
                assert min(d, 1 - d) <= bound, (k, float(x))

    @pytest.mark.parametrize("k", [1e-3, 0.45, 1.0, 3.0, 1e3])
    def test_matches_mpmath(self, k):
        xs = np.array([5e-324, 1e-300, 1e-3, 0.37, 0.5, 1 - 2**-53, 1.0, 1 + 1e-9,
                       2.0, 777.7, 1e300])
        self.check(k, xs)

    def test_just_under_the_refusal(self):
        # |u| = 2 k**2 |ln x| just under 2**104 is kept, just over is refused
        k = 1e15
        t = 2.0**104 / (2 * k * k)
        self.check(k, np.exp([t * (1 - 2**-20), -t * (1 - 2**-20), 2.0**-24 * t]))
        with pytest.raises(BudgetExceededError, match=re.escape(f"k={k!r}: at ln x = ")):
            measures._base_phase(k, *_dd.dd_log(np.exp([t * (1 + 2**-20)])))


def full_fold_modulator(m, w):
    """``measures._modulator_from_phase`` as it was: each term folded in
    full by ``_dd.fold_harmonic`` and its low word dropped."""
    acc = np.zeros(w[0].shape)
    for amp, harmonic, kind in m.terms():
        top = _dd.fold_harmonic(w, harmonic)[0]
        if kind == "cosine":
            top += np.uint64(2**62)
        s = _dd.phase_sin(top)
        s *= amp
        acc += s
    return acc


def top_word_modulators():
    # harmonics above TrigMode's 2**53 enter as Weierstrass b = h, which
    # also folds h**2 mod 2**128
    for h in (1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64 + 3, 2**128 - 1):
        for kind in ("sine", "cosine"):
            if h <= 2**53:
                yield pytest.param(trig_modulator(1.0, 0.4, [(0.7, h, kind), (-0.2, 3, "sine")]),
                                   id=f"h={h}-{kind}")
            else:
                yield pytest.param(weier_modulator(1.0, 0.4, 0.7, h, 2, kind), id=f"h={h}-{kind}")
    for kind in ("sine", "cosine"):
        yield pytest.param(weier_modulator(0.6162773713769765, 0.26, 0.5, 7, 34, kind),
                           id=f"weier-b=7-N=34-{kind}")


class TestTopWordFold:
    """Folding only the top word of each term leaves every bit in place."""

    @pytest.mark.parametrize("m", top_word_modulators())
    def test_outputs_match_the_full_fold(self, m, monkeypatch):
        d = PerturbedDensity.of(m)
        inputs = (0.37, np.array([2.5]),
                  np.exp(np.random.default_rng(5).uniform(-6.9, 6.9, 5000)))

        def outputs():
            # a scalar q-derivative is a QDerivativeSample; its value is compared
            return [(type(v), np.asarray(getattr(v, "value", v)).tobytes())
                    for x in inputs
                    for v in (eval_modulator(m, x), eval_density(d, x),
                              q_pearson_residual(d, x), q_derivative(m, x, m.weight.q))]

        top_only = outputs()
        monkeypatch.setattr(measures, "_modulator_from_phase", full_fold_modulator)
        assert outputs() == top_only


class TestPeakMemory:
    def test_5000_point_calls_stay_under_the_replaced_kernels_peaks(self):
        # the double-double series and division peaked at 945, 945 and
        # 1 024 KB here; more live temporaries cost page faults per call
        m = weier_modulator(1.0, 0.9, 0.5, 3, 10)
        d = PerturbedDensity.of(m)
        xs = np.exp(np.random.default_rng(3).uniform(-6.9, 6.9, 5000))
        for call, kb in ((lambda: eval_density(d, xs), 945),
                         (lambda: q_pearson_residual(d, xs), 945),
                         (lambda: q_derivative(m, xs, m.weight.q), 1024)):
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= kb * 1024


W1 = LogNormalWeight(1.0)
SEQ = MomentSequence.closed_form(W1, 5)
SPEC = WeierstrassSpec(0.5, 3, 5, "sine")

# every integer argument of the public API goes through one check: bools
# and non-integers are refused, and a refusal names the bound it broke
INTEGER_REFUSALS = {
    "harmonic-bool": (
        lambda: TrigMode(1.0, True, "sine"),
        "harmonic must be an integer",
    ),
    "harmonic-low": (lambda: TrigMode(1.0, 0, "sine"), "harmonic must be >= 1, got 0"),
    "harmonic-high": (
        lambda: TrigMode(1.0, 2**53 + 1, "sine"),
        f"harmonic must be <= {2**53}, got {2**53 + 1}",
    ),
    "terms-float": (
        lambda: WeierstrassSpec(0.5, 3, 10.0, "sine"),
        "terms must be an integer",
    ),
    "order-high": (
        lambda: integrate_moment(W1, 2**48 + 1),
        f"moment order must be <= {2**48}",
    ),
    "order-low": (
        lambda: base_moment_closed_form(W1, -(2**48) - 1),
        f"moment order must be >= {-(2**48)}",
    ),
    "j-low": (lambda: vanishing_integral(W1, 0, 0), "sine harmonic j must be >= 1"),
    "count-low": (lambda: MomentSequence.closed_form(W1, 0), "count must be >= 1"),
    "dim-bool": (lambda: hankel_check(SEQ, True), "dim must be an integer"),
    "degree-high": (
        lambda: stieltjes_wigert_check(W1, SEQ, 3),
        "degree 3 needs 7 moments, sequence has 5",
    ),
    "degree-low": (
        lambda: stieltjes_wigert_check(W1, SEQ, 0),
        "degree must be >= 1, got 0",
    ),
    "probes-low": (
        lambda: holder_estimate(SPEC, probes=7),
        "probes must be >= 8, got 7",
    ),
    "samples-float": (
        lambda: holder_estimate(SPEC, samples=64.0),
        "samples must be an integer",
    ),
}


class TestLogSlopeBound:
    def test_overflow_is_inf_not_an_exception(self):
        # (a b)**N = 900**200 passes the float range
        assert weier_modulator(1.0, 0.01, 0.9, 1000, 200).log_slope_bound == math.inf
        # k * k overflows for k above ~1.3e154
        m = trig_modulator(1e200, 0.1, [(1.0, 1, "cosine")])
        assert m.log_slope_bound == math.inf

    def test_finite_cases_keep_their_value(self):
        m = weier_modulator(1.0, 0.5, 0.5, 3, 10)
        s = 1.5 * (1.5**10 - 1.0) / 0.5
        assert m.log_slope_bound == 2.0 * math.pi * s * 2.0
        assert trig_modulator(1e200, 0.1, []).log_slope_bound == 0.0
        ab1 = weier_modulator(2.0, 0.5, 0.5, 2, 7)
        assert ab1.log_slope_bound == 2.0 * math.pi * 7.0 * 8.0


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call, message", INTEGER_REFUSALS.values(), ids=INTEGER_REFUSALS.keys()
    )
    def test_refusal_names_the_bound(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_numpy_integers_and_inclusive_bounds_accepted(self):
        mode = TrigMode(1.0, np.int64(2**53), "sine")
        assert type(mode.harmonic) is int and mode.harmonic == 2**53
        spec = WeierstrassSpec(0.5, np.int32(2), np.int64(1), "cosine")
        assert type(spec.b) is int and type(spec.terms) is int
        top = base_moment_closed_form(W1, 2**48)
        assert top.ln_abs == pytest.approx((2**48 + 1) ** 2 / 4)
        assert base_moment_closed_form(W1, -(2**48)).ln_abs > 0.0
