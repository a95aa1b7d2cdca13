import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmoments import _dd

from oracles import dd_angle, dd_fold_harmonic, dd_frac, dd_log_series


mpmath.mp.dps = 50


def mp_err(hi, lo, exact):
    """Absolute error of the pair hi+lo against an mpmath reference."""
    return abs(mpmath.mpf(float(hi)) + mpmath.mpf(float(lo)) - exact)


class TestErrorFreeTransforms:
    @given(
        a=st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
        b=st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
    )
    def test_two_sum_exact(self, a, b):
        s, e = _dd.two_sum(a, b)
        assert mpmath.mpf(s) + mpmath.mpf(e) == mpmath.mpf(a) + mpmath.mpf(b)

    # two_prod is error-free only while a*b stays clear of the subnormal
    # range; actual arguments here are logs (|.| <= 745) and phases.
    @given(
        a=st.floats(min_value=1e-4, max_value=1e8, allow_nan=False),
        b=st.floats(min_value=1e-4, max_value=1e8, allow_nan=False),
        sa=st.sampled_from([-1.0, 1.0]),
        sb=st.sampled_from([-1.0, 1.0]),
    )
    def test_two_prod_exact(self, a, b, sa, sb):
        p, e = _dd.two_prod(sa * a, sb * b)
        assert mpmath.mpf(p) + mpmath.mpf(e) == mpmath.mpf(sa * a) * mpmath.mpf(sb * b)

    def test_vectorized_matches_scalar(self):
        a = np.array([1.0, 1e15, -3.7, 0.1])
        b = np.array([1e-16, -1.0, 3.7, 0.2])
        s, e = _dd.two_sum(a, b)
        for i in range(a.size):
            si, ei = _dd.two_sum(float(a[i]), float(b[i]))
            assert s[i] == si and e[i] == ei


class TestDDArithmetic:
    @given(
        x=st.floats(min_value=0.01, max_value=1e10),
        y=st.floats(min_value=0.01, max_value=1e10),
    )
    @settings(max_examples=200)
    def test_div_accuracy(self, x, y):
        h, l = _dd.dd_div(x, 0.0, y, 0.0)
        exact = mpmath.mpf(x) / mpmath.mpf(y)
        assert mp_err(h, l, exact) < abs(exact) * mpmath.mpf(2) ** -100

    def test_mul_d_accuracy(self):
        xh, xl = _dd.dd_div(1.0, 0.0, 3.0, 0.0)
        h, l = _dd.dd_mul_d(xh, xl, 3.0)
        assert mp_err(h, l, mpmath.mpf(1)) < mpmath.mpf(2) ** -99

    def test_sq_matches_mul(self):
        xh, xl = _dd.dd_div(2.0, 0.0, 7.0, 0.0)
        h1, l1 = _dd.dd_sq(xh, xl)
        h2, l2 = _dd.dd_mul(xh, xl, xh, xl)
        assert h1 == h2
        assert abs(l1 - l2) < 1e-33


class TestDDLog:
    def test_log_of_one_is_zero(self):
        h, l = _dd.dd_log(1.0)
        assert h == 0.0 and l == 0.0

    def test_log_of_two(self):
        h, l = _dd.dd_log(2.0)
        assert h == _dd.LN2_HI
        assert l == pytest.approx(_dd.LN2_LO, abs=1e-26)

    @given(x=st.floats(min_value=1e-300, max_value=1e300))
    @settings(max_examples=300)
    def test_log_vs_mpmath(self, x):
        h, l = _dd.dd_log(x)
        exact = mpmath.log(mpmath.mpf(x))
        # Budget: ~1e-32 relative against a bound of 1 for small logs.
        assert mp_err(h, l, exact) < mpmath.mpf(1e-29) * max(1.0, abs(float(exact)))

    def test_log_vectorized(self):
        xs = np.array([0.5, 1.0, 3.0, 1e-3, 1e3, 7.25e88])
        h, l = _dd.dd_log(xs)
        for i, x in enumerate(xs):
            exact = mpmath.log(mpmath.mpf(float(x)))
            assert mp_err(h[i], l[i], exact) < 1e-28


# The budget of the table-driven log over the whole positive float64 range.
LOG_BUDGET = mpmath.mpf(1e-31)


def assert_log_within_budget(xs):
    h, l = _dd.dd_log(xs)
    for i, x in enumerate(xs):
        exact = mpmath.log(mpmath.mpf(float(x)))
        err = mp_err(h[i], l[i], exact)
        assert err < LOG_BUDGET * max(1.0, abs(float(exact))), float(x)


class TestDDLogTable:
    def test_table_cells_centre_and_edges(self):
        # Every reachable table point c = i/1024 and the cell edges
        # c -+ 1/2048, where |z| is largest, plus the points and edges of the
        # replaced 1/128 table; also shifted by powers of two so that the
        # e*ln2 step is exercised with each cell.
        c, old = np.arange(724, 1449) / 1024.0, np.arange(91, 182) / 128.0
        xs = np.concatenate([c, c - 1 / 2048, c + 1 / 2048, old - 1 / 256, old + 1 / 256])
        assert_log_within_budget(xs)
        assert_log_within_budget(np.ldexp(xs, 700))
        assert_log_within_budget(np.ldexp(xs, -1000))

    def test_special_points(self):
        s = _dd._SQRT_HALF
        xs = np.array(
            [
                s,
                np.nextafter(s, 0.0),
                np.nextafter(s, 1.0),
                np.nextafter(1.0, 0.0),
                np.nextafter(1.0, 2.0),
                5e-324,
                2.2e-308,
                1.79e308,
                np.finfo(np.float64).max,
            ]
        )
        assert_log_within_budget(xs)

    def test_near_one_is_relatively_accurate(self):
        for x in (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.0 + 1e-9):
            h, l = _dd.dd_log(x)
            exact = mpmath.log(mpmath.mpf(float(x)))
            assert mp_err(h, l, exact) < LOG_BUDGET * abs(exact)

    def test_powers_of_two(self):
        j = np.arange(-1074, 1024)
        h, l = _dd.dd_log(np.ldexp(1.0, j))
        for ji, hi, lo in zip(j, h, l):
            exact = int(ji) * mpmath.log(2)
            assert mp_err(hi, lo, exact) < LOG_BUDGET * max(1, abs(float(exact)))

    @given(x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @settings(max_examples=400)
    def test_full_range_vs_mpmath_and_replaced_series(self, x):
        h, l = _dd.dd_log(x)
        exact = mpmath.log(mpmath.mpf(x))
        budget = LOG_BUDGET * max(1.0, abs(float(exact)))
        assert mp_err(h, l, exact) < budget
        sh, sl = dd_log_series(x)
        old = mpmath.mpf(float(sh)) + mpmath.mpf(float(sl))
        assert mp_err(h, l, old) < budget


def words(w, i=0):
    """The integer W = w1 * 2**64 + w0 of entry i of a phase."""
    return int(w[0].flat[i]) << 64 | int(w[1].flat[i])


def phase_of(value):
    """The 128-bit phase of an exact value in [0, 1), as a pair of arrays."""
    n = int(value * 2**128)
    return (np.array([n >> 64], dtype=np.uint64),
            np.array([n & (2**64 - 1)], dtype=np.uint64))


def circle_err(got, exact):
    """Distance on the unit circle between a phase's words and an exact value."""
    d = abs(Fraction(got, 2**128) - exact)
    return min(d, 1 - d)


def angle_err(theta, w_exact):
    """|theta - 2 pi w| in mpmath, with w an exact Fraction."""
    with mpmath.workdps(60):
        ref = 2 * mpmath.pi * mpmath.mpf(w_exact.numerator) / w_exact.denominator
        return abs(mpmath.mpf(float(theta)) - ref)


# The angle is one float64 near [0, 2 pi]: half an ulp of its final
# rounding plus the roundings inside, within one ulp of 2 pi.
ANGLE_TOL = 2.0**-50


class TestFolding:
    """The old dd_frac cases, as inputs of the fixed-point phase."""

    def test_frac_basic(self):
        w = _dd.phase_from_dd(np.float64(2.75), np.float64(0.0))
        assert (int(w[0][0]), int(w[1][0])) == (3 << 62, 0)
        assert dd_frac(np.float64(2.75), np.float64(0.0)) == (0.75, 0.0)

    def test_frac_negative(self):
        w = _dd.phase_from_dd(np.float64(-0.25), np.float64(0.0))
        assert words(w) == 3 << 126
        assert dd_frac(np.float64(-0.25), np.float64(0.0))[0] == 0.75

    def test_frac_just_below_integer(self):
        # 3 - 1e-20 held as (3.0, -1e-20): the phase is the 128-bit
        # fraction of 1 - 1e-20, below 1 in both words.
        w = _dd.phase_from_dd(np.float64(3.0), np.float64(-1e-20))
        exact = 1 + Fraction(-1e-20)
        assert words(w) < 2**128
        assert abs(Fraction(words(w), 2**128) - exact) <= Fraction(1, 2**127)
        h, l = dd_frac(np.float64(3.0), np.float64(-1e-20))
        assert abs(Fraction(float(h)) + Fraction(float(l)) - exact) < 1e-35

    def test_frac_just_above_zero_stays_tiny(self):
        w = _dd.phase_from_dd(np.float64(5.0), np.float64(1e-21))
        assert abs(Fraction(words(w), 2**128) - Fraction(1e-21)) <= Fraction(1, 2**127)
        assert angle_err(_dd.phase_angle(w)[0], Fraction(1e-21)) < 1e-36

    def test_fold_harmonic_chain_matches_mpmath(self):
        # frac(3**n * u) after n folds, from the phase of the dd value
        # nearest 2/7; checked at 60 digits and against the replaced path.
        uh = 2.0 / 7.0
        ul = float(mpmath.mpf(2) / 7 - mpmath.mpf(uh))
        w = _dd.phase_from_dd(np.float64(uh), np.float64(ul))
        w0 = Fraction(words(w), 2**128)
        assert abs(w0 - (Fraction(uh) + Fraction(ul))) <= Fraction(1, 2**127)
        oh, ol = dd_frac(np.float64(uh), np.float64(ul))
        for n in range(1, 21):
            w = _dd.fold_harmonic(w, 3)
            assert words(w) == words(phase_of(w0)) * 3**n % 2**128
            theta = _dd.phase_angle(w)[0]
            assert angle_err(theta, w0 * 3**n % 1) < ANGLE_TOL
            oh, ol = dd_fold_harmonic(oh, ol, 3)
            old = float(dd_angle(oh, ol))
            assert abs(theta - old) < 1e-15

    def test_exp_to_double_large_argument(self):
        # exp(500 + tiny) should keep ~1e-16 relative accuracy.
        arg = mpmath.mpf(500) + mpmath.mpf("1.3e-14")
        got = _dd.dd_exp_to_double(np.float64(500.0), np.float64(1.3e-14))
        rel = abs(mpmath.mpf(float(got)) / mpmath.exp(arg) - 1)
        assert rel < mpmath.mpf(5e-16)


HARMONICS = [1, 3**10, 2**32 - 1, 2**32 + 1, 2**53]
# w next to 0 and next to 1, at both word boundaries, and two generic words
EDGE_WORDS = [1, 2**64 - 1, 2**64, 2**128 - 2**64, 2**128 - 1,
              0x243F6A8885A308D313198A2E03707344, 0xA4093822299F31D0082EFA98EC4E6C89]


def dd_pair(x):
    """(hi, lo) of an exact Fraction: hi its nearest double, lo the next."""
    hi = float(x)
    return hi, float(x - Fraction(hi))


class TestFixedPointPhase:
    @pytest.mark.parametrize("h", HARMONICS)
    def test_fold_is_exact_and_its_angle_matches_mpmath(self, h):
        n = len(EDGE_WORDS)
        w = (np.array([v >> 64 for v in EDGE_WORDS], dtype=np.uint64),
             np.array([v & (2**64 - 1) for v in EDGE_WORDS], dtype=np.uint64))
        by_int = _dd.fold_harmonic(w, h)
        # the uint64 array harmonic of the quadrature anchors, broadcast
        wc = (w[0][:, None], w[1][:, None])
        by_array = _dd.fold_harmonic(wc, np.array([h, 1], dtype=np.uint64))
        theta = _dd.phase_angle(by_int)
        for i, v in enumerate(EDGE_WORDS):
            want = v * h % 2**128
            assert words(by_int, i) == want
            assert words((by_array[0][:, 0], by_array[1][:, 0]), i) == want
            assert words((by_array[0][:, 1], by_array[1][:, 1]), i) == v
            assert angle_err(theta[i], Fraction(want, 2**128)) < ANGLE_TOL
        assert theta.shape == (n,)

    def test_two_word_harmonic_array(self):
        # harmonics past 2**64, as the roughness scans build them mod 2**128
        hs = [1, 2**53, 2**64 - 1, 2**64 + 1, 3**72, 5**50 % 2**128, 2**128 - 1]
        h = (np.array([v >> 64 for v in hs], dtype=np.uint64),
             np.array([v & (2**64 - 1) for v in hs], dtype=np.uint64))
        w = (np.array([v >> 64 for v in EDGE_WORDS], dtype=np.uint64)[:, None],
             np.array([v & (2**64 - 1) for v in EDGE_WORDS], dtype=np.uint64)[:, None])
        f1, f0 = _dd.fold_harmonic(w, h)
        assert f1.shape == (len(EDGE_WORDS), len(hs))
        for i, v in enumerate(EDGE_WORDS):
            for j, hj in enumerate(hs):
                assert words((f1[:, j], f0[:, j]), i) == v * hj % 2**128
                assert words(_dd.fold_harmonic(phase_of(Fraction(v, 2**128)), hj)) \
                    == v * hj % 2**128

    def test_angle_next_to_zero_and_one(self):
        theta = _dd.phase_angle(phase_of(Fraction(1, 2**128)))[0]
        assert angle_err(theta, Fraction(1, 2**128)) < 1e-52
        top = Fraction(2**128 - 1, 2**128)
        theta = _dd.phase_angle(phase_of(top))[0]
        assert angle_err(theta, top) < ANGLE_TOL
        assert math.sin(theta) < 0.0

    @pytest.mark.parametrize("x", [
        (2.75, 0.0), (-0.25, 0.0), (3.0, -1e-20), (5.0, 1e-21), (-5.0, 1e-21),
        (-1e-30, -2.5e-47), (0.1, -5e-18), (-0.1, 5e-18),
        # |uh| >= 2**53: the whole fraction is in the lo word
        (2.0**53, 0.375), (2.0**60 + 2.0**8, -0.3), (-(2.0**70), 123.456),
        (1e300, -0.7),
    ])
    @pytest.mark.parametrize("h", HARMONICS)
    def test_dd_input_to_angle_matches_mpmath(self, x, h):
        xh, xl = x
        exact = (Fraction(xh) + Fraction(xl)) % 1
        w = _dd.phase_from_dd(np.float64(xh), np.float64(xl))
        assert circle_err(words(w), exact) <= Fraction(1, 2**127)
        folded = _dd.fold_harmonic(w, h)
        assert words(folded) == words(w) * h % 2**128
        # the conversion's 2**-127 grows by h before the angle sees it
        err = angle_err(_dd.phase_angle(folded)[0], h * exact % 1)
        d = min(err, abs(err - 2 * mpmath.pi))
        assert d < ANGLE_TOL + 2 * math.pi * h * 2.0**-127

    @given(
        xh=st.floats(min_value=-1e25, max_value=1e25, allow_nan=False),
        r=st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=300)
    def test_conversion_matches_exact_fraction(self, xh, r):
        # lo within half an ulp of hi, as a normalised dd pair has it
        xl = r * math.ulp(xh)
        exact = (Fraction(xh) + Fraction(xl)) % 1
        w = _dd.phase_from_dd(np.array([xh]), np.array([xl]))
        assert circle_err(words(w), exact) <= Fraction(1, 2**127)

    def test_scalar_inputs_raise_no_warning(self):
        # numpy scalar uint64 products warn when they wrap; array products
        # do not, so phases stay at least 1-d whatever the input.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xh, xl in [(np.float64(-0.25), np.float64(0.0)), (0.3, 1e-17),
                           (np.array(0.7), np.array(-2e-17))]:
                w = _dd.phase_from_dd(xh, xl)
                assert w[0].shape == (1,)
                for h in (2**53, 2**60 + 1, 3**80):
                    folded = _dd.fold_harmonic(w, h)
                    assert words(folded) == words(w) * h % 2**128
                    assert np.isfinite(_dd.phase_angle(folded)).all()

    @pytest.mark.parametrize("b", [2, 3, 7, 1000, 2**60 + 1])
    def test_iterated_and_direct_folding_agree_bit_for_bit(self, b):
        x = np.linspace(-3.0, 3.0, 41)
        w = _dd.phase_from_dd(x, x * 1e-17)
        iterated = w
        for j in range(1, 35):
            iterated = _dd.fold_harmonic(iterated, b)
            direct = _dd.fold_harmonic(w, b**j)
            assert np.array_equal(iterated[0], direct[0])
            assert np.array_equal(iterated[1], direct[1])

    @given(
        u=st.floats(min_value=-50.0, max_value=50.0),
        h=st.sampled_from([1, 2, 3, 7, 3**5, 3**10]),
    )
    @settings(max_examples=200)
    def test_matches_replaced_dd_path(self, u, h):
        uh, ul = dd_pair(Fraction(u) / 3)
        w = _dd.phase_from_dd(np.array([uh]), np.array([ul]))
        theta = _dd.phase_angle(_dd.fold_harmonic(w, h))[0]
        oh, ol = dd_fold_harmonic(*dd_frac(np.array([uh]), np.array([ul])), h)
        old = float(dd_angle(oh, ol)[0])
        # the replaced fold rounds h * w at ~1e-32 relative
        d = abs(theta - old)
        assert min(d, 2 * math.pi - d) < 2e-15


def random_words(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False),
            rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False))


class TestShortFold:
    @pytest.mark.parametrize("h", [1, 3**10, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                                   2**127 + 1])
    def test_short_fold_equals_general_fold(self, h):
        # a Python int below 2**32 takes the one-limb path; the pair of
        # words (h1, h0) always takes the general one
        w = random_words(2000, h % 1000)
        pair = (np.uint64(h >> 64 & 2**64 - 1), np.uint64(h & 2**64 - 1))
        short, general = _dd.fold_harmonic(w, h), _dd.fold_harmonic(w, pair)
        assert np.array_equal(short[0], general[0])
        assert np.array_equal(short[1], general[1])
        for i in range(0, 2000, 97):
            assert words(short, i) == words(w, i) * h % 2**128


def trig_reference(w, cosine):
    with mpmath.workdps(40):
        f = mpmath.cos if cosine else mpmath.sin
        return [f(2 * mpmath.pi * mpmath.mpf(words(w, i)) / 2**128)
                for i in range(w[0].size)]


class TestPhaseSin:
    def phases(self):
        # random words, every table edge and the word just below it, 0 and
        # 1 - 2**-128
        rw = random_words(5000, 7)
        edges = [j << 120 for j in range(256)] + [(j << 120) - 1 for j in range(1, 256)]
        edges += [0, 2**128 - 1]
        ew = (np.array([v >> 64 for v in edges], dtype=np.uint64),
              np.array([v & 2**64 - 1 for v in edges], dtype=np.uint64))
        return (np.concatenate([rw[0], ew[0]]), np.concatenate([rw[1], ew[1]]))

    @pytest.mark.parametrize("cosine", [False, True])
    def test_no_worse_than_angle_and_numpy_trig(self, cosine):
        w = self.phases()
        top = w[0] + np.uint64(2**62) if cosine else w[0]
        got = _dd.phase_sin(top)
        theta = _dd.phase_angle(w)
        old = np.cos(theta) if cosine else np.sin(theta)
        ref = trig_reference(w, cosine)
        err = max(abs(mpmath.mpf(float(g)) - r) for g, r in zip(got, ref))
        old_err = max(abs(mpmath.mpf(float(g)) - r) for g, r in zip(old, ref))
        assert err <= old_err
        assert err < 2.5e-16
