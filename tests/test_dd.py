import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmoments import _dd

from oracles import dd_log_series


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
        # Every reachable table point c = i/128 and the cell edges c -+ 1/256,
        # where |z| is largest; also shifted by powers of two so that the
        # e*ln2 step is exercised with each cell.
        c = np.arange(91, 182) / 128.0
        xs = np.concatenate([c, c - 1 / 256, c + 1 / 256])
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


class TestFolding:
    def test_frac_basic(self):
        h, l = _dd.dd_frac(np.float64(2.75), np.float64(0.0))
        assert h == 0.75 and l == 0.0

    def test_frac_negative(self):
        h, l = _dd.dd_frac(np.float64(-0.25), np.float64(0.0))
        assert h == 0.75

    def test_frac_just_below_integer(self):
        # 3 - 1e-20 held as (3.0, -1e-20): frac must be ~1 - 1e-20, not
        # negative.  Range is a property of the represented value, so the
        # hi word alone may equal 1.0 here.
        h, l = _dd.dd_frac(np.float64(3.0), np.float64(-1e-20))
        total = mpmath.mpf(float(h)) + mpmath.mpf(float(l))
        assert 0 <= total < 1
        assert abs(total - (1 - mpmath.mpf("1e-20"))) < mpmath.mpf("1e-35")

    def test_frac_just_above_zero_stays_tiny(self):
        h, l = _dd.dd_frac(np.float64(5.0), np.float64(1e-21))
        total = mpmath.mpf(float(h)) + mpmath.mpf(float(l))
        assert abs(total - mpmath.mpf("1e-21")) < mpmath.mpf("1e-37")

    def test_fold_harmonic_chain_matches_mpmath(self):
        # frac(b**n * u) after n folds, checked at 40 digits.
        u = mpmath.mpf(2) / 7
        wh, wl = _dd.dd_frac(np.float64(2.0 / 7.0), np.float64(-(2.0 / 7.0 - float(u))))
        wh, wl = np.float64(wh), np.float64(wl)
        # Rebuild the exact start from the float pair actually used.
        u_exact = mpmath.mpf(float(wh)) + mpmath.mpf(float(wl))
        b = 3
        for n in range(1, 21):
            wh, wl = _dd.fold_harmonic(wh, wl, b)
            exact = (u_exact * mpmath.mpf(b) ** n) % 1
            assert mp_err(wh, wl, exact) < mpmath.mpf(10) ** (-25)

    def test_exp_to_double_large_argument(self):
        # exp(500 + tiny) should keep ~1e-16 relative accuracy.
        arg = mpmath.mpf(500) + mpmath.mpf("1.3e-14")
        got = _dd.dd_exp_to_double(np.float64(500.0), np.float64(1.3e-14))
        rel = abs(mpmath.mpf(float(got)) / mpmath.exp(arg) - 1)
        assert rel < mpmath.mpf(5e-16)
