import math

import pytest
from hypothesis import example, given, strategies as st

from qmoments import LogScaled

EPS = 2.220446049250313e-16

finite_vals = st.floats(
    min_value=-1e250, max_value=1e250, allow_nan=False, allow_infinity=False
).filter(lambda v: v == 0.0 or abs(v) > 1e-250)


class TestConstruction:
    def test_zero_is_canonical(self):
        z = LogScaled.zero()
        assert z.sign == 0
        assert z.ln_abs == -math.inf
        assert z.is_zero()
        assert LogScaled.from_float(0.0) == z
        assert LogScaled(1, -math.inf) == z

    def test_from_float_roundtrip(self):
        # Roundtrip relative error scales with |ln v| * eps, inherent to
        # the representation.
        for v in (1.0, -2.5, 1e-200, -1e200, math.pi):
            back = LogScaled.from_float(v).to_float()
            tol = max(4e-16, abs(math.log(abs(v))) * 3e-16)
            assert back == pytest.approx(v, rel=tol)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            LogScaled(2, 0.0)
        with pytest.raises(ValueError):
            LogScaled(1, math.nan)
        with pytest.raises(ValueError):
            LogScaled(1, math.inf)
        with pytest.raises(ValueError):
            LogScaled(0, 0.0)
        with pytest.raises(ValueError):
            LogScaled.from_float(math.inf)

    def test_exp_constructor_beyond_float_range(self):
        big = LogScaled.exp(2000.0)
        assert big.sign == 1
        assert big.ln_abs == 2000.0
        assert (big / LogScaled.exp(1999.0)).to_float() == pytest.approx(math.e)


class TestArithmetic:
    def test_mul_tracks_signs(self):
        a = LogScaled.from_float(-3.0)
        b = LogScaled.from_float(2.0)
        assert (a * b).to_float() == pytest.approx(-6.0)
        assert (a * a).to_float() == pytest.approx(9.0)
        assert (a * LogScaled.zero()).is_zero()

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            LogScaled.from_float(1.0) / LogScaled.zero()

    def test_add_cancellation_exact_negation(self):
        a = LogScaled.from_float(5.0)
        assert (a + (-a)).is_zero()

    def test_add_huge_magnitudes(self):
        a = LogScaled.exp(5000.0)
        b = LogScaled.exp(5000.0 + math.log(2.0))
        s = a + b
        assert s.sign == 1
        # exp(5000) * 3
        assert s.ln_abs == pytest.approx(5000.0 + math.log(3.0), abs=1e-14)

    def test_sub_nearby(self):
        a = LogScaled.from_float(1.0 + 1e-9)
        b = LogScaled.from_float(1.0)
        d = a - b
        assert d.to_float() == pytest.approx(1e-9, rel=1e-6)

    @given(x=finite_vals, y=finite_vals)
    @example(x=9.999999999992014e249, y=-9.999453752082162e249)  # cancels 4 digits
    def test_add_matches_float(self, x, y):
        a = LogScaled.from_float(x) + LogScaled.from_float(y)
        expected = x + y
        if expected == 0.0:
            # Catastrophic float cancellation; the log-scale result may
            # retain more information, so only bound it by the inputs.
            assert a.is_zero() or a.ln_abs <= math.log(
                max(abs(x), abs(y), 1e-300)
            ) + 1e-9
        else:
            # each ln|v| rounds by ~eps |ln v|, i.e. by that share of |v|,
            # and cancellation keeps that error while it shrinks the sum:
            # bound it by the inputs, not by the sum
            big = max(abs(x), abs(y))
            tol = 4 * EPS * (abs(x) + abs(y)) * (1.0 + abs(math.log(big)))
            assert abs(a.to_float() - expected) <= tol

    @given(x=finite_vals.filter(lambda v: v != 0.0), y=finite_vals.filter(lambda v: v != 0.0))
    def test_mul_div_inverse(self, x, y):
        a = LogScaled.from_float(x)
        b = LogScaled.from_float(y)
        # ln_abs of the product can reach ~1150, so the add/sub rounding
        # allows up to ~ 1150 * eps relative drift.
        assert ((a * b) / b).rel_deviation_from(a) < 5e-13


class TestComparisons:
    def test_rel_deviation_tiny(self):
        a = LogScaled(1, 100.0)
        b = LogScaled(1, 100.0 + 3e-13)
        assert a.rel_deviation_from(b) == pytest.approx(3e-13, rel=1e-3)

    def test_rel_deviation_sign_flip_is_large(self):
        a = LogScaled(-1, 0.0)
        b = LogScaled(1, 0.0)
        assert a.rel_deviation_from(b) == pytest.approx(2.0)

    def test_ratio_to(self):
        a = LogScaled.exp(10.0)
        b = LogScaled.exp(8.0, sign=-1)
        assert a.ratio_to(b) == pytest.approx(-math.exp(2.0))

    def test_to_float_saturates_instead_of_raising(self):
        assert LogScaled.exp(3430.6).to_float() == math.inf
        assert LogScaled.exp(3430.6, sign=-1).to_float() == -math.inf
        assert LogScaled.exp(-1e5).to_float() == 0.0
