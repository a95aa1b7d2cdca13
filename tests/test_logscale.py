import math

import pytest

from qmoments import LogScaled


class TestConstruction:
    def test_zero_is_canonical(self):
        z = LogScaled.zero()
        assert z.sign == 0
        assert z.ln_abs == -math.inf
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
        assert big.to_float() == math.inf
        assert LogScaled.exp(2000.0, sign=0) == LogScaled.zero()


class TestComparisons:
    def test_to_float_saturates_instead_of_raising(self):
        assert LogScaled.exp(3430.6).to_float() == math.inf
        assert LogScaled.exp(3430.6, sign=-1).to_float() == -math.inf
        assert LogScaled.exp(-1e5).to_float() == 0.0
