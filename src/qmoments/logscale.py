"""Signed log-scale reals.

Integrals of the log-normal weight against polynomial moments grow like
``exp((n + 1)**2 / (4 * k**2))`` and overflow float64 well inside the
parameter ranges this package verifies.  A :class:`LogScaled` value stores a
sign in ``{-1, 0, +1}`` together with ``ln(abs(value))``, which keeps every
moment representable.  It is a carrier, with no arithmetic: the rounded
sum in ``ln_abs`` costs about eps * |ln_abs| of the value, so a
quadrature result keeps its mantissa beside its scale instead (see
:class:`~qmoments.quadrature.QuadratureResult`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogScaled"]


@dataclass(frozen=True)
class LogScaled:
    """A real number held as ``sign * exp(ln_abs)``.

    Parameters
    ----------
    sign : int
        One of ``-1``, ``0``, ``+1``.  A zero sign forces ``ln_abs`` to
        ``-inf`` so that zero has a single representation.
    ln_abs : float
        Natural log of the magnitude.  ``-inf`` if and only if the value
        is zero; ``+inf`` and NaN are rejected.
    """

    sign: int
    ln_abs: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {self.sign!r}")
        if math.isnan(self.ln_abs) or self.ln_abs == math.inf:
            raise ValueError(f"ln_abs must be finite or -inf, got {self.ln_abs!r}")
        if self.sign == 0 and self.ln_abs != -math.inf:
            raise ValueError("zero must carry ln_abs == -inf")
        if self.sign != 0 and self.ln_abs == -math.inf:
            object.__setattr__(self, "sign", 0)

    @classmethod
    def zero(cls) -> "LogScaled":
        return cls(0, -math.inf)

    @classmethod
    def from_float(cls, value: float) -> "LogScaled":
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"value must be finite, got {value!r}")
        if value == 0.0:
            return cls.zero()
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    @classmethod
    def exp(cls, ln_value: float, sign: int = 1) -> "LogScaled":
        """Build ``sign * exp(ln_value)`` without evaluating the exponential."""
        if sign == 0:
            return cls.zero()
        return cls(sign, ln_value)

    def to_float(self) -> float:
        """Collapse to float64.  Overflows to ``inf`` past ``ln_abs ~ 709``."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.ln_abs)
        except OverflowError:
            return self.sign * math.inf

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogScaled(0)"
        mantissa = "+" if self.sign > 0 else "-"
        return f"LogScaled({mantissa}exp({self.ln_abs:.17g}))"
