"""q-difference operators and the q-Pearson identity.

Sign convention
---------------
The q-derivative used throughout is

    (D_q g)(x) = (g(x) - g(q*x)) / ((q - 1) * x),

with ``0 < q < 1``.  Applied to the identity function it gives exactly
``(x - q*x) / ((q - 1) * x) = -1``: the operator as written carries a
minus sign relative to the difference quotient that tends to ``g'(x)``
as ``q -> 1``.  Callers who want the classical limit should negate.  The
package keeps the convention literal rather than silently "fixing" it,
and :func:`q_derivative` documents itself through the
``D_q(identity) == -1`` check in the test suite.

q-periodic modulators satisfy ``g(q*x) = g(x)``, so ``D_q g = 0``
identically; this annihilation is what makes the perturbed densities
share every integer moment with the base weight.  For a modulator at its
own q, :func:`q_derivative` takes g(q*x) from ``ln x + ln q`` in
double-double, so no rounded ``q*x`` enters.

The weight itself satisfies the q-Pearson difference equation

    f(q*x) = sqrt(q) * x * f(x),

which substitutes for the usual Pearson ODE of a classical weight.  Both
sides are computed here from one shared compensated logarithm of x, so
the residual reported by :func:`q_pearson_residual` reflects the identity
itself rather than float64 phase loss; the evaluation noise floor is a
few 1e-16 relative to local scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import _dd
from .measures import (
    LogNormalWeight,
    Modulator,
    PerturbedDensity,
    _as_positive_array,
    _lnq_dd,
    _modulator_from_log_dd,
    _INV_SQRT_PI,
)

__all__ = [
    "QDerivativeSample",
    "q_derivative",
    "q_pearson_residual",
]


@dataclass(frozen=True)
class QDerivativeSample:
    """One evaluation of a q-derivative, kept for reporting."""

    x: float
    q: float
    value: float


def q_derivative(g: Callable, x, q: float):
    """``(g(x) - g(q*x)) / ((q - 1) * x)`` for scalar or array x.

    ``g`` is any callable accepting the same shape as x.  Note the sign:
    this evaluates to -1 for the identity map, and to -g'(x) in the
    q -> 1 limit for differentiable g.

    A :class:`Modulator` at its own q (``q == g.weight.q``) takes g(q*x)
    from the double-double sum ``ln x + ln q`` and its one ``ln x``; the
    sum stays numerical, no whole turn is added.  Any other callable, or
    any other q, is evaluated at the float64 product ``q*x``.
    """
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1), got {q!r}")
    arr, scalar = _as_positive_array(x)
    if isinstance(g, Modulator) and q == g.weight.q:
        th, tl = _dd.dd_log(arr)
        sh, sl = _dd.dd_add(th, tl, *_lnq_dd(g.weight.k))
        g_x = _modulator_from_log_dd(g, th, tl)
        val = (g_x - _modulator_from_log_dd(g, sh, sl)) / ((q - 1.0) * arr)
    else:
        val = (g(arr) - g(q * arr)) / ((q - 1.0) * arr)
    if scalar:
        return QDerivativeSample(float(arr[0]), q, float(val[0]))
    return val


def _weight_terms_dd(k: float, th, tl):
    """exp(-(k*t)**2) from a dd log t, at ~eps relative accuracy.

    Scaling by k before squaring keeps (k*t)**2 finite where t**2 alone
    would overflow, as t = ln(q*x) does for k below about 1e-77.
    """
    sh, sl = _dd.dd_mul_d(th, tl, k)
    ah, al = _dd.dd_sq(sh, sl)
    return _dd.dd_exp_to_double(-ah, -al)


def q_pearson_residual(obj, x, q: float | None = None):
    """Residual of ``p(q*x) - sqrt(q) * x * p(x)``, scalar or array x.

    For the base weight the identity is exact; for a perturbed density it
    holds exactly as well because the modulator is q-periodic.  Both sides
    are assembled from one shared compensated ``ln x``, so a nonzero
    residual beyond a few 1e-16 of the local scale ``f(q*x)`` indicates an
    object that genuinely violates the identity, not rounding.

    A plain callable may be passed together with an explicit ``q``; it is
    evaluated directly in float64, which is enough to expose gross
    violations (e.g. a non-integer harmonic, which is not q-periodic).
    Weight and density objects must not pass ``q``: theirs is implied.
    """
    if isinstance(obj, LogNormalWeight):
        weight, modulator = obj, None
    elif isinstance(obj, PerturbedDensity):
        weight, modulator = obj.weight, obj.modulator
    elif callable(obj):
        if q is None:
            raise ValueError("a plain callable needs an explicit q")
        q = float(q)
        if not (0.0 < q < 1.0):
            raise ValueError(f"q must lie strictly inside (0, 1), got {q!r}")
        arr, scalar = _as_positive_array(x)
        out = obj(q * arr) - math.sqrt(q) * arr * obj(arr)
        return float(out[0]) if scalar else out
    else:
        raise ValueError(
            f"expected a LogNormalWeight, PerturbedDensity, or callable, got {obj!r}"
        )
    if q is not None:
        raise ValueError("q is implied by the weight; do not pass it")
    arr, scalar = _as_positive_array(x)
    k = weight.k
    th, tl = _dd.dd_log(arr)
    # ln(q*x) = ln x + ln q with ln q itself held in dd; a merely rounded
    # ln q would shift the modulator phase by eps/2, which harmonic
    # folding amplifies by b**n.
    lnq_h, lnq_l = _lnq_dd(k)
    sh, sl = _dd.dd_add(th, tl, lnq_h, lnq_l)

    f_qx = (k * _INV_SQRT_PI) * _weight_terms_dd(k, sh, sl)
    f_x = (k * _INV_SQRT_PI) * _weight_terms_dd(k, th, tl)
    if modulator is not None:
        lam = modulator.lam
        f_qx = f_qx * (1.0 + lam * _modulator_from_log_dd(modulator, sh, sl))
        f_x = f_x * (1.0 + lam * _modulator_from_log_dd(modulator, th, tl))
    sqrt_q = _dd.dd_exp_to_double(0.5 * lnq_h, 0.5 * lnq_l)
    out = f_qx - sqrt_q * arr * f_x
    return float(out[0]) if scalar else out
