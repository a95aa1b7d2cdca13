"""High-precision quadrature for moment and vanishing-integral checks.

Every check in this package reduces to integrals of the form

    integral over (0, inf) of f(x) * x**n * Phi(ln x) dx,

with f the log-normal weight and Phi either 1, a q-periodic modulator, or
a single sine harmonic.  Substituting ``t = ln x`` and centering at the
stationary point ``mu = (n + 1) / (2 k**2)`` turns this into

    exp(sigma) * integral of exp(-k**2 s**2 + c0 + c1 s) * Phi(mu + s) ds,

with ``sigma = (n + 1)**2 / (4 k**2)``.  The factor ``exp(sigma)`` is
carried symbolically (see :class:`~qmoments.logscale.LogScaled`).  As k
is a binary fraction, mu, sigma and the centering residuals c0 and c1
are exact rationals, formed in integers and rounded once each; c0 and c1
are O(eps * sigma), so the kernel integrand is O(1) and accurate to a
few eps however large the moments grow.

Design points
-------------
* Every component (the base weight, each sine and each cosine harmonic)
  uses the same smooth panel grid: panels of width <= 0.75/k with 32
  Gauss-Legendre nodes each, so the cost of a component does not depend
  on its harmonic.  Oscillatory panels use Filon weights (Iserles &
  Norsett 2005): the envelope's degree-31 interpolant at the nodes is
  integrated against ``exp(i a x)`` exactly, through
  ``integral_{-1}^{1} P_l(x) exp(i a x) dx = 2 i**l j_l(a)`` (DLMF 10.60),
  with ``a = omega * half`` the same on every panel of a pass.  At
  ``a = 0`` the weights are the Gauss-Legendre weights themselves.  The
  error estimate comes from an independent second pass at 1.5x the panel
  count, never from the tolerance the caller asked for, plus a bound on
  the rounding of the Filon weights.
* Oscillatory phases are anchored per panel in exact integers: ln q is
  -1/(2 k**2) by definition, so (mu + c) / ln q = -2 k**2 (mu + c) is a
  binary fraction of doubles that each harmonic folds mod 1, with no
  rounded ln q, and each order's anchors come from its own mu, never
  from mu / ln q = -(n + 1).  The integer-harmonic structure is *not*
  used to reduce phases symbolically: the sine integrals must be seen to
  vanish by honest numerical evaluation (cancellation across panels),
  not by an identity baked into the evaluator.
* One call evaluates both passes and all components of an integral
  (the base weight and every harmonic of a modulator, Weierstrass terms
  included) for a block of moment orders.  The panel grid and the Filon
  weights depend on k, T and the harmonic only, so a block plans and
  computes them once; each order keeps its own envelope, anchors, sums
  and error terms, and equals the one-order call bit for bit.  Nothing
  is cached, so no result is shared across moment orders n: the
  n-independence of the modulator factor is a claim under test.
* Three error components are recorded separately: quadrature refinement
  (plus the eps * sigma granularity of the log-scaled value), Gaussian
  domain truncation, and (for Weierstrass content) the dropped series
  tail.  The first two bound the deviation from the exact integral of
  the *constructed, truncated* object and form ``error_estimate``; the
  series component measures distance to the untruncated limit object and
  is reported alongside, not mixed in.
* Every integral is planned up front, and the plan builds the panel
  grids of both passes.  A harmonic above 2**53, a k with no finite
  double-double ln q, an order whose eps * sigma reaches 1 (see
  :func:`_plan_components`) or a plan above the node budget raises
  :class:`BudgetExceededError` rather than silently under-resolving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._dd import phase_angle_split
from .logscale import LogScaled
from .measures import (
    _MAX_HARMONIC,
    BudgetExceededError,
    LogNormalWeight,
    Modulator,
    PerturbedDensity,
    WeierstrassSpec,
    _check_int,
    _lnq_dd,
)

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "BudgetExceededError",
    "integrate_moment",
    "vanishing_integral",
    "base_moment_closed_form",
    "modulator_moment_factor",
    "MOMENT_SIGN_NOTE",
]

MOMENT_SIGN_NOTE = (
    "Moment convention: the n-th integer moment of the base weight is "
    "exp(+(n+1)**2 / (4*k**2)), equivalently q**(-(n+1)**2/2) with "
    "q = exp(-1/(2*k**2)). The same closed form is sometimes quoted with "
    "the opposite exponent sign, q**(+(n+1)**2/2); direct quadrature "
    "rejects that variant, and the moment and ratio checks in this report "
    "pin the positive exponent."
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_NODES_PER_PANEL = 32


def _filon_matrix() -> np.ndarray:
    """M[i, l] = w_i (2l+1) i**l P_l(x_i), so that W(a) = M @ j(a).

    ``(2l+1)/2 * w_i P_l(x_i)`` maps node values to the Legendre
    coefficients of their degree-31 interpolant, and each P_l integrates
    against exp(i a x) to ``2 i**l j_l(a)``.
    """
    l = np.arange(_NODES_PER_PANEL)
    leg = np.polynomial.legendre.legvander(_GL_NODES, _NODES_PER_PANEL - 1)
    i_pow = np.array([1, 1j, -1, -1j])[l % 4]
    return _GL_WEIGHTS[:, None] * leg * ((2.0 * l + 1.0) * i_pow)


_FILON_MATRIX = _filon_matrix()
_L = np.arange(float(_NODES_PER_PANEL))
_TWO_L_PLUS_1 = 2.0 * _L + 1.0
# 1 / (2l+1)!!: at small a, a**l / (2l+1)!! is within a relative a**2 / 6 of j_l(a)
_LEADING = 1.0 / np.cumprod(_TWO_L_PLUS_1)
# 2l + 1 as floats up to the deepest start of _spherical_jn's recurrence
_ODD = [2.0 * l + 1.0 for l in range(_NODES_PER_PANEL + 36)]


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy controls for :func:`integrate_moment` and friends.

    Parameters
    ----------
    rel_tol : float
        Target relative tolerance; sets the truncation window so the
        discarded Gaussian tail is ~rel_tol/10.
    truncation : float or None
        Override for the half-width T of the centered window, in units of
        the log variable.  None picks ``sqrt(ln(10/rel_tol)) / k``.
    node_budget : int
        Hard cap on integrand evaluations for one result (both passes).
    """

    rel_tol: float = 1e-12
    truncation: float | None = None
    node_budget: int = 1 << 26

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-2) or not math.isfinite(self.rel_tol):
            raise ValueError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol!r}")
        if self.truncation is not None:
            t = float(self.truncation)
            if not math.isfinite(t) or t <= 0.0:
                raise ValueError(f"truncation must be positive, got {self.truncation!r}")
            object.__setattr__(self, "truncation", t)
        if not isinstance(self.node_budget, int) or self.node_budget < 64:
            raise ValueError(f"node_budget must be an int >= 64, got {self.node_budget!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """One verified integral with its error budget.

    ``value`` is the integral itself in (sign, ln|value|) form.
    ``ln_scale`` is the log of the natural reference magnitude of the
    integral family (the closed-form moment for moment integrals, the
    un-oscillated raw moment for vanishing integrals); all ``rel_*``
    error components are relative to ``exp(ln_scale)``.

    ``error_estimate`` = quadrature refinement + domain truncation: it
    bounds the deviation from the exact integral of the constructed
    object.  ``series_tail_budget`` is the separate sup-norm distance
    from a truncated Weierstrass modulator to its untruncated limit.
    """

    value: LogScaled
    ln_scale: float
    rel_quad_error: float
    rel_tail_error: float
    series_tail_budget: float
    nodes_used: int
    truncation: float

    @property
    def error_estimate(self) -> float:
        return self.rel_quad_error + self.rel_tail_error

    def value_over_scale(self) -> float:
        """The integral in units of exp(ln_scale); safe at any magnitude."""
        if self.value.sign == 0:
            return 0.0
        return self.value.sign * math.exp(self.value.ln_abs - self.ln_scale)


def _center_residuals(k: float, n: int):
    """mu, sigma and the tiny c0, c1 with (n+1)t - k^2 t^2 = sigma + c0 + c1 s - k^2 s^2.

    k is a binary fraction, so mu = (n+1)/(2 k**2), sigma = (n+1)**2/(4
    k**2) and the residuals of their roundings, c1 = (n+1) - 2 k^2 mu and
    c0 = (n+1) mu - k^2 mu^2 - sigma, are exact rationals, each rounded
    once by int / int.  That raises OverflowError if mu or sigma has no
    float64 value.
    """
    kn, kd = k.as_integer_ratio()
    m, a, b = n + 1, kn * kn, kd * kd  # k**2 = a / b
    sigma = m * m * b / (4 * a)
    mu = m * b / (2 * a)
    mn, md = mu.as_integer_ratio()
    sn, sd = sigma.as_integer_ratio()
    c1 = (m * md * b - 2 * a * mn) / (md * b)
    c0 = ((m * md * b - a * mn) * mn * sd - sn * md * md * b) / (md * md * b * sd)
    return mu, sigma, c0, c1


def _panel_grid(T: float, p: int):
    # half is T/p rounded up to 24 significant bits, so the panels cover
    # [-T, T] and every center (2i + 1 - p) * half is exact: neighbours
    # meet with no overlap or gap, each of which would add ~eps * |c|
    # times the integrand, uncancelled by its oscillation.
    m, e = math.frexp(T / p)
    half = math.ldexp(math.ceil(m * 2.0**24), e - 24)
    return (2.0 * np.arange(p) + (1.0 - p)) * half, half


_MASK128 = 2**128 - 1


def _turns(num: int, den: int) -> int:
    """floor(frac(num / den) * 2**128) for a power of two ``den``."""
    return (num << 128) // den & _MASK128


def _phase_anchors(k: float, mu, harmonics, grids):
    """2*pi * frac(harmonic * (mu + c) / ln q), from exact integer phases.

    One row per order's center mu and panel center c of the ``grids``
    (``_panel_grid`` pairs; mu varies slowest, then the grids in order),
    one column per harmonic h.  As ln q = -1/(2 k**2), u = (mu + c) / ln q
    = -2 k**2 (mu + c) is an exact binary fraction of doubles: no rounded
    ln q enters, and each order's phases come from its own mu alone.  A
    grid's centers are c_i = c_0 + 2 i half, so h u_i = S + i D, with D =
    -4 h k**2 half exact mod 1 and S = h u_0 mod 1 within h * 2**-128.
    With every i below 2**L, both split at b = 53 - L bits into a head,
    exact in ``i * head`` and in the sum of heads, and a rest below 2**-b
    whose rounding costs about 2**(2L - 106) turns.
    """
    kn, kd = k.as_integer_ratio()
    un, ud = -2 * kn * kn, kd * kd  # -2 k**2
    counts = [c.size for c, _ in grids]
    b = 53 - max(counts).bit_length()
    turns = []  # each grid's D, then each order's S per grid
    for _, half in grids:
        hn, hd = half.as_integer_ratio()
        turns += [_turns(2 * h * un * hn, ud * hd) for h in harmonics]
    firsts = [float(c[0]).as_integer_ratio() for c, _ in grids]
    for m in np.atleast_1d(mu).tolist():
        mn, md = m.as_integer_ratio()
        for cn, cd in firsts:
            u0 = _turns(un * (mn * cd + cn * md), ud * md * cd)
            turns += [h * u0 & _MASK128 for h in harmonics]
    low = (1 << (128 - b)) - 1
    split = np.array([[math.ldexp(t >> (128 - b), -b) for t in turns],
                      [math.ldexp(t & low, -128) for t in turns]])
    split = np.repeat(split.reshape(2, -1, len(grids), len(harmonics)), counts, axis=2)
    i = np.array([j for p in counts for j in range(p)], dtype=float)[:, None]
    head, rest = i * split[:, :1] + split[:, 1:]
    head -= np.floor(head)
    return phase_angle_split(head, rest).reshape(-1, len(harmonics))


def _omega_s(k: float, harmonic: int) -> float:
    # d/ds of 2*pi*harmonic*(mu+s)/ln q = -4*pi*harmonic*k**2; ln q < 0
    # flips the sign, which matters not at all under the integral but is
    # kept literal.  Overflows to -inf rather than raising.
    return -4.0 * math.pi * float(harmonic) * k * k


def _spherical_jn(a: float) -> np.ndarray:
    """j_0(a), ..., j_31(a), the spherical Bessel functions of the first kind.

    Below |a| = 2**-30, where the recurrences would overflow, the leading
    terms a**l / (2l+1)!! serve.  Forward recurrence is stable while l <
    |a|, so it serves |a| >= 32.  Below that, Miller's backward recurrence
    runs down from l = 36 + floor|a|, far enough past both 31 and |a| that
    the start's error has decayed below 1e-20 by l = 31, and is normalised
    by sum_l (2l+1) j_l(a)**2 = 1 (DLMF 10.60); the sign comes from the
    larger of the closed forms j_0, j_1.  Negative a uses j_l(-a) =
    (-1)**l j_l(a).
    """
    x = abs(a)
    top = _NODES_PER_PANEL - 1
    if x < 2.0**-30:
        return _LEADING * a**_L
    s, c = math.sin(x), math.cos(x)
    j0, j1 = s / x, (s / x - c) / x
    if x >= _NODES_PER_PANEL:
        out = [j0, j1]
        prev, f = j0, j1
        for odd in _ODD[1:top]:
            prev, f = f, odd / x * f - prev
            out.append(f)
        j = np.array(out)
    else:
        out = []  # j_31 ... j_1, unnormalised
        f_up, f, norm = 0.0, 1.0, 0.0
        for l in range(36 + int(x), 0, -1):
            odd = _ODD[l]
            if l <= top:
                out.append(f)
            norm += odd * f * f
            f_up, f = f, odd / x * f - f_up
            if abs(f) > 1e100:  # small x grows fast; rescale
                f_up, f, norm = f_up * 1e-100, f * 1e-100, norm * 1e-200
                out = [v * 1e-100 for v in out]
        out.append(f)
        norm += f * f
        ref, got = (j0, f) if abs(j0) >= abs(j1) else (j1, out[-2])
        scale = math.copysign(1.0 / math.sqrt(norm), ref * got)
        j = np.array(out[::-1]) * scale
    if a < 0.0:
        j[1::2] = -j[1::2]
    return j


def _panel_integrals(k, orders, components, grids):
    """Per-panel integrals of unit-amplitude components, both passes at once,
    for a block of moment orders.

    ``components`` lists (harmonic, kind) pairs; the base weight is
    harmonic 0, whose anchors are 0 and whose Filon weights are the
    Gauss-Legendre weights.  Panel p of component c is ``half *
    Re/Im(exp(i phase0[p, c]) * sum_i W_i(a_c) E(s_i))`` with the envelope
    ``E(s) = exp(-k**2 s**2 + c0 + c1 s)``, complex node weights ``W_i(a) =
    w_i sum_l (2l+1) i**l j_l(a) P_l(x_i)`` and ``a_c = omega_c * half``;
    the sine takes the imaginary part.  ``sum_i W_i f(x_i)`` integrates the
    degree-31 interpolant of f against exp(i a x) over [-1, 1] exactly.

    Returns each order's sigma, the coarse and the fine (orders, panels,
    components) partials, and per component the rounding of the fine
    pass's weights relative to the envelope's mass: each ``W_i`` is within
    ``2 eps w_i S(a)`` of its exact value, ``S(a) = sum_l (2l+1) |j_l(a)|``
    (measured against mpmath: up to 1.74 eps w_i S(a)).  S is 1 at a = 0,
    peaks near 28 at a ~ 31 and decays like 650 / a.
    """
    s = np.concatenate([c[:, None] + half * _GL_NODES for c, half in grids])
    residuals = [_center_residuals(k, n) for n in orders]
    res = np.array(residuals)[:, :, None, None]  # mu, sigma, c0, c1 per order
    env = np.exp(-(k * k) * s * s + res[:, 2] + res[:, 3] * s)
    harmonics = [h for h, _ in components]
    rotation = np.exp(1j * _phase_anchors(k, res[:, 0, 0, 0], harmonics, grids))
    rotation = rotation.reshape(len(orders), -1, len(harmonics))
    omega = np.array([_omega_s(k, h) for h in harmonics])
    sine = np.array([kind == "sine" for _, kind in components])
    out = []
    rows = 0
    for c, half in grids:
        jn = np.array([_spherical_jn(a) for a in (omega * half).tolist()]).T
        here = slice(rows, rows + c.size)
        rows += c.size
        # one small product per order, as a stack: no result is shared
        z = rotation[:, here] * (env[:, here] @ (_FILON_MATRIX @ jn))
        out.append(half * np.where(sine, z.imag, z.real))
    weight_error = 2.0 * _EPS * (_TWO_L_PLUS_1 @ np.abs(jn))
    return [sigma for _, sigma, _, _ in residuals], out[0], out[1], weight_error


def _each_order(k, orders, components, grids, result):
    """``result(sigma, coarse, fine, weight_error)`` per order, from blocks of
    orders whose panel rows x (nodes + components) stay within
    ``_BLOCK_ELEMENTS``."""
    rows = sum(c.size for c, _ in grids)
    size = max(1, _BLOCK_ELEMENTS // (rows * (_NODES_PER_PANEL + len(components))))
    for i in range(0, len(orders), size):
        *parts, weight_error = _panel_integrals(k, orders[i : i + size], components, grids)
        for sigma, coarse, fine in zip(*parts):
            yield result(sigma, coarse, fine, weight_error)


def _plan_components(k, orders, modes, spec: QuadratureSpec):
    """Check the orders and plan the base and every mode; returns the
    checked orders, the truncation T and the coarse and fine passes'
    ``_panel_grid`` pairs, or raises BudgetExceededError.

    Phases fold exactly at any harmonic, but above 2**53 ``_omega_s``
    rounds it, and a non-finite ``a = omega * half`` cannot be integrated
    at all.  A k whose window has no finite panel count, or whose ln q is
    not a finite double-double (:func:`~qmoments.measures._lnq_dd`), is
    refused, so that the quadrature admits the same k as the pointwise
    evaluators.  Where eps * sigma >= 1 the granularity of the log-scaled
    value alone exceeds the value, so the order with the largest |n + 1|
    must have (n+1)**2 < 2**54 k**2, compared in integers.
    """
    orders = [_check_int(n, "moment order", -_MAX_ORDER, _MAX_ORDER) for n in orders]
    T = spec.truncation or math.sqrt(math.log(10.0 / spec.rel_tol)) / k
    if not math.isfinite(T * k):
        raise BudgetExceededError(f"cannot integrate at k={k!r}: window T={T} has no panel count")
    # panels of width <= 0.75/k keep the Gaussian spectrally converged under
    # 32-node Gauss-Legendre; the fine pass has 1.5x as many
    p = max(8, math.ceil(2.0 * T * k / 0.75))
    counts = (p, math.ceil(1.5 * p))
    components = 1 + len(modes)
    per_component = _NODES_PER_PANEL * sum(counts)
    total = components * per_component
    if total > spec.node_budget:
        raise BudgetExceededError(
            f"integral needs {total} nodes for {components} components "
            f"({per_component} each), budget is {spec.node_budget}. "
            "Raise node_budget or use fewer modes."
        )
    grids = [_panel_grid(T, count) for count in counts]
    for _, harmonic, _ in modes:
        if harmonic > _MAX_HARMONIC or not math.isfinite(
            _omega_s(k, harmonic) * grids[0][1]
        ):
            raise BudgetExceededError(
                f"harmonic {harmonic} at k={k} cannot be integrated: quadrature "
                "needs harmonic <= 2**53 and a finite oscillation per panel"
            )
    _lnq_dd(k)
    n = max(orders, key=lambda n: abs(n + 1), default=-1)
    kn, kd = k.as_integer_ratio()
    if ((n + 1) * kd) ** 2 >= kn * kn << 54:
        raise BudgetExceededError(
            f"cannot integrate order n={n} at k={k!r}: eps * (n+1)**2/(4 k**2), "
            "the granularity of the log-scaled value, is >= 1"
        )
    return orders, T, grids


_EPS = 2.220446049250313e-16
# panel rows x (nodes + components) of one block of orders: keeps a block's
# arrays near 1 MB at any order count, and each product on one BLAS thread
_BLOCK_ELEMENTS = 2**15
_INV_SQRT_PI = 0.5641895835477563
# largest |n| accepted as a moment order
_MAX_ORDER = 2**48


def _moment_parts(obj: Union[LogNormalWeight, PerturbedDensity]):
    if isinstance(obj, LogNormalWeight):
        return obj, 0.0, []
    if isinstance(obj, PerturbedDensity):
        m = obj.modulator
        return obj.weight, m.lam, list(m.terms())
    raise ValueError(
        f"expected a LogNormalWeight or PerturbedDensity, got {obj!r}"
    )


def _series_tail(obj) -> float:
    if isinstance(obj, PerturbedDensity):
        c = obj.modulator.content
        if isinstance(c, WeierstrassSpec):
            return abs(obj.modulator.lam) * c.tail_bound
    return 0.0


def _log_value(sigma: float, x: float) -> LogScaled:
    """exp(sigma) * x, stored as sigma + ln|x| with the sign of x."""
    if x == 0.0:
        return LogScaled.zero()
    return LogScaled(1 if x > 0 else -1, sigma + math.log(abs(x)))


def integrate_moment(
    obj: Union[LogNormalWeight, PerturbedDensity],
    n: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """n-th moment of a weight or perturbed density, with error budget.

    ``n`` may be any integer, negative included.  The result's
    ``ln_scale`` equals the closed-form base moment's log, so
    ``value_over_scale()`` reads directly as the modulator factor.
    """
    return next(_integrate_orders(obj, [n], spec))


def _integrate_orders(obj, orders, spec: QuadratureSpec = QuadratureSpec()):
    """:func:`integrate_moment` at each of ``orders``.  The orders are
    checked and the integral planned now; the results are then yielded in
    order as each block of orders is evaluated."""
    weight, lam, modes = _moment_parts(obj)
    k = weight.k
    if lam == 0.0:
        modes = []
    orders, T, grids = _plan_components(k, orders, modes, spec)

    amps = np.array([1.0] + [lam * a for a, _, _ in modes])
    abs_amps = np.abs(amps)
    sup = sum(abs(a) for a, _, _ in modes)
    rel_tail = (1.0 + abs(lam) * sup) * math.erfc(k * T)
    series_tail = _series_tail(obj)

    def result(sigma, coarse, fine, weight_error):
        parts = fine.sum(axis=0)
        total = float(amps @ parts)
        dj_total = float(abs_amps @ np.abs(parts - coarse.sum(axis=0)))
        i_hat = (k * _INV_SQRT_PI) * total
        # the value is stored as sigma + ln|i_hat|, so value_over_scale()
        # carries ~eps * |sigma| of representation error on top of quadrature
        rel_quad = (
            max((k * _INV_SQRT_PI) * dj_total, 8.0 * _EPS)
            + float(abs_amps @ weight_error)
            + _EPS * abs(sigma)
        )
        return QuadratureResult(
            value=_log_value(sigma, i_hat),
            ln_scale=sigma,
            rel_quad_error=rel_quad,
            rel_tail_error=rel_tail,
            series_tail_budget=series_tail,
            nodes_used=_NODES_PER_PANEL * (coarse.size + fine.size),
            truncation=T,
        )

    components = [(0, "cosine")] + [(h, kind) for _, h, kind in modes]
    return _each_order(k, orders, components, grids, result)


def vanishing_integral(
    w: LogNormalWeight,
    n: int,
    j: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """Integral of ``exp(-k^2 ln(x)^2) * x**n * sin(2 pi j ln x / ln q)``.

    This is the raw-kernel oscillatory integral whose exact value is 0
    for every integer n and j >= 1; nothing in the evaluation path knows
    that, so its smallness is evidence, not construction.  ``ln_scale``
    is the log of the same integral without the sine factor,
    ``sigma + ln(sqrt(pi)/k)``; compare ``|value|`` against
    ``max(error_estimate, rel_tol) * exp(ln_scale)``.
    """
    return next(_vanishing_orders(w, [n], j, spec))


def _vanishing_orders(w, orders, j, spec: QuadratureSpec = QuadratureSpec()):
    """:func:`vanishing_integral` at each of ``orders``, checked and planned
    as :func:`_integrate_orders` is."""
    if not isinstance(w, LogNormalWeight):
        raise ValueError(f"expected a LogNormalWeight, got {w!r}")
    j = _check_int(j, "sine harmonic j", 1)
    k = w.k
    orders, T, grids = _plan_components(k, orders, [(1.0, j, "sine")], spec)

    inv_scale = k / math.sqrt(math.pi)

    def result(sigma, coarse, fine, weight_error):
        j_sin = float(fine.sum())
        dj = abs(j_sin - float(coarse.sum()))
        return QuadratureResult(
            value=_log_value(sigma, j_sin),
            ln_scale=sigma + math.log(math.sqrt(math.pi) / k),
            # the stored sigma + ln|j_sin| is off by ~eps * |sigma| relative
            # to the value itself, which is near 0 here, not near the scale
            rel_quad_error=max(inv_scale * dj, 8.0 * _EPS)
            + float(weight_error[0])
            + _EPS * abs(sigma) * inv_scale * abs(j_sin),
            rel_tail_error=math.erfc(k * T),
            series_tail_budget=0.0,
            nodes_used=_NODES_PER_PANEL * (coarse.size + fine.size),
            truncation=T,
        )

    return _each_order(k, orders, [(j, "sine")], grids, result)


def base_moment_closed_form(w: LogNormalWeight, n: int) -> LogScaled:
    """``exp((n+1)**2 / (4 k**2))``, symbolically, for any integer n."""
    if not isinstance(w, LogNormalWeight):
        raise ValueError(f"expected a LogNormalWeight, got {w!r}")
    n = _check_int(n, "moment order", -_MAX_ORDER, _MAX_ORDER)
    try:
        return LogScaled.exp(_center_residuals(w.k, n)[1])
    except OverflowError:
        raise BudgetExceededError(
            f"no float64 exponent for order n={n} at k={w.k!r}: (n+1)**2/(4 k**2) "
            "or its center (n+1)/(2 k**2) overflows"
        ) from None


def modulator_moment_factor(m: Modulator) -> float:
    """The common factor by which a modulator scales *every* base moment.

    Sine harmonics contribute nothing; a cosine harmonic at frequency b
    contributes ``lam * a * exp(-4 pi^2 b^2 k^2)``.  Independence from the
    moment order n is exactly the shared-moment property; this closed
    form is what quadrature ratios are compared against.
    """
    if not isinstance(m, Modulator):
        raise ValueError(f"expected a Modulator, got {m!r}")
    pk = math.pi * m.weight.k
    total = 1.0
    for amp, harmonic, kind in m.terms():
        if kind != "cosine":
            continue
        # float products overflow to inf, where ** raises, and the term drops
        x = pk * (float(harmonic) if harmonic < 2**1023 else math.inf)
        arg = 4.0 * (x * x)
        if arg < 745.0:
            total += m.lam * amp * math.exp(-arg)
    return total
