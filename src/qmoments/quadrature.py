"""High-precision quadrature for moment and vanishing-integral checks.

Every check in this package reduces to integrals of the form

    integral over (0, inf) of f(x) * x**n * Phi(ln x) dx,

with f the log-normal weight and Phi either 1, a q-periodic modulator, or
a single sine harmonic.  Substituting ``t = ln x`` and centering at the
stationary point ``mu = (n + 1) / (2 k**2)`` turns this into

    exp(sigma) * integral of exp(-k**2 s**2 + c0 + c1 s) * Phi(mu + s) ds,

with ``sigma = (n + 1)**2 / (4 k**2)``.  As k is a binary fraction, mu,
sigma and the centering residuals c0 and c1 are exact rationals, formed
in integers and rounded once each.  c0 completes the square about the
exact center, so the kernel integrand is an O(1) Gaussian of mass
sqrt(pi)/k and the exponent sigma is the exact one: a result keeps its
mantissa, the integral over exp(sigma), beside ``ln_scale``, sigma
rounded once, and no rounding of the exponent enters the mantissa however
large the moments grow.

Design points
-------------
* Every component (the base weight, each sine and each cosine harmonic)
  uses one smooth panel grid: panels of width <= 0.75/k with 32
  Gauss-Legendre nodes each, so its cost does not depend on its
  harmonic.  Filon weights (Iserles & Norsett 2005) integrate the
  envelope's degree-31 interpolant at the nodes against ``exp(i a x)``
  exactly, through ``integral_{-1}^{1} P_l(x) exp(i a x) dx = 2 i**l
  j_l(a)`` (DLMF 10.60), with ``a = omega * half``; at ``a = 0`` they are
  the Gauss-Legendre weights.  Each integral is evaluated once, and its
  quadrature error is a bound derived in :func:`_panel_integrals`, never
  the tolerance the caller asked for.
* Oscillatory phases are anchored per panel in exact integers: ln q is
  -1/(2 k**2) by definition, so (mu + c) / ln q = -2 k**2 (mu + c) is a
  binary fraction of doubles that each harmonic folds mod 1, with no
  rounded ln q, and each order's anchors come from its own mu, never
  from mu / ln q = -(n + 1).  The integer-harmonic structure is *not*
  used to reduce phases symbolically: the sine integrals must be seen to
  vanish by honest numerical evaluation (cancellation across panels),
  not by an identity baked into the evaluator.
* One call evaluates all components of an integral (the base weight and
  every harmonic of a modulator, Weierstrass terms included) for a block
  of moment orders.  The panel grid and the Filon weights depend on k, T
  and the harmonic only, so a block plans and computes them once; each
  order keeps its own envelope, anchors, sums and error terms, and
  equals the one-order call bit for bit.  Nothing is cached, so no
  result is shared across moment orders n: the n-independence of the
  modulator factor is a claim under test.
* Three error components are recorded separately: quadrature (the
  derived bound and the mantissa's own roundings), Gaussian domain
  truncation about the exact center, and (for Weierstrass content) the
  dropped series tail.  The first two bound the deviation from the exact
  integral of the *constructed, truncated* object and form
  ``error_estimate``; the series component measures distance to the
  untruncated limit object and is reported alongside, not mixed in.
* Every integral is planned up front, and the plan builds its one panel
  grid.  A harmonic above 2**53, a k with no finite double-double ln q,
  an order whose rounded center may miss the exact one by 2**-4/k (see
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

_GL_NODES = np.polynomial.legendre.leggauss(32)[0]  # within 0.42 u of the zeros
# numpy's weights miss by up to 525 u at the ends, beyond what the error
# bound can carry; these are the exact ones rounded (checked with mpmath)
_GL_WEIGHTS = np.array([
    0.0965400885147278, 0.09563872007927486, 0.09384439908080457, 0.09117387869576389,
    0.08765209300440381, 0.08331192422694675, 0.07819389578707031, 0.0723457941088485,
    0.06582222277636185, 0.058684093478535544, 0.050998059262376175, 0.04283589802222668,
    0.03427386291302143, 0.02539206530926206, 0.01627439473090567, 0.007018610009470096,
])
_GL_WEIGHTS = np.concatenate([_GL_WEIGHTS[::-1], _GL_WEIGHTS])
_NODES_PER_PANEL = 32
_L = np.arange(float(_NODES_PER_PANEL))
_TWO_L_PLUS_1 = 2.0 * _L + 1.0
# M[i, l] = w_i (2l+1) i**l P_l(x_i), so that W(a) = M @ j(a): (2l+1)/2 w_i
# P_l(x_i) maps node values to the Legendre coefficients of their
# interpolant, and each P_l integrates against exp(i a x) to 2 i**l j_l(a)
_FILON_MATRIX = (_GL_WEIGHTS[:, None] * np.polynomial.legendre.legvander(_GL_NODES, 31)
                 * (_TWO_L_PLUS_1 * np.array([1, 1j, -1, -1j])[np.arange(32) % 4]))
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
        Hard cap on integrand evaluations for one result.
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

    ``mantissa`` is the integral in units of its scale: the closed-form
    moment exp((n+1)**2 / (4 k**2)) for moment integrals, that times
    sqrt(pi)/k (the un-oscillated raw moment) for vanishing integrals.  The
    scale's exponent is an exact rational; ``ln_scale`` is its log rounded,
    and the mantissa is relative to the exact scale, so it carries no
    rounding of the exponent.  All ``rel_*`` error components are relative
    to the same scale.

    ``error_estimate`` = quadrature bound + domain truncation: it
    bounds the deviation from the exact integral of the constructed
    object.  ``series_tail_budget`` is the separate sup-norm distance
    from a truncated Weierstrass modulator to its untruncated limit.
    """

    mantissa: float
    ln_scale: float
    rel_quad_error: float
    rel_tail_error: float
    series_tail_budget: float
    nodes_used: int
    truncation: float

    @property
    def error_estimate(self) -> float:
        return self.rel_quad_error + self.rel_tail_error

    @property
    def value(self) -> LogScaled:
        """The integral itself, for display: ln_scale + ln|mantissa|, rounded."""
        if self.mantissa == 0.0:
            return LogScaled.zero()
        sign = 1 if self.mantissa > 0.0 else -1
        return LogScaled(sign, self.ln_scale + math.log(abs(self.mantissa)))

    def value_over_scale(self) -> float:
        """The integral in units of exp(ln_scale): the stored mantissa."""
        return self.mantissa


def _center_residuals(k: float, n: int):
    """mu, sigma and the tiny c0, c1 with (n+1)t - k^2 t^2 = sigma_exact + c0 + c1 s - k^2 s^2.

    k is a binary fraction, so mu = (n+1)/(2 k**2), sigma = (n+1)**2/(4
    k**2) and c1 = (n+1) - 2 k^2 mu = 2 k^2 s0, with s0 = mu_exact - mu,
    are exact rationals, each rounded once by int / int; so is c0 =
    -c1**2/(4 k**2), from c1's integer numerator.  The exponent is then
    sigma_exact - k^2 (s - s0)**2 exactly: sigma_exact, not its rounding,
    is the scale a mantissa is relative to.  int / int raises
    OverflowError if mu or sigma has no float64 value.
    """
    kn, kd = k.as_integer_ratio()
    m, a, b = n + 1, kn * kn, kd * kd  # k**2 = a / b
    mu = m * b / (2 * a)
    mn, md = mu.as_integer_ratio()
    num, den = m * md * b - 2 * a * mn, md * b  # c1 = num / den
    return mu, m * m * b / (4 * a), -(num * num * b) / (4 * a * den * den), num / den


def _panel_grid(T: float, p: int):
    # half is T/p rounded up to 24 significant bits, so the panels cover
    # [-T, T] and every center (2i + 1 - p) * half is exact: neighbours meet
    # with no overlap or gap, which would add ~eps * |c| times the integrand.
    m, e = math.frexp(T / p)
    half = math.ldexp(math.ceil(m * 2.0**24), e - 24)
    return (2.0 * np.arange(p) + (1.0 - p)) * half, half


_MASK128 = 2**128 - 1


def _turns(num: int, den: int) -> int:
    """floor(frac(num / den) * 2**128) for a power of two ``den``."""
    return (num << 128) // den & _MASK128


def _phase_anchors(k: float, mu, harmonics, grid):
    """2*pi * frac(harmonic * (mu + c) / ln q), from exact integer phases.

    One row per order's center mu (slowest) and center c of the panel
    ``grid``, one column per harmonic h.  As ln q = -1/(2 k**2), u = (mu +
    c) / ln q = -2 k**2 (mu + c) is an exact binary fraction of doubles:
    no rounded ln q enters, and each order's phases come from its own mu
    alone.  The centers are c_i = c_0 + 2 i half, so h u_i = S + i D, with
    D = -4 h k**2 half exact mod 1 and S = h u_0 mod 1 within h * 2**-128.
    With every i below 2**L, both split at b = 53 - L bits into a head,
    exact in ``i * head`` and in the sum of heads, and a rest below 2**-b
    whose rounding costs about 2**(2L - 106) turns; an angle is then
    within an ulp of 2 pi, 2**-50 rad.
    """
    centers, half = grid
    kn, kd = k.as_integer_ratio()
    un, ud = -2 * kn * kn, kd * kd  # -2 k**2
    b = 53 - centers.size.bit_length()
    hn, hd = half.as_integer_ratio()
    turns = [_turns(2 * h * un * hn, ud * hd) for h in harmonics]  # D, then S per order
    cn, cd = float(centers[0]).as_integer_ratio()
    for m in np.atleast_1d(mu).tolist():
        mn, md = m.as_integer_ratio()
        u0 = _turns(un * (mn * cd + cn * md), ud * md * cd)
        turns += [h * u0 & _MASK128 for h in harmonics]
    low = (1 << (128 - b)) - 1
    split = np.array([[math.ldexp(t >> (128 - b), -b) for t in turns],
                      [math.ldexp(t & low, -128) for t in turns]])
    split = split.reshape(2, -1, 1, len(harmonics))
    i = np.arange(centers.size, dtype=float)[:, None]
    head, rest = i * split[:, :1] + split[:, 1:]
    head -= np.floor(head)
    return phase_angle_split(head, rest).reshape(-1, len(harmonics))


def _omega_s(k: float, harmonic: int) -> float:
    # d/ds of 2*pi*harmonic*(mu+s)/ln q = -4*pi*harmonic*k**2; ln q < 0 flips
    # the sign, kept literal.  Overflows to -inf rather than raising.
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


def _panel_integrals(k, orders, components, grid):
    """Per-panel integrals of unit-amplitude components for a block of
    moment orders, and a derived bound on each component's sum.

    ``components`` lists (harmonic, kind) pairs; the base weight is
    harmonic 0, with anchors 0 and the Gauss-Legendre weights.  Panel p of
    component c is ``half * Re/Im(exp(i phase0[p, c]) * sum_i W_i(a_c)
    E(s_i))``, Im for a sine, with ``E(s) = exp(-k**2 s**2 + c0 + c1 s)``,
    ``a_c = omega_c * half`` and ``W_i(a) = w_i sum_l (2l+1) i**l j_l(a)
    P_l(x_i)``: these integrate E's degree-31 interpolant I E at the nodes
    against exp(i a x) over [-1, 1] exactly.

    Returns each order's (sigma, c1), the (orders, panels, components)
    partials and an (orders, components) bound on each panel sum's error
    relative to sqrt(pi)/k: E's peak M = exp(c0 + c1**2/(4 k**2)), at s0 =
    c1/(2 k**2), times three parts relative to E's mass M sqrt(pi)/k.
    Here u = 2**-53, kappa = k half <= 0.375, p panels, S(a) = sum_l (2l+1)
    |j_l(a)| >= |W_i|/w_i, and R = max_i |W_i|/w_i as computed (measured
    <= 1.24, about S/3 past a = 300).

    * Interpolation: E - I E = ell(x) E[x_1..x_32, x], where ell = P_32
      over its leading coefficient is at most 2**32 (32!)**2/64! on [-1,
      1], and the divided difference is E^(32)(xi)/32! <= max|E|/r**32 on
      the disc of radius r about xi (Cauchy).  There |Im s| <= r half, so
      |E| <= M exp(kappa**2 r**2); r = 4/kappa gives a panel at most 2 half
      M |ell| (e kappa**2/16)**16, and all p (2 p kappa/sqrt(pi)) |ell| (e
      kappa**2/16)**16 of the mass (below 1e-33 at kappa = 0.375).
    * Rounding: the nodes carry u|s| + 2 u half, so the exponent errs by
      9 u k**2 s**2 + 2 u kappa**2, and exp by 2 ulps (measured 1.12 u).
      With the 32-term product they cost R sum_i w_i E_i (36 + 9 k**2
      s_i**2 + 2 kappa**2) u; as Gauss-Legendre sums E and k**2 s**2 E to
      the mass and half of it, 43 u R covers them and all products of
      terms; with k |s0| < 2**-4 (:func:`_plan_components`), the shifted
      k**2 s**2 E and the rounding of c1 s add under u.  A panel's exact
      value is at most its sum_i w_i E_i, so its anchor (2**-50 rad, 8 u),
      cos and sin (2 u), rotation (2 u), factor half (u) and a, rounded by
      4.4 u |a| (by parts, 4.4 u (2 + 2 kappa/sqrt(pi)) of the mass), add
      24 u; the panel sum adds p u.
    * Weights: sum_i |W_i - exact| <= 2 eps S(a) (checked with mpmath,
      measured 0.78 eps); against each panel's largest E_i, summing to at
      most 1/2 + 2 kappa/sqrt(pi) < 1 of the mass, that is 2 eps S.
    """
    centers, half = grid
    s = centers[:, None] + half * _GL_NODES
    res = np.array([_center_residuals(k, n) for n in orders])[:, :, None, None]
    env = np.exp(-(k * k) * s * s + res[:, 2] + res[:, 3] * s)  # res: mu, sigma, c0, c1
    harmonics = [h for h, _ in components]
    rotation = np.exp(1j * _phase_anchors(k, res[:, 0, 0, 0], harmonics, grid))
    rotation = rotation.reshape(len(orders), -1, len(harmonics))
    omega = np.array([_omega_s(k, h) for h in harmonics])
    sine = np.array([kind == "sine" for _, kind in components])
    jn = np.array([_spherical_jn(a) for a in (omega * half).tolist()]).T
    weights = _FILON_MATRIX @ jn
    # one small product per order, as a stack: no result is shared
    z = rotation * (env @ weights)
    reach = np.max(np.hypot(weights.real, weights.imag) / _GL_WEIGHTS[:, None], axis=0)  # R
    spread = _TWO_L_PLUS_1 @ np.abs(jn)  # S(a)
    kappa, p = k * half, centers.size
    interpolation = 2.0 * _INV_SQRT_PI * p * kappa * _ELL * (math.e / 16.0 * kappa * kappa) ** 16
    per_mass = interpolation + (43.0 * reach + 24.0 + p) * _U + 2.0 * _EPS * spread
    peak = np.exp(res[:, 2, 0] + (0.5 / k * res[:, 3, 0]) ** 2)
    return res[:, 1::2, 0, 0].tolist(), half * np.where(sine, z.imag, z.real), peak * per_mass


def _each_order(k, orders, components, grid, result):
    """``result((sigma, c1), partials, bound)`` per order, in blocks of
    ``_BLOCK_ELEMENTS``."""
    size = max(1, _BLOCK_ELEMENTS // (grid[0].size * (_NODES_PER_PANEL + len(components))))
    for i in range(0, len(orders), size):
        for parts in zip(*_panel_integrals(k, orders[i : i + size], components, grid)):
            yield result(*parts)


def _plan_components(k, orders, modes, spec: QuadratureSpec):
    """Check the orders and plan the base and every mode; returns the
    checked orders, the truncation T and the ``_panel_grid`` pair, or
    raises BudgetExceededError.

    Phases fold exactly at any harmonic, but above 2**53 ``_omega_s``
    rounds it, and a non-finite ``a = omega * half`` cannot be integrated
    at all.  A k whose window has no finite panel count, or whose ln q is
    not a finite double-double (:func:`~qmoments.measures._lnq_dd`), is
    refused, so that the quadrature admits the same k as the pointwise
    evaluators.  The window is centred on mu, (n+1)/(2 k**2) rounded, and
    the Gaussian on the exact center, s0 away with k |s0| <= 2**-54 |n+1|/k.
    The tail term charges that offset, and the panel bound holds while it
    is below 2**-4, so the order with the largest |n + 1| must have |n + 1|
    < 2**50 k, compared in integers.  That also keeps sigma below 2**98 and
    |mu| below 2**99, so every admitted order has float64 mu and sigma.
    """
    orders = [_check_int(n, "moment order", -_MAX_ORDER, _MAX_ORDER) for n in orders]
    T = spec.truncation or math.sqrt(math.log(10.0 / spec.rel_tol)) / k
    if not math.isfinite(T * k):
        raise BudgetExceededError(f"cannot integrate at k={k!r}: window T={T} has no panel count")
    # panels of width <= 0.75/k (kappa <= 0.375) put the interpolation
    # error far below rounding (see _panel_integrals)
    p = max(8, math.ceil(2.0 * T * k / 0.75))
    components = 1 + len(modes)
    per_component = _NODES_PER_PANEL * p
    total = components * per_component
    if total > spec.node_budget:
        raise BudgetExceededError(
            f"integral needs {total} nodes for {components} components "
            f"({per_component} each), budget is {spec.node_budget}. "
            "Raise node_budget or use fewer modes."
        )
    grid = _panel_grid(T, p)
    for _, harmonic, _ in modes:
        if harmonic > _MAX_HARMONIC or not math.isfinite(_omega_s(k, harmonic) * grid[1]):
            raise BudgetExceededError(
                f"harmonic {harmonic} at k={k} cannot be integrated: quadrature "
                "needs harmonic <= 2**53 and a finite oscillation per panel"
            )
    _lnq_dd(k)
    n = max(orders, key=lambda n: abs(n + 1), default=-1)
    kn, kd = k.as_integer_ratio()
    if abs(n + 1) * kd >= kn << 50:
        raise BudgetExceededError(
            f"cannot integrate order n={n} at k={k!r}: the window's center, "
            "(n+1)/(2 k**2) rounded, may be 2**-4/k or more from the exact one"
        )
    return orders, T, grid


_EPS = 2.220446049250313e-16
_U = 0.5 * _EPS
_ELL = 2**32 * math.factorial(32) ** 2 / math.factorial(64)  # max |P_32| / its lead
# panel rows x (nodes + components) of one block of orders: keeps a block's
# arrays near 1 MB at any order count (the package, not the block size,
# keeps BLAS on one thread: __init__ loads numpy that way)
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
    orders, T, grid = _plan_components(k, orders, modes, spec)

    amps = np.array([1.0] + [lam * a for a, _, _ in modes])
    abs_amps = np.abs(amps)
    sup_factor = 1.0 + abs(lam) * sum(abs(a) for a, _, _ in modes)  # of |1 + lam Phi|
    series_tail = _series_tail(obj)
    unit = k * _INV_SQRT_PI

    def result(center, partials, bound):
        sigma, c1 = center
        parts = partials.sum(axis=0)
        # the amplitudes, the sum over components and the factor unit cost
        # (components + 4) u of sum |amp part|
        rounding = (amps.size + 4) * _U * unit * float(abs_amps @ np.abs(parts))
        return QuadratureResult(
            mantissa=unit * float(amps @ parts),
            ln_scale=sigma,
            rel_quad_error=float(abs_amps @ bound) + rounding,
            rel_tail_error=sup_factor * math.erfc(k * T - abs(c1) / (2.0 * k)),
            series_tail_budget=series_tail,
            nodes_used=_NODES_PER_PANEL * partials.size,
            truncation=T,
        )

    components = [(0, "cosine")] + [(h, kind) for _, h, kind in modes]
    return _each_order(k, orders, components, grid, result)


def vanishing_integral(
    w: LogNormalWeight,
    n: int,
    j: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """Integral of ``exp(-k^2 ln(x)^2) * x**n * sin(2 pi j ln x / ln q)``.

    This is the raw-kernel oscillatory integral whose exact value is 0
    for every integer n and j >= 1; nothing in the evaluation path knows
    that, so its smallness is evidence, not construction.  The scale is
    the same integral without the sine factor, exp(sigma) sqrt(pi)/k, and
    ``ln_scale`` is ``sigma + ln(sqrt(pi)/k)``; compare
    ``|value_over_scale()|`` against ``error_estimate``.
    """
    return next(_vanishing_orders(w, [n], j, spec))


def _vanishing_orders(w, orders, j, spec: QuadratureSpec = QuadratureSpec()):
    """:func:`vanishing_integral` at each of ``orders``, checked and planned
    as :func:`_integrate_orders` is."""
    if not isinstance(w, LogNormalWeight):
        raise ValueError(f"expected a LogNormalWeight, got {w!r}")
    j = _check_int(j, "sine harmonic j", 1)
    k = w.k
    orders, T, grid = _plan_components(k, orders, [(1.0, j, "sine")], spec)

    ln_mass = math.log(math.sqrt(math.pi) / k)

    def result(center, partials, bound):
        sigma, c1 = center
        mantissa = k * _INV_SQRT_PI * float(partials.sum())
        return QuadratureResult(
            mantissa=mantissa,
            ln_scale=sigma + ln_mass,
            # the factor k/sqrt(pi) costs 3 u of the mantissa
            rel_quad_error=float(bound[0]) + 3 * _U * abs(mantissa),
            rel_tail_error=math.erfc(k * T - abs(c1) / (2.0 * k)),
            series_tail_budget=0.0,
            nodes_used=_NODES_PER_PANEL * partials.size,
            truncation=T,
        )

    return _each_order(k, orders, [(j, "sine")], grid, result)


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
