"""Pointwise roughness measurement for periodic modulator profiles.

Everything here works on the 1-periodic profile W(w), the modulator seen
through w = ln x / ln q.  That change of variables is smooth with a
nonzero derivative on (0, inf), so local Holder exponents of the profile
and of the modulator as a function of x coincide; measuring in w keeps
the coordinate itself out of the measurement.

The estimator is deliberately blunt: median local oscillation over random
base points at a ladder of dyadic scales, then a least squares line in
ln-ln.  For W(w) = sum a^i trig(2 pi b^i w) the oscillation at scale h
tracks h**alpha with alpha = ln(1/a)/ln(b) when a*b >= 1; a finite
truncation flattens to slope 1 below scales ~ b**-N, so the truncation
depth is raised automatically until that happens far below the smallest
requested scale.

Phase arithmetic here is plain float64.  Iterated folding amplifies the
initial rounding of w by a factor b per term, so the deepest phases are
pseudo-random rather than exact.  Oscillation statistics are insensitive
to that (signal and rounding error amplify at the same rate, and only the
distribution of phases matters to a scan); the verified identity checks
elsewhere use the exact fixed-point phase path of ``_dd`` instead.
"""

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import _kernels
from .measures import Modulator, WeierstrassSpec, _check_int

__all__ = [
    "HolderEstimate",
    "holder_estimate",
    "local_oscillation",
    "DivergenceWitness",
    "divergence_witness",
]

_MAX_TERMS = 10_000
# every scale evaluates the profile on samples * 2 * probes points
_MAX_SAMPLES = 4096
_MAX_PROBES = 256
_U_SIN = 1
_U_COS = 0


@dataclass(frozen=True)
class HolderEstimate:
    """Least squares fit of ln(oscillation) against ln(scale).

    ``alpha`` is the fitted slope, the measured Holder exponent;
    ``intercept`` the fitted ln-oscillation at scale 1; ``r_squared``
    how well a single power law explains the scan.  ``oscillations``
    holds the median oscillation at each scale.  ``terms_used`` is the
    series depth actually evaluated, None when the profile is not a
    truncated series.
    """

    alpha: float
    intercept: float
    r_squared: float
    scales: np.ndarray
    oscillations: np.ndarray
    samples_per_scale: int
    probes: int
    terms_used: Union[int, None]


@dataclass(frozen=True)
class DivergenceWitness:
    """Difference quotients sup|W(w+d)-W(w)|/h at shrinking steps h.

    For a rough profile the quotients grow without bound as h shrinks;
    between steps a decade apart they grow by ~10**(1-alpha).
    ``implied_alpha`` inverts the mean observed growth.
    """

    steps: np.ndarray
    quotients: np.ndarray
    implied_alpha: float

    @property
    def growth_ratios(self) -> np.ndarray:
        return self.quotients[1:] / self.quotients[:-1]


def _depth_for_scale(a: float, b: int, h_min: float) -> int:
    """Series depth whose truncation error sits below 1% of the signal.

    The oscillation signal at scale h is ~h**alpha (alpha capped at 1 for
    summable-derivative series); the truncation changes the profile by at
    most a**N/(1-a) in sup norm.
    """
    alpha = min(math.log(1.0 / a) / math.log(b), 1.0)
    target = 0.01 * (1.0 - a) * h_min**alpha
    n = math.ceil(math.log(target) / math.log(a))
    return min(max(n, 1), _MAX_TERMS)


def _spec_profile(spec: WeierstrassSpec, scale: float, h_min: float):
    code = _U_SIN if spec.kind == "sine" else _U_COS
    n = max(spec.terms, _depth_for_scale(spec.a, spec.b, h_min))
    a, b = spec.a, float(spec.b)

    def fn(w):
        return scale * _kernels.weier_sum_u(w, a, b, n, code)

    return fn, n


def _trig_profile(content, scale: float):
    amps = np.array([scale * m.amplitude for m in content], dtype=float)
    harmonics = np.array([float(m.harmonic) for m in content], dtype=float)
    kinds = np.array(
        [_U_SIN if m.kind == "sine" else _U_COS for m in content], dtype=np.int64
    )

    def fn(w):
        return _kernels.trig_sum_u(w, amps, harmonics, kinds)

    return fn


def _make_profile(obj, h_min: float):
    """Return (profile callable on w arrays, terms_used or None)."""
    if isinstance(obj, WeierstrassSpec):
        return _spec_profile(obj, 1.0, h_min)
    if isinstance(obj, Modulator):
        if obj.lam == 0.0:
            raise ValueError("a zero modulator has no roughness to measure")
        if isinstance(obj.content, WeierstrassSpec):
            return _spec_profile(obj.content, obj.lam, h_min)
        return _trig_profile(obj.content, obj.lam), None
    if callable(obj):

        def fn(w):
            out = np.asarray(obj(w), dtype=float)
            if out.shape != w.shape:
                raise ValueError("profile callable must map arrays to arrays")
            return out

        return fn, None
    raise ValueError(
        f"expected a WeierstrassSpec, Modulator, or callable, got {obj!r}"
    )


def _oscillation_grid(fn, base, h, probes):
    """max_|d|<=h |W(w+d) - W(w)| for each base point, probed on a grid."""
    steps = h * (np.arange(1, probes + 1) / probes)
    offsets = np.concatenate([-steps[::-1], steps])
    grid = base[None, :] + offsets[:, None]
    vals = fn(grid.ravel()).reshape(grid.shape)
    return np.max(np.abs(vals - fn(base)[None, :]), axis=0)


def local_oscillation(obj, w, h: float, probes: int = 16):
    """Local oscillation of the profile of ``obj`` at scale h around w."""
    if not (isinstance(h, float) and 0.0 < h <= 0.5):
        raise ValueError(f"scale h must be a float in (0, 0.5], got {h!r}")
    probes = _check_int(probes, "probes", 8, _MAX_PROBES)
    fn, _ = _make_profile(obj, h)
    base = np.atleast_1d(np.asarray(w, dtype=float))
    osc = _oscillation_grid(fn, base, h, probes)
    return float(osc[0]) if np.ndim(w) == 0 else osc


def _validate_scales(scales) -> np.ndarray:
    arr = np.asarray(scales, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise ValueError("need at least 3 scales for a slope fit")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr > 0.5):
        raise ValueError("scales must be finite, positive, and at most 0.5")
    if np.unique(arr).size != arr.size:
        raise ValueError("scales must be distinct")
    return np.sort(arr)[::-1]


def holder_estimate(
    obj,
    scales=None,
    samples: int = 64,
    probes: int = 16,
    seed: int = 20260817,
) -> HolderEstimate:
    """Fit the oscillation power law of the profile of ``obj``.

    ``scales`` defaults to the dyadic ladder 2**-4 .. 2**-20.  Base
    points are drawn uniformly from one period; the fit is ordinary
    least squares on the log-log medians.
    """
    samples = _check_int(samples, "samples", 8, _MAX_SAMPLES)
    probes = _check_int(probes, "probes", 8, _MAX_PROBES)
    scales = _validate_scales(scales if scales is not None else 2.0 ** -np.arange(4, 21))
    fn, terms = _make_profile(obj, float(scales[-1]))
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, samples)
    meds = np.empty(scales.size)
    for i, h in enumerate(scales):
        meds[i] = np.median(_oscillation_grid(fn, base, float(h), probes))
    if np.any(meds <= 0.0):
        raise ValueError("profile shows no oscillation at some scale")
    x = np.log(scales)
    y = np.log(meds)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return HolderEstimate(
        alpha=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        scales=scales,
        oscillations=meds,
        samples_per_scale=samples,
        probes=probes,
        terms_used=terms,
    )


def divergence_witness(
    obj,
    steps=None,
    samples: int = 32,
    probes: int = 8,
    seed: int = 20260817,
) -> DivergenceWitness:
    """Median difference quotients at steps shrinking by decades.

    Unbounded growth of the quotients as the step shrinks is direct
    evidence against differentiability anywhere in the sampled set.
    """
    samples = _check_int(samples, "samples", 8, _MAX_SAMPLES)
    probes = _check_int(probes, "probes", 8, _MAX_PROBES)
    steps = _validate_scales(steps if steps is not None else 10.0 ** -np.arange(3, 10))
    fn, _ = _make_profile(obj, float(steps[-1]))
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, samples)
    quotients = np.empty(steps.size)
    for i, h in enumerate(steps):
        osc = _oscillation_grid(fn, base, float(h), probes)
        quotients[i] = np.median(osc) / h
    ratios = np.log10(quotients[1:] / quotients[:-1])
    spacing = -np.diff(np.log10(steps))
    implied = 1.0 - float(np.mean(ratios / spacing))
    return DivergenceWitness(
        steps=steps, quotients=quotients, implied_alpha=implied
    )
