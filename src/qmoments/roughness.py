"""Pointwise roughness measurement for periodic modulator profiles.

Everything here works on the 1-periodic profile W(w), the modulator seen
through w = ln x / ln q.  That change of variables is smooth with a
nonzero derivative on (0, inf), so local Holder exponents of the profile
and of the modulator as a function of x coincide; measuring in w keeps
the coordinate itself out of the measurement.

The estimator is deliberately blunt: median local oscillation over base
points, numpy's ``default_rng(seed).uniform(0, 1)`` stream (``_rng``), at
a ladder of dyadic scales, then a least squares line in ln-ln.  For
W(w) = sum a^i trig(2 pi b^i w) the oscillation at scale h tracks h**alpha,
alpha = ln(1/a)/ln(b), when a*b >= 1; a finite truncation flattens to
slope 1 below scales ~ b**-N, so the truncation depth is raised
automatically until that happens far below the smallest requested scale.

A series profile (a ``WeierstrassSpec``, or a ``Modulator`` of either
content, scaled by lam) is W(w) = sum_t A_t sin(theta_t(w)) with
theta_t(w) = 2 pi frac(h_t w), a cosine term being a sine shifted by a
quarter turn.  Its phases are exact: each base point w and each offset d
is a 128-bit fixed-point phase (``_dd``), folded by h_t mod 2**128 with
nothing rounded, so every term sees the real point w + d, however deep.
By angle addition, with delta = theta_t(d),

    W(w + d) - W(w) = E + O,   E = sum_t A_t sin(theta_t(w)) (cos delta - 1),
                               O = sum_t A_t cos(theta_t(w)) sin delta,

and W(w - d) - W(w) = E - O, so the larger of the two is |E| + |O|.  The
scan of S base points by P offset pairs per scale therefore separates
into two matrix products, (S x terms) @ (terms x offsets): per term only
S + P phases are folded, not 2 S P.  Blocks under fixed element budgets
bound the memory whatever the samples, probes and depth.  An arbitrary
callable is evaluated on the full grid of points w + d.
"""

import math
from dataclasses import dataclass
from itertools import accumulate, takewhile
from typing import Union

import numpy as np

from . import _dd
from ._rng import uniform
from .measures import Modulator, WeierstrassSpec, _check_int

__all__ = [
    "HolderEstimate",
    "holder_estimate",
    "local_oscillation",
    "DivergenceWitness",
    "divergence_witness",
]

_MAX_TERMS = 10_000
# every scale probes samples * 2 * probes points
_MAX_SAMPLES = 4096
_MAX_PROBES = 256
# element budgets of one block: terms x folded phases, and bases x offsets;
# together they keep each matrix product under ~370k multiply-adds, which
# BLAS runs on one thread (a second one would add CPU time, not speed)
_TERM_BLOCK = 2**12
_GRID_BLOCK = 2**15


@dataclass(frozen=True)
class HolderEstimate:
    """Least squares fit of ln(oscillation) against ln(scale).

    ``alpha`` is the fitted slope, the measured Holder exponent;
    ``intercept`` the fitted ln-oscillation at scale 1; ``r_squared``
    how well a single power law explains the scan.  ``oscillations``
    holds the median oscillation at each scale.  ``terms_used`` is the
    series depth, terms whose harmonic is 0 mod 2**128 included although
    they add exactly nothing and are skipped; None when the profile is
    not a truncated series.
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


def _series_terms(obj, h_min: float):
    """Amplitudes, harmonic words and quarter-turn shifts of a series profile.

    Returns ``(amps, (h1, h0), shifts, terms_used)``; Weierstrass harmonics
    are reduced mod 2**128 as they are built, which is all a fold needs,
    so no depth ever forms b**N.  They stop at the first that is 0 mod
    2**128 (b**t once t * v2(b) >= 128): from there every term folds each
    phase to 0 and adds exactly 0 to E and O.  ``terms_used`` is the
    series depth, those terms included; None for trig modes.
    """
    scale, c = (obj.lam, obj.content) if isinstance(obj, Modulator) else (1.0, obj)
    if isinstance(c, WeierstrassSpec):
        depth = max(c.terms, _depth_for_scale(c.a, c.b, h_min))
        harmonics = list(takewhile(bool, accumulate(
            [c.b % 2**128] * depth, lambda h, b: h * b % 2**128
        )))
        amps = scale * np.cumprod(np.full(len(harmonics), c.a))
        kinds = [c.kind] * len(harmonics)
    else:
        depth = None
        amps = scale * np.array([m.amplitude for m in c], dtype=float)
        harmonics, kinds = [m.harmonic for m in c], [m.kind for m in c]
    harmonics = list(harmonics)
    h1 = np.array([h >> 64 for h in harmonics], dtype=np.uint64)
    h0 = np.array([h & 0xFFFFFFFFFFFFFFFF for h in harmonics], dtype=np.uint64)
    shifts = np.array([0 if k == "sine" else 2**62 for k in kinds], dtype=np.uint64)
    return amps, (h1, h0), shifts, depth


def _series_block(amps, harmonics, shifts, wb, wd):
    """|E| + |O| (module docstring) for base words wb by offset words wd."""
    rows, cols = wb[0].size, wd[0].size
    words = tuple(np.concatenate([b, d])[:, None] for b, d in zip(wb, wd))
    step = max(1, _TERM_BLOCK // (rows + cols))
    even, odd = np.zeros((rows, cols)), np.zeros((rows, cols))
    for t in range(0, amps.size, step):
        block = slice(t, t + step)
        f1, f0 = _dd.fold_harmonic(words, (harmonics[0][block], harmonics[1][block]))
        f1[:rows] += shifts[block]
        angle = _dd.phase_angle((f1, f0))
        theta, delta = angle[:rows], angle[rows:]
        half = np.sin(0.5 * delta)
        even += np.sin(theta) @ (amps[block] * (-2.0 * half * half)).T
        odd += np.cos(theta) @ (amps[block] * np.sin(delta)).T
    np.abs(even, out=even)
    even += np.abs(odd, out=odd)
    return even


def _series_scan(amps, harmonics, shifts, base, scales, probes):
    """max_|d|<=h |W(w+d) - W(w)| per scale and base point, on exact phases.

    Base points are cut into row blocks and scales into groups so that one
    block of the grid holds at most ``_GRID_BLOCK`` bases x offsets.
    """
    fracs = np.arange(1, probes + 1) / probes
    per = max(1, min(scales.size, _GRID_BLOCK // (probes * base.size)))
    rows = max(1, min(base.size, _GRID_BLOCK // (per * probes)))
    w1, w0 = _dd._float_phase(base)
    osc = np.empty((scales.size, base.size))
    for s in range(0, scales.size, per):
        group = scales[s : s + per]
        wd = _dd._float_phase((group[:, None] * fracs).ravel())
        for r in range(0, base.size, rows):
            wb = (w1[r : r + rows], w0[r : r + rows])
            spread = _series_block(amps, harmonics, shifts, wb, wd)
            osc[s : s + per, r : r + rows] = spread.reshape(
                -1, group.size, probes
            ).max(axis=2).T
    return osc


def _grid_scan(fn, base, scales, probes):
    """The same oscillations for a callable, evaluated on every grid point."""
    osc = np.empty((scales.size, base.size))
    for i, h in enumerate(scales):
        steps = h * (np.arange(1, probes + 1) / probes)
        grid = base + np.concatenate([[0.0], -steps, steps])[:, None]
        vals = np.asarray(fn(grid.ravel()), dtype=float)
        if vals.shape != (grid.size,):
            raise ValueError("profile callable must map arrays to arrays")
        vals = vals.reshape(grid.shape)
        osc[i] = np.max(np.abs(vals[1:] - vals[0]), axis=0)
    return osc


def _oscillations(obj, base, scales, probes):
    """Oscillations of the profile of ``obj``, scales x bases, and the
    series depth used (None unless the profile is a Weierstrass series)."""
    if isinstance(obj, Modulator) and obj.lam == 0.0:
        raise ValueError("a zero modulator has no roughness to measure")
    if isinstance(obj, (WeierstrassSpec, Modulator)):
        amps, harmonics, shifts, depth = _series_terms(obj, float(scales.min()))
        return _series_scan(amps, harmonics, shifts, base, scales, probes), depth
    if callable(obj):
        return _grid_scan(obj, base, scales, probes), None
    raise ValueError(
        f"expected a WeierstrassSpec, Modulator, or callable, got {obj!r}"
    )


def local_oscillation(obj, w, h: float, probes: int = 16):
    """Local oscillation of the profile of ``obj`` at scale h around w."""
    if not (isinstance(h, float) and 0.0 < h <= 0.5):
        raise ValueError(f"scale h must be a float in (0, 0.5], got {h!r}")
    probes = _check_int(probes, "probes", 8, _MAX_PROBES)
    base = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.all(np.isfinite(base)):
        raise ValueError(f"w must be finite, got {w!r}")
    osc = _oscillations(obj, base, np.array([h]), probes)[0][0]
    return float(osc[0]) if np.ndim(w) == 0 else osc


def _medians(osc):
    """Row medians, as np.median forms them.

    np.median and np.unique import numpy.ma on first use, ~15 ms that
    would be most of a battery's Holder family.
    """
    s = np.sort(osc, axis=1)
    n = s.shape[1]
    return 0.5 * (s[:, (n - 1) // 2] + s[:, n // 2])


def _validate_scales(scales) -> np.ndarray:
    arr = np.asarray(scales, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise ValueError("need at least 3 scales for a slope fit")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr > 0.5):
        raise ValueError("scales must be finite, positive, and at most 0.5")
    arr = np.sort(arr)[::-1]
    if np.any(arr[1:] == arr[:-1]):  # not np.unique: see _medians
        raise ValueError("scales must be distinct")
    return arr


def holder_estimate(
    obj,
    scales=None,
    samples: int = 64,
    probes: int = 16,
    seed: int = 20260817,
) -> HolderEstimate:
    """Fit the oscillation power law of the profile of ``obj``.

    ``scales`` defaults to the dyadic ladder 2**-4 .. 2**-20.  Base points
    are numpy's ``default_rng(seed).uniform(0, 1, samples)``, seed an int
    >= 0; the fit is ordinary least squares on the log-log medians.
    """
    samples = _check_int(samples, "samples", 8, _MAX_SAMPLES)
    probes = _check_int(probes, "probes", 8, _MAX_PROBES)
    scales = _validate_scales(scales if scales is not None else 2.0 ** -np.arange(4, 21))
    base = uniform(seed, 0.0, 1.0, samples)
    osc, terms = _oscillations(obj, base, scales, probes)
    meds = _medians(osc)
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
    base = uniform(seed, 0.0, 1.0, samples)
    quotients = _medians(_oscillations(obj, base, steps, probes)[0]) / steps
    ratios = np.log10(quotients[1:] / quotients[:-1])
    spacing = -np.diff(np.log10(steps))
    implied = 1.0 - float(np.mean(ratios / spacing))
    return DivergenceWitness(
        steps=steps, quotients=quotients, implied_alpha=implied
    )
