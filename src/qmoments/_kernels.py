"""Hot numerical kernels with two interchangeable backends.

The Holder-exponent scans spend essentially all of their time in
pointwise Weierstrass partial sums over probe grids.  The composite
Gauss-Legendre panel sum is no longer on the quadrature path (that uses
Filon weights, see :mod:`qmoments.quadrature`); it stays as the reference
rule the tests compare against.  Each kernel is written twice: once as
plain loops compiled by numba, once as chunked numpy vector code.  The numba path is the default; set ``QMOMENTS_DISABLE_NUMBA=1``
in the environment (or run without numba installed) to select the numpy
path.  Results agree to float64 rounding, and ``benchmarks/bench_kernels.py``
compares their throughput.

Both backends sum panel partials in a fixed order, so repeated runs are
bit-identical on a given backend.

Kernel contracts
----------------
``gauss_panels(centers, half, nodes, weights, ksq, c0, c1, phase0, omega, kind)``
    Per-panel Gauss-Legendre approximations of

        integral over s in [c - half, c + half] of
            exp(-ksq * s**2 + c0 + c1 * s) * trig(phase0 + omega * (s - c)) ds

    where trig is 1 (kind 0), sin (kind 1), or cos (kind 2).  phase0 is a
    per-panel anchor supplied by the caller at double-double accuracy;
    c0 and c1 are the (tiny) residuals of centering the moment exponent
    at its stationary point, so the kernel never sees large cancelling
    terms and keeps ~eps relative accuracy at any moment order.

``trig_sum_u(u, amps, harmonics, kinds)``
    sum_m amps[m] * trig_m(2*pi * harmonics[m] * u), evaluated in plain
    float64 with per-term folding of the periodic variable.

``weier_sum_u(u, a, b, n_terms, kind)``
    sum_{n=1..N} a**n * trig(2*pi * frac(b**n * u)) via iterated folding,
    never forming b**n; adequate for oscillation scans where phases past
    the 2**53 horizon act as deterministic pseudo-phases.
"""

from __future__ import annotations

import math
import os

import numpy as np

_DISABLED = os.environ.get("QMOMENTS_DISABLE_NUMBA", "").strip() not in ("", "0")

if not _DISABLED:
    try:
        from numba import njit as _njit

        _HAVE_NUMBA = True
    except ImportError:
        _HAVE_NUMBA = False
else:
    _HAVE_NUMBA = False

USE_NUMBA = _HAVE_NUMBA


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


_CHUNK = 8192


def _gauss_panels_loops(centers, half, nodes, weights, ksq, c0, c1, phase0, omega, kind):
    out = np.empty(centers.shape[0])
    for p in range(centers.shape[0]):
        c = centers[p]
        acc = 0.0
        for i in range(nodes.shape[0]):
            s = c + half * nodes[i]
            val = math.exp(-ksq * s * s + c0 + c1 * s)
            if kind == 1:
                val *= math.sin(phase0[p] + omega * half * nodes[i])
            elif kind == 2:
                val *= math.cos(phase0[p] + omega * half * nodes[i])
            acc += weights[i] * val
        out[p] = acc * half
    return out


def _gauss_panels_numpy(centers, half, nodes, weights, ksq, c0, c1, phase0, omega, kind):
    out = np.empty(centers.shape[0])
    for start in range(0, centers.shape[0], _CHUNK):
        c = centers[start : start + _CHUNK, None]
        s = c + half * nodes[None, :]
        val = np.exp(-ksq * s * s + c0 + c1 * s)
        if kind == 1:
            val *= np.sin(phase0[start : start + _CHUNK, None] + omega * half * nodes)
        elif kind == 2:
            val *= np.cos(phase0[start : start + _CHUNK, None] + omega * half * nodes)
        out[start : start + _CHUNK] = val @ weights
    out *= half
    return out


def _trig_sum_u_loops(u, amps, harmonics, kinds):
    out = np.zeros(u.shape[0])
    for j in range(u.shape[0]):
        w = u[j] - math.floor(u[j])
        acc = 0.0
        for m in range(amps.shape[0]):
            f = harmonics[m] * w
            f -= math.floor(f)
            theta = 6.283185307179586 * f
            if kinds[m] == 1:
                acc += amps[m] * math.sin(theta)
            else:
                acc += amps[m] * math.cos(theta)
        out[j] = acc
    return out


def _trig_sum_u_numpy(u, amps, harmonics, kinds):
    out = np.zeros(u.shape[0])
    w = u - np.floor(u)
    for m in range(amps.shape[0]):
        f = harmonics[m] * w
        f -= np.floor(f)
        theta = 6.283185307179586 * f
        out += amps[m] * (np.sin(theta) if kinds[m] == 1 else np.cos(theta))
    return out


def _weier_sum_u_loops(u, a, b, n_terms, kind):
    out = np.zeros(u.shape[0])
    for j in range(u.shape[0]):
        w = u[j] - math.floor(u[j])
        acc = 0.0
        amp = 1.0
        for _ in range(n_terms):
            amp *= a
            w *= b
            w -= math.floor(w)
            theta = 6.283185307179586 * w
            if kind == 1:
                acc += amp * math.sin(theta)
            else:
                acc += amp * math.cos(theta)
        out[j] = acc
    return out


def _weier_sum_u_numpy(u, a, b, n_terms, kind):
    out = np.zeros(u.shape[0])
    w = u - np.floor(u)
    amp = 1.0
    for _ in range(n_terms):
        amp *= a
        w *= b
        w -= np.floor(w)
        theta = 6.283185307179586 * w
        out += amp * (np.sin(theta) if kind == 1 else np.cos(theta))
    return out


if USE_NUMBA:
    gauss_panels = _njit(cache=True)(_gauss_panels_loops)
    trig_sum_u = _njit(cache=True)(_trig_sum_u_loops)
    weier_sum_u = _njit(cache=True)(_weier_sum_u_loops)
else:
    gauss_panels = _gauss_panels_numpy
    trig_sum_u = _trig_sum_u_numpy
    weier_sum_u = _weier_sum_u_numpy
