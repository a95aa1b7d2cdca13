"""Kernels the package no longer runs, kept for their outside callers.

``gauss_panels``, the composite Gauss-Legendre panel sum, left the
quadrature path when Filon weights replaced it (see
:mod:`qmoments.quadrature`); it stays as the reference rule the tests
compare against.  ``weier_sum_u``, a float64 Weierstrass sum, left the
roughness scans when they moved onto exact phases (see
:mod:`qmoments.roughness`); it stays only for the benchmark's
``kernel_throughput`` probe.  Both go once that probe measures the
package's own paths.

The panel kernel sums panel partials in a fixed order, so repeated runs
are bit-identical.

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
    terms and keeps ~eps relative accuracy at any moment order.  Panels
    are processed in chunks of ``_CHUNK`` to bound memory.

``weier_sum_u(u, a, b, n_terms, kind)``
    sum_{n=1..N} a**n * trig(2*pi * frac(b**n * u)) via iterated folding,
    never forming b**n; phases past the 2**53 horizon are pseudo-phases.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 8192


def gauss_panels(centers, half, nodes, weights, ksq, c0, c1, phase0, omega, kind):
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


def weier_sum_u(u, a, b, n_terms, kind):
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
