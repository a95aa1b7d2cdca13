"""The Filon rule for oscillatory components against independent oracles.

Spherical Bessel functions are checked against scipy and mpmath, single
panels against the closed complex-erf form at harmonics 3^10 and 3^20,
and whole components against the composite Gauss-Legendre path the rule
replaced.  The rule's cost must not depend on the harmonic.
"""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from qmoments import quadrature as qd
from qmoments.measures import LogNormalWeight
from qmoments.quadrature import BudgetExceededError, QuadratureSpec, vanishing_integral

import oracles

J_POINTS = [0.0, 1e-8, 0.3, math.pi, 20.0, 31.5, 32.0, 1e3, 2.7e5, 1e12]
LS = np.arange(32)


@pytest.mark.parametrize("a", J_POINTS + [-a for a in J_POINTS[1:]])
def test_spherical_jn_matches_scipy(a):
    got = qd._spherical_jn(a)
    ref = spherical_jn(LS, a)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("a", J_POINTS)
def test_spherical_jn_matches_mpmath(a):
    got = qd._spherical_jn(a)
    ref = np.array([oracles.mp_spherical_jn(int(l), a) for l in LS])
    assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))
    # j_l(-a) = (-1)**l j_l(a), exactly
    assert np.array_equal(qd._spherical_jn(-a), got * (-1.0) ** LS)


def test_weights_at_zero_frequency_are_gauss_legendre():
    w = qd._filon_weights(0.0)
    assert np.array_equal(w.real, qd._GL_WEIGHTS)
    assert not np.any(w.imag)


@pytest.mark.parametrize("harmonic", [3**10, 3**20])
@pytest.mark.parametrize("k, n", [(1.0, 5), (0.45, 7), (3.0, -3)])
@pytest.mark.parametrize("kind, code", [("sine", 1), ("cosine", 2)])
def test_panels_match_complex_erf_closed_form(harmonic, k, n, kind, code):
    T = qd._truncation_width(QuadratureSpec(), k)
    p = qd._smooth_panel_count(T, k)
    mu, _, c0, c1 = qd._center_residuals(k, n)
    centers, half = qd._panel_grid(T, p)
    phase0 = qd._phase_anchors(k, mu, harmonic, centers)
    omega = qd._omega_s(k, harmonic)
    got = qd._filon_panels(centers, half, k * k, c0, c1, phase0, omega, code)
    ref = np.array([
        oracles.mp_panel(k, c0, c1, c, half, ph, omega * half, kind)
        for c, ph in zip(centers, phase0)
    ])
    err = np.max(np.abs(got - ref))
    assert err <= 1e-17
    assert err <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [0.45, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind, code", [("sine", 1), ("cosine", 2)])
def test_components_match_gauss_legendre_path(k, kind, code):
    for n in (-3, 0, 5, 20):
        for harmonic in (1, 2, 3**4, 3**7):
            got, _, _ = qd._component_integral(
                k, n, harmonic, code, 1e-12, None, 1 << 26
            )
            ref = oracles.gl_component(k, n, harmonic, kind)
            assert abs(got - ref) <= 1e-14, (n, harmonic)


def test_component_cost_does_not_grow_with_harmonic():
    w = LogNormalWeight(1.0)
    low = vanishing_integral(w, 3, 1)
    high = vanishing_integral(w, 3, 3**10)
    assert low.nodes_used == high.nodes_used == 32 * (15 + 23)


def test_unrepresentable_oscillation_is_refused_by_harmonic():
    # k**2 overflows, so omega * half is not finite for any harmonic
    with pytest.raises(BudgetExceededError, match="harmonic 1 "):
        vanishing_integral(LogNormalWeight(1e160), 0, 1)
