"""The Filon rule for oscillatory components against independent oracles.

Spherical Bessel functions are checked against scipy and mpmath, single
panels against the closed complex-erf form at harmonics 3^10 and 3^20,
and whole components against the composite Gauss-Legendre path the rule
replaced.  One call integrates many components, and many orders, as if
one at a time, and anchors its phases once.  The rule's cost must not
depend on the harmonic.
"""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from qmoments import quadrature as qd
from qmoments.measures import (
    LogNormalWeight,
    Modulator,
    PerturbedDensity,
    WeierstrassSpec,
)
from qmoments.quadrature import (
    BudgetExceededError,
    QuadratureSpec,
    integrate_moment,
    vanishing_integral,
)

import oracles

EPS = 2.220446049250313e-16
# the tiny points straddle 2**-30, below which the leading terms serve, and
# 1e-110, below which Miller's recurrence would overflow
J_POINTS = [0.0, 1e-8, 0.3, math.pi, 20.0, 31.5, 32.0, 1e3, 2.7e5, 1e12,
            1e-300, 1e-200, 1e-120, 3e-50, 1e-30, 2.0**-31, 2.0**-30, 1e-9]
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
    w = qd._FILON_MATRIX @ qd._spherical_jn(0.0)
    assert np.array_equal(w.real, qd._GL_WEIGHTS)
    assert not np.any(w.imag)


KINDS = pytest.mark.parametrize("kind", ["sine", "cosine"], ids=["sine-1", "cosine-2"])


def panels(k, n, components):
    _, T, grids = qd._plan_components(k, [n], [], QuadratureSpec())
    _, (coarse,), (fine,), weight_error = qd._panel_integrals(k, [n], components, grids)
    return T, (coarse, fine, weight_error)


@pytest.mark.parametrize("harmonic", [3**10, 3**20])
@pytest.mark.parametrize("k, n", [(1.0, 5), (0.45, 7), (3.0, -3)])
@KINDS
def test_panels_match_complex_erf_closed_form(harmonic, k, n, kind):
    # one call with the base and the oscillatory component; every panel
    # of both columns and both passes against the closed form
    components = [(0, "cosine"), (harmonic, kind)]
    T, (coarse, fine, _) = panels(k, n, components)
    mu, _, c0, c1 = qd._center_residuals(k, n)
    for got in (coarse, fine):
        centers, half = qd._panel_grid(T, got.shape[0])
        phase0 = qd._phase_anchors(k, mu, [h for h, _ in components], [(centers, half)])
        for col, (h, kd) in enumerate(components):
            a = qd._omega_s(k, h) * half
            ref = np.array([
                oracles.mp_panel(k, c0, c1, c, half, ph, a, kd)
                for c, ph in zip(centers, phase0[:, col])
            ])
            err = np.max(np.abs(got[:, col] - ref))
            # the base's O(1) panels carry the envelope's own rounding
            assert err <= max(1e-17, 4 * EPS * np.max(np.abs(ref))), (len(got), h)
            assert err <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [0.45, 0.5, 1.0, 2.0, 3.0])
@KINDS
def test_components_match_gauss_legendre_path(k, kind):
    harmonics = (1, 2, 3**4, 3**7)
    for n in (-3, 0, 5, 20):
        _, (_, fine, _) = panels(k, n, [(h, kind) for h in harmonics])
        for harmonic, got in zip(harmonics, fine.sum(axis=0)):
            ref = oracles.gl_component(k, n, harmonic, kind)
            assert abs(got - ref) <= 1e-14, (n, harmonic)


@pytest.mark.parametrize("k, n", [(0.45, 20), (1.0, 3), (3.0, -3)])
def test_one_call_matches_components_one_at_a_time(k, n):
    components = [(0, "cosine"), (1, "sine"), (1, "cosine"), (5, "sine"),
                  (3**7, "cosine"), (3**10, "sine"), (2**50, "sine")]
    _, (coarse, fine, weight_error) = panels(k, n, components)
    # the product of several columns may round each panel differently
    # from one column alone, by up to an ulp
    tol = 4 * EPS * math.sqrt(math.pi) / k
    for col, comp in enumerate(components):
        _, (c1, f1, w1) = panels(k, n, [comp])
        assert abs(fine[:, col].sum() - f1.sum()) <= tol, comp
        assert abs(coarse[:, col].sum() - c1.sum()) <= tol, comp
        assert weight_error[col] == pytest.approx(w1[0], rel=4 * EPS)


def test_weight_rounding_term_covers_the_high_harmonic_sine():
    # A seam between panels here would add ~6.6e-16 of the scale (eps*|c|
    # times the integrand, uncancelled); with exact centers the weights'
    # rounding, 2 eps S(a) with S(2943) = 0.19, is what remains to bound.
    k, h = 0.45, 3**7
    w = LogNormalWeight(k)
    for n in (-3, 0, 5, 20):
        T, (coarse, fine, weight_error) = panels(k, n, [(h, "sine")])
        centers, half = qd._panel_grid(T, fine.shape[0])
        assert np.all(np.diff(centers) == 2.0 * half)
        assert centers[-1] + half >= T
        assert abs(fine.sum()) * k / math.sqrt(math.pi) <= weight_error[0] < 1e-16
        r = vanishing_integral(w, n, h)
        assert r.rel_quad_error >= weight_error[0]
        assert abs(r.value_over_scale()) <= weight_error[0]


ANGLE_TOL = 2.0**-50


@pytest.mark.parametrize("k", [0.31, 1.0, 2.9])
def test_anchors_match_exact_phases(k):
    # A window of over 2**12 panels a pass, at orders and harmonics where a
    # rounded ln q drifts by up to ~1e-9 rad; every anchor must be within
    # about an ulp of 2 pi of the exact phase.
    _, _, grids = qd._plan_components(k, [0], [], QuadratureSpec(truncation=1600.0 / k))
    assert grids[0][0].size >= 2**12
    mus = [qd._center_residuals(k, n)[0] for n in (-3, 2**20)]
    harmonics = [3**33, 2**53]
    got = qd._phase_anchors(k, np.array(mus), harmonics, grids)
    centers = np.concatenate([c for c, _ in grids]).tolist()
    assert oracles.exact_anchor_error(k, mus, centers, harmonics, got) <= ANGLE_TOL


@pytest.mark.parametrize("call", [
    lambda: integrate_moment(LogNormalWeight(0.7), 4),
    lambda: integrate_moment(PerturbedDensity.of(
        Modulator(LogNormalWeight(1.0), 0.9, WeierstrassSpec(0.5, 3, 10, "sine"))), 2),
    lambda: vanishing_integral(LogNormalWeight(1.0), 3, 5),
    # a block of orders anchors all its orders in one call
    lambda: list(qd._integrate_orders(PerturbedDensity.of(
        Modulator(LogNormalWeight(1.0), 0.9, WeierstrassSpec(0.5, 3, 10, "sine"))), range(12))),
    lambda: list(qd._vanishing_orders(LogNormalWeight(1.0), range(11), 5)),
], ids=["base", "weierstrass", "vanishing", "block", "vanishing-block"])
def test_each_integral_anchors_its_phases_once(call, monkeypatch):
    calls = []
    anchors = qd._phase_anchors

    def counted(*args):
        calls.append(args)
        return anchors(*args)

    monkeypatch.setattr(qd, "_phase_anchors", counted)
    call()
    assert len(calls) == 1


def test_component_cost_does_not_grow_with_harmonic():
    w = LogNormalWeight(1.0)
    low = vanishing_integral(w, 3, 1)
    high = vanishing_integral(w, 3, 3**10)
    assert low.nodes_used == high.nodes_used == 32 * (15 + 23)


def test_unrepresentable_oscillation_is_refused_by_harmonic():
    # k**2 overflows, so omega * half is not finite for any harmonic
    with pytest.raises(BudgetExceededError, match="harmonic 1 "):
        vanishing_integral(LogNormalWeight(1e160), 0, 1)
