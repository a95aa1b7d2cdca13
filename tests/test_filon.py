"""The Filon rule for oscillatory components against independent oracles.

Spherical Bessel functions are checked against scipy and mpmath, single
panels against the closed complex-erf form at harmonics 3^10 and 3^20,
and whole components against the composite Gauss-Legendre path the rule
replaced.  One call integrates many components, and many orders, as if
one at a time, and anchors its phases once.  The rule's cost must not
depend on the harmonic.
"""

import math

import mpmath
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
GL_EXACT = oracles.mp_gauss_legendre()


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


def panels(k, n, components, count=None):
    """One order's partials and bounds on the planned grid, or on ``count``
    panels over the same window."""
    _, T, grid = qd._plan_components(k, [n], [], QuadratureSpec())
    if count is not None:
        grid = qd._panel_grid(T, count)
    _, (got,), (bound,) = qd._panel_integrals(k, [n], components, grid)
    return T, got, bound


def more_panels(got):
    return math.ceil(1.5 * got.shape[0])


@pytest.mark.parametrize("harmonic", [3**10, 3**20])
@pytest.mark.parametrize("k, n", [(1.0, 5), (0.45, 7), (3.0, -3)])
@KINDS
def test_panels_match_complex_erf_closed_form(harmonic, k, n, kind):
    # one call with the base and the oscillatory component; every panel
    # of both columns, on the planned grid and on 1.5x as many panels
    components = [(0, "cosine"), (harmonic, kind)]
    T, planned, _ = panels(k, n, components)
    mu, _, c0, c1 = qd._center_residuals(k, n)
    for got in (planned, panels(k, n, components, more_panels(planned))[1]):
        centers, half = qd._panel_grid(T, got.shape[0])
        phase0 = qd._phase_anchors(k, mu, [h for h, _ in components], (centers, half))
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
        _, got, _ = panels(k, n, [(h, kind) for h in harmonics])
        for harmonic, total in zip(harmonics, got.sum(axis=0)):
            ref = oracles.gl_component(k, n, harmonic, kind)
            assert abs(total - ref) <= 1e-14, (n, harmonic)


@pytest.mark.parametrize("k, n", [(0.45, 20), (1.0, 3), (3.0, -3)])
def test_one_call_matches_components_one_at_a_time(k, n):
    components = [(0, "cosine"), (1, "sine"), (1, "cosine"), (5, "sine"),
                  (3**7, "cosine"), (3**10, "sine"), (2**50, "sine")]
    _, planned, _ = panels(k, n, components)
    # the product of several columns may round each panel differently
    # from one column alone, by up to an ulp
    tol = 4 * EPS * math.sqrt(math.pi) / k
    for count in (None, more_panels(planned)):
        _, got, bound = panels(k, n, components, count)
        for col, comp in enumerate(components):
            _, g1, b1 = panels(k, n, [comp], count)
            assert abs(got[:, col].sum() - g1.sum()) <= tol, comp
            assert bound[col] == pytest.approx(b1[0], rel=4 * EPS)


@pytest.mark.parametrize("k, n", [(0.45, 40), (1.0, 3), (2.0, 10), (3.0, -3), (0.31, 2**10)])
def test_two_panel_counts_agree_within_their_bounds(k, n):
    # The runtime-free guard of the anchors and weights: the planned grid
    # and 1.5x as many panels share no panel center, anchor or weight
    # vector, and each derived bound covers its own sum, so the sums must
    # agree within the two bounds together.
    components = [(0, "cosine"), (1, "sine"), (2, "cosine"), (5, "sine"),
                  (31, "cosine"), (3**7, "sine"), (3**10, "cosine")]
    _, planned, bound = panels(k, n, components)
    _, more, more_bound = panels(k, n, components, more_panels(planned))
    gap = np.abs(planned.sum(axis=0) - more.sum(axis=0)) * k / math.sqrt(math.pi)
    assert np.all(gap <= bound + more_bound), gap / (bound + more_bound)


def test_gauss_legendre_tables_match_mpmath():
    # numpy's nodes serve, within half an ulp of 1; the weights are the
    # exact ones rounded (numpy's miss by up to 525 u at the ends)
    nodes, weights = GL_EXACT
    assert qd._GL_WEIGHTS.tolist() == [float(w) for w in weights]
    worst = max(abs(mpmath.mpf(x) - v) for x, v in zip(qd._GL_NODES.tolist(), nodes))
    assert worst <= 0.42 * EPS / 2


@pytest.mark.parametrize("a", [0.0, 1e-3, -0.3, -1.0, -2.06, -5.0, -10.0, -20.0, -28.0,
                               -31.0, -32.0, -47.0, -100.0, -1e3, -2.8e5, -1e8, 7.5])
def test_filon_weights_within_their_rounding_term(a):
    # sum_i |W_i - exact| <= 2 eps S(a), against the rule at the exact
    # Gauss-Legendre nodes and weights: the weight term of the bound (the
    # quadrature's a = omega * half is negative)
    nodes, weights = GL_EXACT
    exact = oracles.mp_filon_weights(a, nodes, weights)
    got = qd._FILON_MATRIX @ qd._spherical_jn(a)
    err = sum(abs(mpmath.mpc(g.real, g.imag) - w) for g, w in zip(got.tolist(), exact))
    spread = np.sum((2 * LS + 1) * np.abs(qd._spherical_jn(a)))
    assert float(err) <= 2 * EPS * spread


def test_weight_rounding_term_covers_the_high_harmonic_sine():
    # A seam between panels here would add ~6.6e-16 of the scale (eps*|c|
    # times the integrand, uncancelled); with exact centers the weights'
    # rounding, 2 eps S(a) with S(-4511) = 0.15, is what remains to bound.
    k, h = 0.45, 3**7
    w = LogNormalWeight(k)
    for n in (-3, 0, 5, 20):
        T, got, _ = panels(k, n, [(h, "sine")])
        centers, half = qd._panel_grid(T, got.shape[0])
        assert np.all(np.diff(centers) == 2.0 * half)
        assert centers[-1] + half >= T
        jn = qd._spherical_jn(qd._omega_s(k, h) * half)
        weight_error = 2 * EPS * np.sum((2 * LS + 1) * np.abs(jn))
        assert abs(got.sum()) * k / math.sqrt(math.pi) <= weight_error < 1e-16
        r = vanishing_integral(w, n, h)
        assert r.rel_quad_error >= weight_error
        assert abs(r.value_over_scale()) <= weight_error


ANGLE_TOL = 2.0**-50


@pytest.mark.parametrize("k", [0.31, 1.0, 2.9])
def test_anchors_match_exact_phases(k):
    # Windows of over 2**12 panels, at orders and harmonics where a
    # rounded ln q drifts by up to ~1e-9 rad; every anchor must be within
    # about an ulp of 2 pi of the exact phase.
    _, T, (centers, _) = qd._plan_components(k, [0], [], QuadratureSpec(truncation=1600.0 / k))
    assert centers.size >= 2**12
    mus = [qd._center_residuals(k, n)[0] for n in (-3, 2**20)]
    harmonics = [3**33, 2**53]
    for count in (centers.size, math.ceil(1.5 * centers.size)):
        grid = qd._panel_grid(T, count)
        got = qd._phase_anchors(k, np.array(mus), harmonics, grid)
        err = oracles.exact_anchor_error(k, mus, grid[0].tolist(), harmonics, got)
        assert err <= ANGLE_TOL


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
    assert low.nodes_used == high.nodes_used == 32 * 15


def test_unrepresentable_oscillation_is_refused_by_harmonic():
    # k**2 overflows, so omega * half is not finite for any harmonic
    with pytest.raises(BudgetExceededError, match="harmonic 1 "):
        vanishing_integral(LogNormalWeight(1e160), 0, 1)
