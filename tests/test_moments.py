"""Hankel positivity, the Stieltjes-Wigert basis, and moment-level indistinguishability.

Frozen coefficient rows come from an independent mpmath Gram-Schmidt at 60
digits (oracles.mp_orthonormal_coeffs); the live comparison below re-runs
it for three weights against the closed-form coefficients, and the norms
are held to mpmath Hankel determinants.  The same-moments-same-Gram tests
are the heart of the matter: measures that differ pointwise by a visible
amount leave the weight's orthonormal polynomials orthonormal to within
rounding and quadrature error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_measures import trig_modulator, weier_modulator

import oracles
from qmoments.logscale import LogScaled
from qmoments.measures import BudgetExceededError, LogNormalWeight, PerturbedDensity
from qmoments.moments import (
    MomentSequence,
    _sw_log_coefficients,
    hankel_check,
    stieltjes_wigert_check,
)

# monic rows in y = x/rho at k = 1, from mpmath at 60 digits
FROZEN_K1_ROWS = {
    1: [-1.0, 1.0],
    2: [2.7182818284590452, -4.3670030991591734, 1.0],
    3: [-20.085536923187668, 39.657086982821791, -14.58902699772776, 1.0],
}


def closed_seq(k, count=13):
    return MomentSequence.closed_form(LogNormalWeight(k), count)


def monic_rows(k, degree):
    """Closed-form monic rows in y = x/rho, rho = M_1/M_0 = q**(-3/2)."""
    w = LogNormalWeight(k)
    sign, ln_c, _, _ = _sw_log_coefficients(w, degree)
    n = np.arange(degree + 1)
    ln_rho = -1.5 * w.ln_q
    return (sign * sign[:, None]
            * np.exp(ln_c - np.diag(ln_c)[:, None] + (n - n[:, None]) * ln_rho))


class TestMomentSequence:
    def test_closed_form_values(self):
        seq = closed_seq(1.0, 5)
        assert len(seq) == 5
        assert seq[0].ln_abs == pytest.approx(0.25, abs=1e-16)
        assert seq[3].ln_abs == pytest.approx(4.0, abs=1e-15)
        assert seq.max_error == 0.0
        assert seq.k == 1.0

    def test_from_values_mixed(self):
        seq = MomentSequence.from_values([2.0, LogScaled.exp(1.0), 3.5])
        assert seq[0].ln_abs == pytest.approx(math.log(2.0))
        assert seq[1].ln_abs == 1.0
        assert seq.k is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentSequence(values=(), error_estimates=())
        with pytest.raises(ValueError):
            MomentSequence(values=(1.0,), error_estimates=(0.0,))
        with pytest.raises(ValueError):
            MomentSequence(values=(LogScaled.exp(0.0),), error_estimates=())
        with pytest.raises(ValueError):
            MomentSequence.closed_form(LogNormalWeight(1.0), 0)
        with pytest.raises(ValueError):
            MomentSequence.closed_form(LogNormalWeight(1.0), True)


class TestHankel:
    @pytest.mark.parametrize("k", [0.35, 0.5, 1.0, 2.0])
    def test_base_weight_is_positive_definite(self, k):
        rep = hankel_check(closed_seq(k))
        assert rep.dim == 6
        assert rep.positive_definite
        assert rep.shifted_positive_definite
        assert rep.min_eigenvalue > 0.0
        assert rep.moment_error == 0.0
        # the two normalized matrices are the same Gaussian Toeplitz form,
        # so their spectra agree to rounding
        assert rep.shifted_condition == pytest.approx(rep.condition, rel=1e-10)

    def test_frozen_spectrum_at_k1(self):
        rep = hankel_check(closed_seq(1.0), 6)
        assert rep.min_eigenvalue == pytest.approx(7.2052027337984e-3, rel=1e-10)
        assert rep.condition == pytest.approx(417.87497306936, rel=1e-10)

    def test_rejects_positive_semidefinite_boundary(self):
        # M = (1, 0, 1): fine on the whole line, but the shifted matrix
        # [M_1] = [0] rules out a positive measure on (0, inf)
        rep = hankel_check(MomentSequence.from_values([1.0, 0.0, 1.0]))
        assert rep.dim == 1
        assert rep.positive_definite
        assert not rep.shifted_positive_definite
        assert math.isnan(rep.shifted_min_eigenvalue)

    def test_rejects_cauchy_schwarz_violation(self):
        rep = hankel_check(MomentSequence.from_values([1.0, 2.0, 1.0, 9.0]))
        assert rep.dim == 2
        assert not rep.positive_definite
        assert rep.min_eigenvalue < 0.0
        assert rep.shifted_positive_definite

    def test_rejects_negative_odd_moments(self):
        seq = MomentSequence.from_values([1.0, -1.0, 1.0, -1.0])
        rep = hankel_check(seq, 1)
        assert rep.positive_definite
        assert not rep.shifted_positive_definite
        assert math.isnan(rep.shifted_min_eigenvalue)
        assert math.isnan(rep.shifted_condition)

    def test_dim_validation(self):
        seq = closed_seq(1.0, 6)
        assert hankel_check(seq).dim == 3
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ValueError):
                hankel_check(seq, bad)
        with pytest.raises(ValueError):
            hankel_check(seq, 4)
        with pytest.raises(ValueError):
            hankel_check([1.0, 2.0])


class TestOrthogonalBasis:
    def test_first_polynomial_is_mean_centered(self):
        monic = monic_rows(1.0, 5)
        assert monic[1, 0] == pytest.approx(-1.0, abs=1e-14)
        assert monic[1, 1] == 1.0
        # rho = M_1/M_0 = exp(3/4); the degree-1 polynomial vanishes there
        w = LogNormalWeight(1.0)
        rho = math.exp(-1.5 * w.ln_q)
        assert rho == pytest.approx(2.1170000166126748, rel=1e-15)
        sign, ln_c, _, _ = _sw_log_coefficients(w, 1)
        assert abs(sign[0] * math.exp(ln_c[1, 0]) + sign[1] * math.exp(ln_c[1, 1]) * rho) <= 1e-13

    def test_frozen_rows_at_k1(self):
        monic = monic_rows(1.0, 5)
        for i, row in FROZEN_K1_ROWS.items():
            for j, ref in enumerate(row):
                assert monic[i, j] == pytest.approx(
                    ref, abs=1e-13 * max(1.0, abs(ref))
                )
        # the constant terms are powers of e
        assert monic[2, 0] == pytest.approx(math.e, rel=1e-13)
        assert monic[3, 0] == pytest.approx(-math.exp(3.0), rel=1e-13)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_against_mpmath_gram_schmidt(self, k):
        monic = monic_rows(k, 5)
        ref = oracles.mp_orthonormal_coeffs(k, 5)
        for i in range(6):
            for j in range(i + 1):
                r = float(ref[i][j])
                assert abs(monic[i, j] - r) <= 1e-10 * max(1.0, abs(r))
        assert stieltjes_wigert_check(LogNormalWeight(k), closed_seq(k, 11), 5).residual <= 1e-11

    @pytest.mark.parametrize("k", [0.45, 1.0, 3.0])
    def test_norms_against_mpmath_hankel_determinants(self, k):
        _, _, ln_h, _ = _sw_log_coefficients(LogNormalWeight(k), 6)
        for n, ref in enumerate(oracles.mp_sw_norms(k, 6, dps=300)):
            assert math.exp(ln_h[n] - float(oracles.mpmath.log(ref))) == pytest.approx(1.0, abs=1e-13)

    def test_monic_diagonal_is_exactly_one(self):
        monic = monic_rows(0.5, 6)
        assert all(monic[i, i] == 1.0 for i in range(7))
        assert np.all(np.triu(monic, 1) == 0.0)

    def test_degree_and_length_validation(self):
        w, seq = LogNormalWeight(1.0), closed_seq(1.0)
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError):
                stieltjes_wigert_check(w, seq, bad)
        with pytest.raises(ValueError, match="degree 3 needs 7 moments"):
            stieltjes_wigert_check(w, closed_seq(1.0, 6), 3)
        with pytest.raises(ValueError):
            stieltjes_wigert_check(w, [1.0], 2)

    def test_non_positive_definite_moments_refused(self):
        seq = MomentSequence.from_values([1.0, 2.0, -1.0])
        with pytest.raises(ValueError, match="even moment is not positive"):
            stieltjes_wigert_check(LogNormalWeight(1.0), seq, 1)

    def test_broad_weight_overflow_refused(self):
        # at k = 0.15 the closed form is decided where the numerical basis
        # overflowed; at k = 1e-30 the exponents cancel below float64 resolution
        rep = stieltjes_wigert_check(LogNormalWeight(0.15), closed_seq(0.15), 6)
        assert rep.residual <= rep.bound <= 1e-9
        w = LogNormalWeight(1e-30)
        with pytest.raises(BudgetExceededError, match="k=1e-30"):
            stieltjes_wigert_check(w, MomentSequence.closed_form(w, 13), 6)

    def test_other_moments_are_not_passed(self):
        # a sequence that is not the weight's moves G far beyond the bound
        seq = MomentSequence.from_values([1.0, 2.0, 1.0])
        rep = stieltjes_wigert_check(LogNormalWeight(1.0), seq, 1)
        assert rep.residual > 1.0 and rep.bound <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(k=st.floats(0.3, 10.0), degree=st.integers(1, 10))
    def test_rounding_bound_covers_the_closed_form(self, k, degree):
        # the exact residual of closed-form moments is 0, so the computed
        # one is pure rounding and must lie inside the bound
        w = LogNormalWeight(k)
        rep = stieltjes_wigert_check(w, MomentSequence.closed_form(w, 2 * degree + 1), degree)
        assert rep.degree == degree
        assert rep.residual <= rep.bound


class TestSharedMomentStructure:
    def test_perturbed_density_hankel_and_cross_orthogonality(self):
        d = PerturbedDensity.of(
            trig_modulator(1.0, 0.9, [(0.7, 1, "sine"), (0.3, 2, "sine")])
        )
        seq = MomentSequence.from_quadrature(d, 13)
        rep = hankel_check(seq)
        assert rep.positive_definite
        assert rep.shifted_positive_definite
        assert rep.moment_error <= 1e-12
        gram = stieltjes_wigert_check(LogNormalWeight(1.0), seq, 6)
        assert gram.residual <= 1e-6
        assert gram.residual <= 1e-10
        assert gram.residual + gram.bound <= 1e-6

    def test_nowhere_differentiable_member_shares_the_structure(self):
        d = PerturbedDensity.of(weier_modulator(1.0, 0.9, 0.5, 3, 10))
        seq = MomentSequence.from_quadrature(d, 13)
        rep = hankel_check(seq)
        assert rep.positive_definite
        assert rep.shifted_positive_definite
        # the truncated series is a finite sine sum, so its density shares
        # every moment; the moment error is the quadrature's alone
        assert rep.moment_error <= 1e-12
        gram = stieltjes_wigert_check(LogNormalWeight(1.0), seq, 6)
        assert gram.residual <= 1e-6
        assert gram.residual + gram.bound <= 1e-6

    def test_cross_orthogonality_validation(self):
        # the weight side is checked as well as the moment side
        d = PerturbedDensity.of(trig_modulator(1.0, 0.9, [(0.7, 1, "sine")]))
        with pytest.raises(ValueError, match="degree 5 needs 11 moments"):
            stieltjes_wigert_check(LogNormalWeight(1.0), MomentSequence.from_quadrature(d, 6), 5)
        for not_a_weight in (object(), 1.0, d):
            with pytest.raises(ValueError, match="expected a LogNormalWeight"):
                stieltjes_wigert_check(not_a_weight, closed_seq(1.0), 5)

    def test_moment_errors_enter_the_bound(self):
        # the same moments with a stated relative error of 1e-9 each
        seq = closed_seq(1.0)
        noisy = MomentSequence(seq.values, (1e-9,) * len(seq), k=1.0)
        w = LogNormalWeight(1.0)
        exact = stieltjes_wigert_check(w, seq, 6)
        rep = stieltjes_wigert_check(w, noisy, 6)
        assert rep.residual == exact.residual
        assert rep.bound > exact.bound + 1e-9
