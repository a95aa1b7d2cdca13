"""Hankel positivity, orthogonal bases, and moment-level indistinguishability.

Frozen coefficient rows come from an independent mpmath Gram-Schmidt at 60
digits (oracles.mp_orthonormal_coeffs); the live comparison below re-runs
it for three weights.  The same-moments-same-basis tests are the heart of
the matter: measures that differ pointwise by a visible amount produce
Gram matrices and bases identical to within quadrature error.
"""

import math

import numpy as np
import pytest

from test_measures import trig_modulator, weier_modulator

import oracles
from qmoments.logscale import LogScaled
from qmoments.measures import BudgetExceededError, LogNormalWeight, PerturbedDensity
from qmoments.moments import (
    MAX_BASIS_DEGREE,
    MomentSequence,
    cross_orthogonality_check,
    hankel_check,
    orthogonal_basis_from_moments,
)

# monic rows in y = x/rho at k = 1, from mpmath at 60 digits
FROZEN_K1_ROWS = {
    1: [-1.0, 1.0],
    2: [2.7182818284590452, -4.3670030991591734, 1.0],
    3: [-20.085536923187668, 39.657086982821791, -14.58902699772776, 1.0],
}


def closed_seq(k, count=13):
    return MomentSequence.closed_form(LogNormalWeight(k), count)


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
        basis = orthogonal_basis_from_moments(closed_seq(1.0), 5)
        assert basis.monic[1, 0] == pytest.approx(-1.0, abs=1e-14)
        assert basis.monic[1, 1] == 1.0
        # rho = M_1/M_0 = exp(3/4); the degree-1 polynomial vanishes there
        rho = math.exp(basis.ln_rho)
        assert rho == pytest.approx(2.1170000166126748, rel=1e-15)
        assert abs(basis.evaluate_monic(1, rho)) <= 1e-13

    def test_frozen_rows_at_k1(self):
        basis = orthogonal_basis_from_moments(closed_seq(1.0), 5)
        for i, row in FROZEN_K1_ROWS.items():
            for j, ref in enumerate(row):
                assert basis.monic[i, j] == pytest.approx(
                    ref, abs=1e-13 * max(1.0, abs(ref))
                )
        # the constant terms are powers of e
        assert basis.monic[2, 0] == pytest.approx(math.e, rel=1e-13)
        assert basis.monic[3, 0] == pytest.approx(-math.exp(3.0), rel=1e-13)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_against_mpmath_gram_schmidt(self, k):
        basis = orthogonal_basis_from_moments(closed_seq(k), 5)
        ref = oracles.mp_orthonormal_coeffs(k, 5)
        for i in range(6):
            for j in range(i + 1):
                r = float(ref[i][j])
                assert abs(basis.monic[i, j] - r) <= 1e-10 * max(1.0, abs(r))
        assert basis.gram_residual <= 1e-11

    def test_monic_diagonal_is_exactly_one(self):
        basis = orthogonal_basis_from_moments(closed_seq(0.5), 6)
        assert all(basis.monic[i, i] == 1.0 for i in range(7))

    def test_evaluate_monic_shapes_and_validation(self):
        basis = orthogonal_basis_from_moments(closed_seq(1.0), 3)
        xs = np.array([0.5, 1.0, 2.0])
        vals = basis.evaluate_monic(2, xs)
        assert vals.shape == (3,)
        y = 2.0 * math.exp(-basis.ln_rho)
        by_hand = y * y + basis.monic[2, 1] * y + basis.monic[2, 0]
        assert vals[2] == pytest.approx(by_hand, rel=1e-15)
        for bad in (-1, 4, 1.5, True):
            with pytest.raises(ValueError):
                basis.evaluate_monic(bad, 1.0)

    def test_degree_and_length_validation(self):
        seq = closed_seq(1.0)
        for bad in (0, MAX_BASIS_DEGREE + 1, 2.5, True):
            with pytest.raises(ValueError):
                orthogonal_basis_from_moments(seq, bad)
        with pytest.raises(ValueError):
            orthogonal_basis_from_moments(closed_seq(1.0, 6), 3)
        with pytest.raises(ValueError):
            orthogonal_basis_from_moments([1.0], 2)

    def test_non_positive_definite_moments_refused(self):
        seq = MomentSequence.from_values([1.0, 2.0, 1.0])
        with pytest.raises(BudgetExceededError, match="positive definite"):
            orthogonal_basis_from_moments(seq, 1)

    def test_broad_weight_overflow_refused(self):
        seq = MomentSequence.closed_form(LogNormalWeight(0.15), 13)
        with pytest.raises(BudgetExceededError, match="overflow"):
            orthogonal_basis_from_moments(seq, 6)


class TestSharedMomentStructure:
    def test_perturbed_density_hankel_and_cross_orthogonality(self):
        base = closed_seq(1.0)
        basis = orthogonal_basis_from_moments(base, 5)
        d = PerturbedDensity.of(
            trig_modulator(1.0, 0.9, [(0.7, 1, "sine"), (0.3, 2, "sine")])
        )
        seq = MomentSequence.from_quadrature(d, 13)
        rep = hankel_check(seq)
        assert rep.positive_definite
        assert rep.shifted_positive_definite
        assert rep.moment_error <= 1e-12
        assert cross_orthogonality_check(basis, seq) <= 1e-6
        assert cross_orthogonality_check(basis, seq) <= 1e-10

    def test_quadrature_moments_reproduce_the_basis(self):
        # build the basis twice, from exact moments and from quadrature
        # moments of a visibly different density; coefficients agree far
        # below any pointwise difference between the measures
        base = closed_seq(1.0)
        basis = orthogonal_basis_from_moments(base, 5)
        d = PerturbedDensity.of(
            trig_modulator(1.0, 0.9, [(0.7, 1, "sine"), (0.3, 2, "sine")])
        )
        other = orthogonal_basis_from_moments(
            MomentSequence.from_quadrature(d, 13), 5
        )
        gap = np.max(
            np.abs(other.monic - basis.monic)
            / np.maximum(1.0, np.abs(basis.monic))
        )
        assert gap <= 1e-7
        assert gap <= 1e-11

    def test_nowhere_differentiable_member_shares_the_structure(self):
        base = closed_seq(1.0)
        basis = orthogonal_basis_from_moments(base, 5)
        d = PerturbedDensity.of(weier_modulator(1.0, 0.9, 0.5, 3, 10))
        seq = MomentSequence.from_quadrature(d, 13)
        rep = hankel_check(seq)
        assert rep.positive_definite
        assert rep.shifted_positive_definite
        # quadrature error is tiny; the reported moment error is dominated
        # by the series cutoff bound, which is honest but coarse
        assert rep.moment_error <= 2e-3
        assert cross_orthogonality_check(basis, seq) <= 1e-6

    def test_cross_orthogonality_validation(self):
        basis = orthogonal_basis_from_moments(closed_seq(1.0), 5)
        with pytest.raises(ValueError):
            cross_orthogonality_check(basis, closed_seq(1.0, 6))
        with pytest.raises(ValueError):
            cross_orthogonality_check(basis, [1.0])
        with pytest.raises(ValueError):
            cross_orthogonality_check(object(), closed_seq(1.0))
