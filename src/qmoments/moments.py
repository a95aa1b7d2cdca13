"""Hankel positivity and orthogonal polynomial structure from moments.

Raw Hankel matrices for this moment family are useless in float64: the
entries M_{i+j} = exp((i+j+1)^2 / (4 k^2)) span hundreds of orders of
magnitude.  Every matrix here is therefore built in diagonally normalized
coordinates, Hhat_ij = M_{i+j} / sqrt(M_{2i} M_{2j}), whose entries lie in
[-1, 1] and whose positive definiteness is equivalent to that of the raw
matrix (the normalization is a congruence by a positive diagonal).  For
the base weight the normalized Hankel collapses to the Gaussian Toeplitz
form exp(-(i-j)^2 / (4 k^2)), which keeps condition numbers tame for the
small dimensions treated here.

Orthogonal polynomials come out in the scaled variable y = x / rho with
rho = M_1 / M_0, as monic coefficient rows.  The degree is capped at
``MAX_BASIS_DEGREE``: beyond that the monic coefficients themselves
approach the float64 range and the normalized Gram matrix approaches
numerical rank deficiency for broad weights.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .logscale import LogScaled
from .measures import BudgetExceededError, LogNormalWeight, PerturbedDensity, _check_int
from .quadrature import QuadratureSpec, _integrate_orders, base_moment_closed_form

__all__ = [
    "MAX_BASIS_DEGREE",
    "MomentSequence",
    "HankelReport",
    "hankel_check",
    "OrthogonalBasis",
    "orthogonal_basis_from_moments",
    "cross_orthogonality_check",
]

MAX_BASIS_DEGREE = 6

# largest 0.5 * ln mhat_{2 degree} the monic conversion tolerates before
# its coefficients leave float64 range
_MAX_HALF_LOG = 300.0


@dataclass(frozen=True)
class MomentSequence:
    """Integer moments M_0 .. M_{len-1} in log-scaled form.

    ``error_estimates`` holds one relative error bound per moment, zero
    for exact constructions.  ``k`` is carried when the sequence came
    from a known weight; it is informational only.
    """

    values: tuple
    error_estimates: tuple
    k: Union[float, None] = None

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("a moment sequence needs at least one moment")
        if len(self.values) != len(self.error_estimates):
            raise ValueError("one error estimate per moment is required")
        for v in self.values:
            if not isinstance(v, LogScaled):
                raise ValueError(f"moments must be LogScaled, got {v!r}")

    @classmethod
    def closed_form(cls, w: LogNormalWeight, count: int) -> "MomentSequence":
        """Exact base-weight moments, count of them starting at M_0."""
        count = _check_int(count, "count", 1)
        vals = tuple(base_moment_closed_form(w, n) for n in range(count))
        return cls(values=vals, error_estimates=(0.0,) * count, k=w.k)

    @classmethod
    def from_quadrature(
        cls,
        obj: Union[LogNormalWeight, PerturbedDensity],
        count: int,
        spec: QuadratureSpec = QuadratureSpec(),
    ) -> "MomentSequence":
        """Moments of a weight or perturbed density by verified quadrature."""
        count = _check_int(count, "count", 1)
        vals, errs = [], []
        for r in _integrate_orders(obj, range(count), spec):
            vals.append(r.value)
            errs.append(r.error_estimate + r.series_tail_budget)
        k = obj.k if isinstance(obj, LogNormalWeight) else obj.weight.k
        return cls(values=tuple(vals), error_estimates=tuple(errs), k=k)

    @classmethod
    def from_values(cls, values: Sequence, k=None) -> "MomentSequence":
        """Wrap plain floats (or LogScaled) as an exact moment sequence."""
        vals = tuple(
            v if isinstance(v, LogScaled) else LogScaled.from_float(float(v))
            for v in values
        )
        return cls(values=vals, error_estimates=(0.0,) * len(vals), k=k)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> LogScaled:
        return self.values[n]

    @property
    def max_error(self) -> float:
        return max(self.error_estimates)


@dataclass(frozen=True)
class HankelReport:
    """Positivity verdict for H and the shifted H1 at one dimension.

    ``min_eigenvalue`` and ``condition`` refer to the diagonally
    normalized matrices; they are NaN when the matrix cannot be formed
    because a diagonal moment is not strictly positive (which already
    settles positive definiteness as False).
    """

    dim: int
    positive_definite: bool
    shifted_positive_definite: bool
    min_eigenvalue: float
    shifted_min_eigenvalue: float
    condition: float
    shifted_condition: float
    moment_error: float


def _normalized_hankel(seq: MomentSequence, dim: int, shift: int):
    """Hhat_ij = M_{i+j+shift} / sqrt(M_{2i+shift} M_{2j+shift}), or None.

    None means a diagonal moment is zero or negative, so the raw matrix
    has a non-positive diagonal entry and cannot be positive definite.
    """
    diag_ln = np.empty(dim)
    for i in range(dim):
        v = seq[2 * i + shift]
        if v.sign <= 0:
            return None
        diag_ln[i] = v.ln_abs
    out = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            v = seq[i + j + shift]
            e = math.exp(v.ln_abs - 0.5 * (diag_ln[i] + diag_ln[j]))
            out[i, j] = out[j, i] = v.sign * e
    return out


def _pd_stats(mat, name):
    if mat is None:
        return False, math.nan, math.nan
    try:
        np.linalg.cholesky(mat)
        pd = True
    except np.linalg.LinAlgError:
        pd = False
    eigs = np.linalg.eigvalsh(mat)
    bound = len(mat) * np.finfo(float).eps * eigs[-1]
    if abs(eigs[0]) <= bound:
        raise BudgetExceededError(f"{name}: smallest eigenvalue {eigs[0]:.3g} is "
                                  f"within the rounding bound {bound:.3g}")
    cond = math.inf if eigs[0] <= 0.0 else float(eigs[-1] / eigs[0])
    return pd, float(eigs[0]), cond


def hankel_check(seq: MomentSequence, dim: Union[int, None] = None) -> HankelReport:
    """Check H_ij = M_{i+j} and H1_ij = M_{i+j+1} for positive definiteness.

    Both must be positive definite for the sequence to be the moments of
    a positive measure on the positive half line.  ``dim`` defaults to
    the largest size the sequence supports (needs 2*dim moments).  A
    normalized matrix whose smallest eigenvalue lies within the rounding
    bound dim * eps * (largest) is refused with BudgetExceededError.
    """
    if not isinstance(seq, MomentSequence):
        raise ValueError(f"expected a MomentSequence, got {seq!r}")
    available = len(seq) // 2
    if dim is None:
        dim = available
    dim = _check_int(dim, "dim", 1)
    if dim > available:
        raise ValueError(
            f"dim {dim} needs {2 * dim} moments, sequence has {len(seq)}"
        )
    name = f"k={seq.k!r}, dim={dim}"
    pd, eig, cond = _pd_stats(_normalized_hankel(seq, dim, 0), name)
    pd1, eig1, cond1 = _pd_stats(_normalized_hankel(seq, dim, 1), name + ", shifted")
    used = seq.error_estimates[: 2 * dim]
    return HankelReport(
        dim=dim,
        positive_definite=pd,
        shifted_positive_definite=pd1,
        min_eigenvalue=eig,
        shifted_min_eigenvalue=eig1,
        condition=cond,
        shifted_condition=cond1,
        moment_error=max(used),
    )


@dataclass(frozen=True)
class OrthogonalBasis:
    """Monic orthogonal polynomials of a positive moment sequence.

    ``monic[i, j]`` is the coefficient of y**j in the degree-i monic
    polynomial, y = x * exp(-ln_rho).  ``normalized[i, :]`` expresses the
    i-th orthonormal polynomial in the diagonally normalized monomial
    basis z_r = y**r / sqrt(mhat_{2r}); all cross-measure arithmetic
    happens there, where every quantity is O(1).  ``gram_residual`` is
    the max entrywise deviation of the reconstructed Gram matrix from the
    identity, a self-consistency figure for the factorization.
    """

    degree: int
    ln_rho: float
    ln_m0: float
    monic: np.ndarray
    normalized: np.ndarray
    half_log_diag: np.ndarray
    gram_residual: float
    k: Union[float, None] = None

    def evaluate_monic(self, i: int, x):
        """Value of the degree-i monic polynomial at x (scalar or array)."""
        i = _check_int(i, "polynomial index", 0, self.degree)
        y = np.asarray(x, dtype=float) * math.exp(-self.ln_rho)
        acc = np.zeros_like(y)
        for j in range(i, -1, -1):
            acc = acc * y + self.monic[i, j]
        return float(acc) if np.ndim(x) == 0 else acc


def _scaled_log_moments(seq: MomentSequence, count: int, ln_m0, ln_rho):
    """ln of M_n / (M_0 rho^n) for n < count; requires positive moments."""
    out = np.empty(count)
    for n in range(count):
        v = seq[n]
        if v.sign <= 0:
            raise ValueError(f"moment {n} is not positive; no orthogonal basis")
        out[n] = v.ln_abs - ln_m0 - n * ln_rho
    return out


def _normalized_gram(lnm, half):
    """G_rs = exp(lnm[r+s] - half[r] - half[s]), the Gram matrix of the
    monomials z_r = y**r / sqrt(mhat_{2r}) under the scaled log moments."""
    size = half.size
    gram = np.empty((size, size))
    for r in range(size):
        for s in range(r, size):
            gram[r, s] = gram[s, r] = math.exp(lnm[r + s] - half[r] - half[s])
    return gram


def _gram_residual(inv, gram) -> float:
    """max |inv G inv^T - I|: how far the rows of inv are from orthonormal."""
    return float(np.max(np.abs(inv @ gram @ inv.T - np.eye(gram.shape[0]))))


def orthogonal_basis_from_moments(
    seq: MomentSequence, degree: int
) -> OrthogonalBasis:
    """Monic orthogonal polynomials of degrees 0..degree for the sequence.

    Needs 2*degree + 1 moments.  Capped at MAX_BASIS_DEGREE; see the
    module docstring for why higher degrees are refused.  Overflowing monic
    coefficients and a Gram matrix not positive definite raise BudgetExceededError.
    """
    if not isinstance(seq, MomentSequence):
        raise ValueError(f"expected a MomentSequence, got {seq!r}")
    degree = _check_int(degree, "degree", 1, MAX_BASIS_DEGREE)
    need = 2 * degree + 1
    if len(seq) < need:
        raise ValueError(f"degree {degree} needs {need} moments, have {len(seq)}")
    if seq[0].sign <= 0 or seq[1].sign <= 0:
        raise ValueError("M_0 and M_1 must be positive to scale the variable")
    ln_m0 = seq[0].ln_abs
    ln_rho = seq[1].ln_abs - ln_m0
    lnm = _scaled_log_moments(seq, need, ln_m0, ln_rho)
    half = 0.5 * lnm[0 : 2 * degree + 1 : 2]
    if half[-1] > _MAX_HALF_LOG:
        raise BudgetExceededError(
            f"k={seq.k!r}: monic coefficients would overflow float64 at degree "
            f"{degree}; the weight is too broad (k too small)"
        )
    gram = _normalized_gram(lnm, half)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise BudgetExceededError(
            f"k={seq.k!r}: normalized moment Gram matrix is not positive definite"
        ) from None
    size = degree + 1
    inv = np.linalg.solve(chol, np.eye(size))
    residual = _gram_residual(inv, gram)
    monic = np.zeros((size, size))
    for i in range(size):
        for j in range(i + 1):
            monic[i, j] = inv[i, j] / inv[i, i] * math.exp(half[i] - half[j])
    return OrthogonalBasis(
        degree=degree,
        ln_rho=ln_rho,
        ln_m0=ln_m0,
        monic=monic,
        normalized=inv,
        half_log_diag=half,
        gram_residual=residual,
        k=seq.k,
    )


def cross_orthogonality_check(basis: OrthogonalBasis, seq: MomentSequence) -> float:
    """Max |<e_i, e_j>_seq - delta_ij| for the basis under another measure.

    The basis polynomials are orthonormal for the sequence they were built
    from; feeding the moment sequence of a different measure here gives
    the largest deviation of their Gram matrix from the identity.  If the
    two measures share all moments up to 2*degree the result is zero up
    to moment and factorization error, however different the measures
    look pointwise.
    """
    if not isinstance(basis, OrthogonalBasis):
        raise ValueError(f"expected an OrthogonalBasis, got {basis!r}")
    if not isinstance(seq, MomentSequence):
        raise ValueError(f"expected a MomentSequence, got {seq!r}")
    need = 2 * basis.degree + 1
    if len(seq) < need:
        raise ValueError(f"need {need} moments, have {len(seq)}")
    lnm = _scaled_log_moments(seq, need, basis.ln_m0, basis.ln_rho)
    return _gram_residual(basis.normalized, _normalized_gram(lnm, basis.half_log_diag))
