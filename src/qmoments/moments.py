"""Hankel positivity and Stieltjes-Wigert orthogonality from moments.

Raw Hankel matrices for this moment family are useless in float64: the
entries M_{i+j} = exp((i+j+1)^2 / (4 k^2)) span hundreds of orders of
magnitude.  Every matrix here is therefore built in diagonally normalized
coordinates, Hhat_ij = M_{i+j} / sqrt(M_{2i} M_{2j}), whose entries lie in
[-1, 1] and whose positive definiteness is equivalent to that of the raw
matrix (the normalization is a congruence by a positive diagonal).  A
sequence holds each moment as a float mantissa m_n on its exact scale,
M_n = m_n exp((n+1)^2 / (4 k^2)), and the scales cancel in Hhat without
rounding to the Gaussian Toeplitz form exp(-(i-j)^2 / (4 k^2)), which
keeps condition numbers tame for the small dimensions treated here; for
the base weight, all m_n = 1, Hhat is that form.

The orthogonal polynomials of the weight are the Stieltjes-Wigert
polynomials, known in closed form; ``stieltjes_wigert_check`` takes their
Gram matrix under any moment sequence, in the same normalized coordinates.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .measures import BudgetExceededError, LogNormalWeight, PerturbedDensity, _check_int
from .quadrature import _integrate_orders, base_moment_closed_form

__all__ = [
    "MomentSequence",
    "HankelReport",
    "hankel_check",
    "GramReport",
    "stieltjes_wigert_check",
]


@dataclass(frozen=True)
class MomentSequence:
    """Integer moments M_0 .. M_{len-1}, each a mantissa on its exact scale.

    With ``k`` set, M_n = mantissas[n] * exp((n+1)**2 / (4 k**2)), the
    scale exact and never evaluated; with ``k`` None the mantissas are the
    moments.  ``error_estimates`` holds one relative error bound per
    moment, zero for exact constructions.
    """

    mantissas: tuple
    error_estimates: tuple
    k: Union[float, None] = None

    def __post_init__(self):
        if len(self.mantissas) == 0:
            raise ValueError("a moment sequence needs at least one moment")
        if len(self.mantissas) != len(self.error_estimates):
            raise ValueError("one error estimate per moment is required")
        for m in self.mantissas:  # nan fails; no product of two leaves float64
            if not (m == 0.0 or 2.0**-500 <= abs(m) <= 2.0**500):
                raise ValueError(f"a mantissa must be 0 or within 2**-500 .. "
                                 f"2**500 in magnitude, got {m!r}")

    @classmethod
    def closed_form(cls, w: LogNormalWeight, count: int) -> "MomentSequence":
        """Exact base-weight moments, count of them starting at M_0."""
        count = _check_int(count, "count", 1)
        for n in range(count):  # refuses the first order with no float64 exponent
            base_moment_closed_form(w, n)
        return cls(mantissas=(1.0,) * count, error_estimates=(0.0,) * count, k=w.k)

    @classmethod
    def from_quadrature(
        cls,
        obj: Union[LogNormalWeight, PerturbedDensity],
        count: int,
        rel_tol: float = 1e-12,
    ) -> "MomentSequence":
        """Moments of a weight or perturbed density by verified quadrature
        (:func:`~qmoments.quadrature.integrate_moment`, same ``rel_tol``).

        The errors bound the moments of the density as constructed.  A
        truncated Weierstrass modulator is a finite sine sum and shares
        every moment, so ``series_tail_budget`` is no moment error.
        """
        rs = list(_integrate_orders(obj, range(_check_int(count, "count", 1)), rel_tol))
        k = obj.k if isinstance(obj, LogNormalWeight) else obj.weight.k
        return cls(mantissas=tuple(r.mantissa for r in rs),
                   error_estimates=tuple(r.error_estimate for r in rs), k=k)

    @classmethod
    def from_values(cls, values: Sequence) -> "MomentSequence":
        """Wrap plain floats as an exact moment sequence."""
        mantissas = tuple(float(v) for v in values)
        return cls(mantissas=mantissas, error_estimates=(0.0,) * len(mantissas))

    def __len__(self) -> int:
        return len(self.mantissas)


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


def _scale_exponents(k, count: int) -> np.ndarray:
    """(n+1)**2 / (4 k**2) for n < count, each rounded once, so that ln M_n
    = ln m_n + its n-th entry; zeros without a k, where the mantissas m_n
    are the moments."""
    if k is None:
        return np.zeros(count)
    w = LogNormalWeight(k)
    return np.array([base_moment_closed_form(w, n) for n in range(count)])


def _normalized_hankel(seq: MomentSequence, dim: int, shift: int):
    """Hhat_ij = M_{i+j+shift} / sqrt(M_{2i+shift} M_{2j+shift}), or None.

    The scales cancel exactly to exp(-(i-j)**2 / (4 k**2)), as (n+1)**2
    is quadratic in n, so Hhat_ij = m_{i+j+shift} / sqrt(m_{2i+shift}
    m_{2j+shift}) times that.  None means a diagonal moment is zero or
    negative, so the raw matrix has a non-positive diagonal entry and
    cannot be positive definite.
    """
    m, i = np.asarray(seq.mantissas), np.arange(dim)
    diag, gap = m[2 * i + shift], i[:, None] - i
    if not np.all(diag > 0.0):
        return None
    return (m[i[:, None] + i + shift] / np.sqrt(diag[:, None] * diag)
            * np.exp(-_scale_exponents(seq.k, 1)[0] * (gap * gap)))


def _pd_stats(mat, name):
    """(positive definite, smallest eigenvalue, condition), by that eigenvalue's sign."""
    if mat is None:
        return False, math.nan, math.nan
    eigs = np.linalg.eigvalsh(mat)
    bound = len(mat) * np.finfo(float).eps * eigs[-1]
    if abs(eigs[0]) <= bound:
        raise BudgetExceededError(f"{name}: smallest eigenvalue {eigs[0]:.3g} is "
                                  f"within the rounding bound {bound:.3g}")
    pd = bool(eigs[0] > 0.0)
    return pd, float(eigs[0]), (float(eigs[-1] / eigs[0]) if pd else math.inf)


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
class GramReport:
    """max |G - I| for the computed Gram matrix G (``residual``), and a
    bound on every entry of G's distance from its exact value (``bound``);
    see ``stieltjes_wigert_check``."""

    degree: int
    residual: float
    bound: float


def _sw_log_coefficients(w: LogNormalWeight, degree: int):
    """(sign, ln|c|, ln h, ln (q;q)) of the weight's Stieltjes-Wigert polynomials.

    c_nj = (-1)**j q**(j*j + j/2) / ((q;q)_j (q;q)_{n-j}) is the coefficient
    of x**j in P_n (-inf in ln|c| above the diagonal) and h_n = M_0 q**-n /
    (q;q)_n its squared norm.  ln (q;q)_n sums log(-expm1(i ln q)), which
    keeps its digits as q -> 1, where log1p(-exp(i ln q)) loses about four
    digits.  Out-of-range values come back non-finite, without a warning.
    """
    ln_m0 = base_moment_closed_form(w, 0)
    n, ln_q = np.arange(degree + 1), w.ln_q
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ln_qq = np.concatenate(([0.0], np.cumsum(np.log(-np.expm1(n[1:] * ln_q)))))
        tail = ln_qq[np.maximum(n[:, None] - n, 0)]
        ln_c = np.where(n[:, None] >= n, (n * n + 0.5 * n) * ln_q - ln_qq - tail, -np.inf)
        ln_h = ln_m0 - n * ln_q - ln_qq
    return np.where(n % 2, -1.0, 1.0), ln_c, ln_h, ln_qq


def stieltjes_wigert_check(
    w: LogNormalWeight, seq: MomentSequence, degree: int
) -> GramReport:
    """Gram matrix of the weight's orthonormal Stieltjes-Wigert polynomials under seq.

    With M_n = q**(-(n+1)**2 / 2) and q = exp(-1 / (2 k**2)), the
    polynomials P_n(x) = (1/(q;q)_n) sum_j [n j]_q q**(j*j + j/2) (-x)**j are
    orthogonal for the weight, with <P_n, P_n> = h_n = M_0 q**-n / (q;q)_n
    (Koekoek, Lesky & Swarttouw, section 14.27).  Let Hhat be the normalized
    Hankel matrix of seq and B[n, j] = c_nj sqrt(M_2j) / sqrt(h_n), with
    M_2j from seq and h_n from w.  The sqrt(M_2j) cancel in G = B Hhat B^T,
    whose (m, n) entry is sum c_mi c_nj M_{i+j} / sqrt(h_m h_n): G = I
    exactly when seq shares M_0 .. M_{2 degree} with the weight.

    Bound.  Let C = max(|B| |Hhat| |B|^T), the cancellation factor, and
    u = eps / 2.  Every entry of B and Hhat is exp(e), e a float64 sum of
    at most N = 2 degree + 4 logs l (ln M_n, (j*j + j/2) ln q, n ln q and the
    log(1 - q**i) inside ln (q;q)), each within 4u (|l| + 1) of its exact
    value.  The three exponents behind one term B_mi Hhat_ij B_nj add up at
    most T = 4 L + 2 (degree**2 + degree) |ln q| + 5 |ln (q;q)_degree| in
    |l|, L the largest |ln M| used, so the term is off relatively by at most
    (N + 3) u T + 12 N u, plus 6u for three exp, 2u for two products,
    2 (degree + 1) u for the two matrix sums and u for subtracting I.  The
    whole is below rho = (2 degree + 7) eps (T + 13), which leaves a factor
    two for second-order terms, so rounding moves each entry of G by at
    most C rho.  A relative moment error err_{i+j} moves entry (m, n) by
    sum |B_mi| |Hhat_ij| |B_nj| err_{i+j} <= C max(err), to first order.
    ``bound`` is C (rho + max(err)).

    Needs 2 degree + 1 moments with positive even ones.  Coefficients or a
    bound that float64 cannot hold raise BudgetExceededError naming k.
    """
    if not isinstance(seq, MomentSequence):
        raise ValueError(f"expected a MomentSequence, got {seq!r}")
    degree = _check_int(degree, "degree", 1)
    need = 2 * degree + 1
    if len(seq) < need:
        raise ValueError(f"degree {degree} needs {need} moments, sequence has {len(seq)}")
    hhat = _normalized_hankel(seq, degree + 1, 0)
    if hhat is None:
        raise ValueError("an even moment is not positive; the sequence has no Gram matrix")
    sign, ln_c, ln_h, ln_qq = _sw_log_coefficients(w, degree)  # checks w
    m = np.asarray(seq.mantissas[:need])
    with np.errstate(divide="ignore"):
        ln_m = np.log(np.abs(m)) + _scale_exponents(seq.k, need)
    diag_ln = ln_m[::2]
    # ln_h[0] is the weight's ln M_0; a zero moment is exact and adds no rounding
    big_l = max([abs(ln_h[0])] + np.abs(ln_m[m != 0.0]).tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        b = sign * np.exp(ln_c + 0.5 * diag_ln - 0.5 * ln_h[:, None])
        cancel = float(np.max(np.abs(b) @ np.abs(hhat) @ np.abs(b).T))
        t = 4.0 * big_l + 2.0 * (degree * degree + degree) * abs(w.ln_q) + 5.0 * abs(ln_qq[-1])
        rho = (2 * degree + 7) * np.finfo(float).eps * (t + 13.0)
        bound = cancel * (rho + max(seq.error_estimates[:need]))
        residual = float(np.max(np.abs(b @ hhat @ b.T - np.eye(degree + 1))))
    if not (math.isfinite(bound) and math.isfinite(residual)):
        raise BudgetExceededError(
            f"k={w.k!r}: the Stieltjes-Wigert coefficients of degree <= {degree} "
            "or their rounding bound leave the float64 range"
        )
    return GramReport(degree=degree, residual=residual, bound=float(bound))
