"""Families of distinct positive densities sharing every integer moment.

The classical log-normal weight admits perturbations by q-periodic
modulators that leave all integer moments unchanged while altering the
density pointwise, up to and including continuous but nowhere
differentiable members.  This package constructs such families and checks
every claimed identity numerically: vanishing integrals, moment closed
forms, the q-difference equation for the weight, Hankel positivity of the
shared moment sequence, and Holder exponents of the rough members.
"""

from .logscale import LogScaled
from .measures import (
    LogNormalWeight,
    Modulator,
    PerturbedDensity,
    TrigMode,
    WeierstrassSpec,
    eval_density,
    eval_modulator,
    eval_weight,
    modulator_from_dict,
    modulator_to_dict,
    positivity_bound,
)
from .moments import (
    MAX_BASIS_DEGREE,
    HankelReport,
    MomentSequence,
    OrthogonalBasis,
    cross_orthogonality_check,
    hankel_check,
    orthogonal_basis_from_moments,
)
from .qcalc import QDerivativeSample, q_derivative, q_pearson_residual
from .quadrature import (
    MOMENT_SIGN_NOTE,
    BudgetExceededError,
    QuadratureResult,
    QuadratureSpec,
    base_moment_closed_form,
    integrate_moment,
    modulator_moment_factor,
    vanishing_integral,
)
from .roughness import (
    DivergenceWitness,
    HolderEstimate,
    divergence_witness,
    holder_estimate,
    local_oscillation,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DivergenceWitness",
    "HankelReport",
    "HolderEstimate",
    "LogNormalWeight",
    "LogScaled",
    "MAX_BASIS_DEGREE",
    "MOMENT_SIGN_NOTE",
    "Modulator",
    "MomentSequence",
    "OrthogonalBasis",
    "PerturbedDensity",
    "QDerivativeSample",
    "QuadratureResult",
    "QuadratureSpec",
    "TrigMode",
    "WeierstrassSpec",
    "__version__",
    "base_moment_closed_form",
    "cross_orthogonality_check",
    "divergence_witness",
    "eval_density",
    "eval_modulator",
    "eval_weight",
    "hankel_check",
    "holder_estimate",
    "integrate_moment",
    "local_oscillation",
    "modulator_from_dict",
    "modulator_moment_factor",
    "modulator_to_dict",
    "orthogonal_basis_from_moments",
    "positivity_bound",
    "q_derivative",
    "q_pearson_residual",
    "vanishing_integral",
]
