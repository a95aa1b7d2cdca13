"""Families of distinct positive densities sharing every integer moment.

The classical log-normal weight admits perturbations by q-periodic
modulators that leave all integer moments unchanged while altering the
density pointwise, up to and including continuous but nowhere
differentiable members.  This package constructs such families and checks
every claimed identity numerically: vanishing integrals, moment closed
forms, the q-difference equation for the weight, Hankel positivity of the
shared moment sequence, and Holder exponents of the rough members.

numpy is loaded here with one OpenBLAS thread, unless it is already
loaded or OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is
set; the environment is left as the caller had it.
"""


def _import_numpy_on_one_blas_thread() -> None:
    # OpenBLAS starts a worker thread when it loads, and the worker
    # spin-waits for ~0.1 s of CPU whether or not a product ever needs it;
    # every product this package forms is small enough for one thread.
    # It reads its thread count only at load, so this must come before the
    # first submodule import, and only the load may see the variable.
    import os
    import sys

    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(name in os.environ for name in names):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_on_one_blas_thread()

from .measures import (  # noqa: E402
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
from .moments import (  # noqa: E402
    GramReport,
    HankelReport,
    MomentSequence,
    hankel_check,
    stieltjes_wigert_check,
)
from .qcalc import q_derivative, q_pearson_residual  # noqa: E402
from .quadrature import (  # noqa: E402
    MOMENT_SIGN_NOTE,
    BudgetExceededError,
    LogScaled,
    QuadratureResult,
    base_moment_closed_form,
    integrate_moment,
    modulator_moment_factor,
    vanishing_integral,
)
from .roughness import (  # noqa: E402
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
    "GramReport",
    "HankelReport",
    "HolderEstimate",
    "LogNormalWeight",
    "LogScaled",
    "MOMENT_SIGN_NOTE",
    "Modulator",
    "MomentSequence",
    "PerturbedDensity",
    "QuadratureResult",
    "TrigMode",
    "WeierstrassSpec",
    "__version__",
    "base_moment_closed_form",
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
    "positivity_bound",
    "q_derivative",
    "q_pearson_residual",
    "stieltjes_wigert_check",
    "vanishing_integral",
]
