"""Gaussian process regression with Matern kernels of real smoothness.

The package provides exact noiseless GP conditioning, maximum-likelihood
and leave-one-out cross-validation estimation of the Matern smoothness
parameter, quasi-uniform design generators with fill-distance
diagnostics, RKHS-norm quadrature for closed-form test functions, and a
command-line harness that verifies the underlying algebraic identities
and runs desk-scale convergence experiments.
"""

from .analysis import (
    QuadratureConfig,
    TestFunction,
    builtin_test_functions,
    fit_rate,
    fourier_reconstruction,
    gaussian_rkhs_norm_sq,
    matern_rkhs_norm_sq,
    sample_gp_path,
    sobolev_norm_sq,
)
from .designs import (
    Box,
    Design,
    fill_distance,
    fill_distances,
    uniform_grid,
    van_der_corput,
)
from .errors import (
    AccuracyError,
    ConditioningError,
    DegenerateDesignError,
    DomainError,
    EstimationError,
    MaternSmoothError,
)
from .estimators import (
    EstimatorConfig,
    NuEstimate,
    SweepRecord,
    bracketed_minimize,
    estimate_nu,
    sweep_prefixes,
)
from .gp import (
    LooResult,
    Posterior,
    condition,
    condition_prefixes,
    incremental_variances,
    log_det,
    loo,
    loo_variances,
    posterior_mean,
    posterior_var,
    quadratic_form,
)
from .kernels import (
    MaternParams,
    kernel_matrix,
    matern_eval,
)
from .objectives import (
    ObjectiveValue,
    ell_cv_from,
    ell_ml_from,
)
from .specfun import bessel_k, log_bessel_k, log_gamma

__version__ = "0.1.0"
