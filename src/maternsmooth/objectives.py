"""Marginal-likelihood and cross-validation objectives over the smoothness.

Both objectives decompose into a data term plus a complexity term of the
same shape: the quadratic form plus the log-determinant for maximum
likelihood, and the scaled residual sum plus the summed log variances for
leave-one-out cross-validation.  Both are read from the
:class:`~maternsmooth.gp.Posterior` that :func:`~maternsmooth.gp.condition`
returns, so the two objectives at one smoothness share one factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DomainError
from .gp import (
    DEFAULT_PIVOT_RTOL,
    condition,
    incremental_variances,
    log_det,
    loo,
    loo_variances,
    quadratic_form,
)
from .kernels import MaternKernel, matern

__all__ = [
    "ObjectiveValue",
    "ell_ml_from",
    "ell_cv_from",
    "VarianceRatioProfile",
    "variance_ratio_profile",
]


@dataclass(frozen=True)
class ObjectiveValue:
    """One objective evaluation split into data and complexity terms.

    For a posterior with ``s`` data columns the data term, and with it the
    total, is an ``(s,)`` array holding one value per column.
    """

    data_term: float
    complexity_term: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.data_term + self.complexity_term)


def ell_ml_from(post):
    """Maximum-likelihood objective of an already conditioned posterior.

    Per data column when the posterior holds several, each bit for bit the
    value of that column conditioned alone.
    """
    return ObjectiveValue(data_term=quadratic_form(post), complexity_term=log_det(post))


def ell_cv_from(post):
    """Cross-validation objective of an already conditioned posterior.

    Per data column when the posterior holds several, each bit for bit the
    value of that column conditioned alone: one leave-one-out inverse
    serves every column, so the complexity term is shared, and each data
    term is summed over its own column.
    """
    if post.n < 2:
        raise DomainError("cross-validation objective needs n >= 2")
    res = loo(post)
    if res.residuals.ndim == 1:
        data = float(np.sum(res.residuals**2 / res.variances))
    else:
        data = np.array([np.sum(r**2 / res.variances) for r in res.residuals.T])
    complexity = float(np.sum(np.log(res.variances)))
    return ObjectiveValue(data_term=data, complexity_term=complexity)


@dataclass(frozen=True)
class VarianceRatioProfile:
    """Worst-case variance ratios of a reference smoothness against a grid.

    ``ratios[k]`` is the maximum over design points of
    ``V_nu0(x_i | .) / V_nu(x_i | .)`` for ``nu = nu_grid[k]``, with the
    variances taken either in the leave-one-out sense or against growing
    prefixes (``sequential``).  Cells that failed to condition carry NaN
    and an entry in ``failures``.
    """

    nu_grid: np.ndarray
    ratios: np.ndarray
    failures: tuple


def variance_ratio_profile(nu0, nu_grid, design, probe="loo", sigma=1.0,
                           lambda_=1.0, scaling=None, pivot_rtol=DEFAULT_PIVOT_RTOL):
    """Profile of max variance ratios between ``nu0`` and each grid value."""
    if probe not in ("loo", "sequential"):
        raise DomainError(f"probe must be 'loo' or 'sequential', got {probe!r}")
    grid = np.asarray(list(nu_grid), dtype=float)
    if np.any(grid <= 0):
        raise DomainError("smoothness grid must be positive")

    def variances(nu):
        kernel = MaternKernel(matern(nu, sigma, lambda_, d=design.d, scaling=scaling))
        post = condition(kernel, design, np.zeros(design.n), pivot_rtol)
        return loo_variances(post) if probe == "loo" else incremental_variances(post)

    ref = variances(nu0)
    ratios = np.full(grid.shape, math.nan)
    failures = []
    for i, nu in enumerate(grid):
        try:
            ratios[i] = float(np.max(ref / variances(nu)))
        except ConditioningError as err:
            failures.append((float(nu), str(err)))
    return VarianceRatioProfile(nu_grid=grid, ratios=ratios, failures=tuple(failures))
