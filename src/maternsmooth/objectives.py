"""Marginal-likelihood and cross-validation objectives over the smoothness.

Both objectives decompose into a data term plus a complexity term of the
same shape: the quadratic form plus the log-determinant for maximum
likelihood, and the scaled residual sum plus the summed log variances for
leave-one-out cross-validation.  :func:`ell_ml_from` and
:func:`ell_cv_from` compute them on one conditioned
:class:`~maternsmooth.gp.Posterior`.  The posteriors of every prefix of a
schedule (:func:`~maternsmooth.gp.condition_prefixes`) are views of one
factorization of the largest prefix, so the objectives of all prefixes
share its forward solve and its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ``condition`` stays bound here for the benchmark tracer, which wraps it.
from .gp import condition, log_det, loo, quadratic_form  # noqa: F401

__all__ = [
    "ObjectiveValue",
    "ell_ml_from",
    "ell_cv_from",
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
    term is summed over its own column.  Needs two points, as
    :func:`~maternsmooth.gp.loo` does.
    """
    res = loo(post)
    if res.residuals.ndim == 1:
        data = float(np.sum(res.residuals**2 / res.variances))
    else:
        data = np.array([np.sum(r**2 / res.variances) for r in res.residuals.T])
    return ObjectiveValue(data_term=data, complexity_term=float(np.sum(np.log(res.variances))))
