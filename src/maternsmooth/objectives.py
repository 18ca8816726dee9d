"""Marginal-likelihood and cross-validation objectives over the smoothness.

Both objectives decompose into a data term plus a complexity term of the
same shape: the quadratic form plus the log-determinant for maximum
likelihood, and the scaled residual sum plus the summed log variances for
leave-one-out cross-validation.  :func:`ell_ml_from` and
:func:`ell_cv_from` compute them on one conditioned
:class:`~maternsmooth.gp.Posterior`, and :func:`prefix_objectives` is the
two over the posteriors of every prefix of a schedule, which are views of
one factorization of the largest prefix: they share its forward solve and
its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DomainError
# ``condition`` stays bound here for the benchmark tracer, which wraps it.
from .gp import condition, condition_prefixes, log_det, loo, quadratic_form  # noqa: F401

__all__ = [
    "ObjectiveValue",
    "prefix_objectives",
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


def prefix_objectives(kernel, design, y, sizes, names=("ml", "cv"), workspace=None):
    """The objectives ``names`` on the first ``n`` points of ``design`` for
    each ``n`` in ``sizes``: :func:`ell_ml_from` and :func:`ell_cv_from` on
    the posteriors of :func:`~maternsmooth.gp.condition_prefixes`.

    ``y``, ``sizes`` and ``workspace`` are as there.  Per size, a dict
    mapping each objective of ``names`` defined on ``n`` points
    (cross-validation needs two) to its :class:`ObjectiveValue`, or to the
    :class:`~maternsmooth.errors.ConditioningError` that prevents that
    objective alone; a size beyond a failing pivot gets that pivot's error
    in place of its dict.  Maximum likelihood alone never solves for
    weights or inverts the factor.  At sizes of at most 16 or
    ``16 * 2**k`` points each value is bit for bit that of the prefix
    conditioned alone; at other sizes the two agree to rounding.
    """
    out = []
    for post in condition_prefixes(kernel, design, y, sizes, workspace):
        if isinstance(post, ConditioningError):
            out.append(post)
            continue
        values = {}
        if "ml" in names:
            values["ml"] = ell_ml_from(post)
        if "cv" in names and post.n >= 2:
            try:
                values["cv"] = ell_cv_from(post)
            except ConditioningError as err:
                # Kept without its traceback, which holds the factor.
                values["cv"] = err.with_traceback(None)
        out.append(values)
    return out


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
    return ObjectiveValue(data_term=data, complexity_term=float(np.sum(np.log(res.variances))))
