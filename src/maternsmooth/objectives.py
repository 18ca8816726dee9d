"""Marginal-likelihood and cross-validation objectives over the smoothness.

Both objectives decompose into a data term plus a complexity term of the
same shape: the quadratic form plus the log-determinant for maximum
likelihood, and the scaled residual sum plus the summed log variances for
leave-one-out cross-validation.  :func:`prefix_objectives` reads both, on
every prefix of a schedule, in one pass over one factorization of the
largest prefix and its inverse; :func:`ell_ml_from` and
:func:`ell_cv_from` are the same pass on the one size of an already
conditioned :class:`~maternsmooth.gp.Posterior`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as _linalg

from .errors import ConditioningError, DomainError
# ``condition`` and ``loo`` stay bound here for the benchmark tracer, which
# wraps them.
from .gp import _factor_prefixes, _prefix_loo, condition, loo  # noqa: F401

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
    each ``n`` in ``sizes``, from one factorization of the largest prefix.

    ``y``, ``sizes`` and ``workspace`` are as for
    :func:`~maternsmooth.gp.condition_prefixes`.  Per size, a dict mapping
    each objective of ``names`` defined on ``n`` points (cross-validation
    needs two) to its :class:`ObjectiveValue`, or to the
    :class:`~maternsmooth.errors.ConditioningError` that prevents that
    objective alone; a size beyond a failing pivot gets that pivot's error
    in place of its dict.  At sizes of at most 16 or ``16 * 2**k`` points
    each value is bit for bit what :func:`ell_ml_from` and
    :func:`ell_cv_from` give on that prefix conditioned alone; at other
    sizes the two agree to rounding.
    """
    return _objectives(_factor_prefixes(kernel, design, y, sizes, workspace), sizes, names)


def _objectives(fact, sizes, names):
    """:func:`prefix_objectives` from a :class:`~maternsmooth.gp._Factorization`.

    Maximum likelihood solves each data column once against the factor of
    the largest size served; a prefix's quadratic form is the dot product
    of the solution's leading part, and its log-determinant the sum of the
    leading part of one log-diagonal.  Cross-validation reads each
    prefix's weights (``dpotrs``) and the leading block of the shared
    inverse.
    """
    if "ml" in names:
        m = max((n for n in sizes if n <= fact.served), default=0)
        chol = np.asfortranarray(fact.chol[:m, :m])
        columns = fact.y[:m, None].T if fact.y.ndim == 1 else fact.y[:m].T
        solved = [_linalg.solve_triangular(chol, col, lower=True, check_finite=False)
                  for col in columns]
        log_diagonal = np.log(np.diag(chol))
    out = []
    for n in sizes:
        if n > fact.served:
            out.append(fact.error)
            continue
        values = {}
        if "ml" in names:
            data = np.array([float(np.dot(e[:n], e[:n])) for e in solved])
            values["ml"] = ObjectiveValue(
                data_term=float(data[0]) if fact.y.ndim == 1 else data,
                complexity_term=2.0 * float(np.sum(log_diagonal[:n])))
        if "cv" in names and n >= 2:
            try:
                res = _prefix_loo(fact, n, fact.weights(n))
            except ConditioningError as err:
                # Kept without its traceback, which holds the factor.
                values["cv"] = err.with_traceback(None)
            else:
                if res.residuals.ndim == 1:
                    data = float(np.sum(res.residuals**2 / res.variances))
                else:
                    data = np.array([np.sum(r**2 / res.variances) for r in res.residuals.T])
                values["cv"] = ObjectiveValue(
                    data_term=data, complexity_term=float(np.sum(np.log(res.variances))))
        out.append(values)
    return out


def ell_ml_from(post):
    """Maximum-likelihood objective of an already conditioned posterior.

    Per data column when the posterior holds several, each bit for bit the
    value of that column conditioned alone.
    """
    (values,) = _objectives(post._factorization(), [post.n], ("ml",))
    return values["ml"]


def ell_cv_from(post):
    """Cross-validation objective of an already conditioned posterior.

    Per data column when the posterior holds several, each bit for bit the
    value of that column conditioned alone: one leave-one-out inverse
    serves every column, so the complexity term is shared, and each data
    term is summed over its own column.
    """
    if post.n < 2:
        raise DomainError("cross-validation objective needs n >= 2")
    (values,) = _objectives(post._factorization(), [post.n], ("cv",))
    if isinstance(values["cv"], ConditioningError):
        raise values["cv"]
    return values["cv"]
