"""Exact Gaussian process conditioning through a single Cholesky factor.

:func:`condition` is the only place that factors a kernel matrix.
Everything downstream of it (posterior mean and variance, leave-one-out
residuals and variances, incremental variances, the sequential
expansion, log-determinant, quadratic form and trace ratio) reads the
:class:`Posterior` it returns, so one factorization per (kernel, design)
pair serves them all; refitting on subsets is kept only as an oracle in
the test suite.  One factorization also serves several data vectors at
once: the data may be an ``(n, s)`` matrix whose columns (for example
sample paths of different seeds) share the kernel matrix, and the
data-dependent quantities then come out per column.

The factor comes straight from LAPACK ``dpotrf``; when it fails, the
index of the first non-positive pivot is read from its ``info`` code.
Leave-one-out quantities use the triangular inverse from ``dtrtri``
rather than a full solve against the identity.

There is no nugget or jitter anywhere: the model interpolates noiseless
data, and a factorization failure is surfaced as
:class:`~maternsmooth.errors.ConditioningError` rather than silently
regularized.  Pivots are additionally checked against a small relative
threshold so that factorizations whose trailing pivots are pure rounding
noise are rejected instead of producing garbage downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as _linalg
from scipy.linalg import lapack as _lapack

from .errors import ConditioningError, DomainError
from .kernels import kernel_matrix

__all__ = [
    "Posterior",
    "LooResult",
    "condition",
    "posterior_mean",
    "posterior_var",
    "incremental_variances",
    "loo",
    "loo_variances",
    "log_det",
    "quadratic_form",
    "sequential_expansion",
    "trace_ratio",
    "DEFAULT_PIVOT_RTOL",
]

# Relative pivot floor: computed pivots below this multiple of the largest
# kernel diagonal entry are indistinguishable from accumulated rounding and
# the factorization is rejected.
DEFAULT_PIVOT_RTOL = 1e-14

# Negative posterior variances within this relative window are rounding
# artefacts at near-data probes and are clamped to zero; anything below
# signals a genuine conditioning problem.
_VAR_CLAMP_RTOL = 1e-12


def _cholesky(K, pivot_rtol):
    """Lower Cholesky factor of a kernel matrix, overwriting ``K`` with it.

    ``K`` is exactly symmetric, so its transpose is the same matrix in
    Fortran order and LAPACK factors it without a copy; the factor is
    the one ``scipy.linalg.cholesky`` returns.
    """
    n = K.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    floor = pivot_rtol * float(np.max(np.diag(K)))
    L, info = _lapack.dpotrf(K.T, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        # LAPACK leaves the failing Schur-complement pivot on the diagonal.
        idx = info - 1
        val = float(L[idx, idx])
        raise ConditioningError(
            f"kernel matrix is numerically singular: pivot {idx} = {val:.3e}",
            pivot_index=idx,
            pivot_value=val,
        )
    if info < 0:
        raise DomainError(f"dpotrf rejected argument {-info}")
    piv = np.diag(L) ** 2
    small = np.nonzero(piv < floor)[0]
    if small.size:
        idx = int(small[0])
        raise ConditioningError(
            f"pivot {idx} = {piv[idx]:.3e} below relative floor {floor:.3e}",
            pivot_index=idx,
            pivot_value=float(piv[idx]),
        )
    return L


@dataclass(frozen=True)
class Posterior:
    """A conditioned Gaussian process: Cholesky factor plus weight vector.

    ``y`` and ``weights`` have shape ``(n,)``, or ``(n, s)`` for ``s``
    data columns conditioned on the same factor.  Immutable after
    construction; safe to share across threads for concurrent
    mean/variance queries.
    """

    kernel: object
    design: object
    y: np.ndarray
    chol: np.ndarray
    weights: np.ndarray

    @property
    def n(self):
        return self.y.shape[0]


def _as_data(design, y):
    """Data as a float array of shape ``(n,)`` or ``(n, s)``, all finite."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != design.n:
        raise DomainError(f"y has shape {y.shape}, expected ({design.n},) or ({design.n}, s)")
    if not np.all(np.isfinite(y)):
        raise DomainError("y must be finite")
    return y


def condition(kernel, design, y, pivot_rtol=DEFAULT_PIVOT_RTOL):
    """Factorize the kernel matrix of a design and solve for the weights.

    ``y`` is one data vector of shape ``(n,)`` or ``s`` data columns of
    shape ``(n, s)`` sharing the factorization; non-finite data raises
    :class:`DomainError`.  Raises :class:`ConditioningError` carrying the
    index and magnitude of the first offending pivot when the matrix is
    numerically singular.  An empty design is allowed and produces the
    unconditioned process.
    """
    y = _as_data(design, y)
    K = kernel_matrix(kernel, design)
    L = _cholesky(K, pivot_rtol)
    if design.n:
        weights = _linalg.cho_solve((L, True), y, check_finite=False)
    else:
        weights = np.zeros(y.shape)
    return Posterior(kernel=kernel, design=design, y=y.copy(), chol=L, weights=weights)


def _cross_covariances(post, x):
    """Covariance vectors K(x_i, x) for query points x, shape (n, m)."""
    pts = post.design.points
    diff = pts[:, None, :] - x[None, :, :]
    return post.kernel(np.sqrt(np.sum(diff * diff, axis=-1)))


def _as_query(post, x):
    d = post.design.d
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if d != 1:
            raise DomainError("scalar query point in a multi-dimensional domain")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if d == 1:
            return arr.reshape(-1, 1), False
        if arr.shape[0] == d:
            return arr.reshape(1, d), True
        raise DomainError(f"query shape {arr.shape} does not match dimension {d}")
    if arr.ndim == 2 and arr.shape[1] == d:
        return arr, False
    raise DomainError(f"query shape {arr.shape} is not (m, {d})")


def posterior_mean(post, x):
    """Conditional mean at one query point or an (m, d) array of them."""
    q, scalar = _as_query(post, x)
    if post.n == 0:
        out = np.zeros(q.shape[0])
        return float(out[0]) if scalar else out
    k = _cross_covariances(post, q)
    out = k.T @ post.weights
    return float(out[0]) if scalar else out


def posterior_var(post, x):
    """Conditional variance at one query point or an (m, d) array of them.

    Tiny negative values produced by rounding at near-data probes are
    clamped to zero; negativity beyond the clamp window raises
    :class:`ConditioningError`.
    """
    q, scalar = _as_query(post, x)
    prior = post.kernel(0.0)
    if post.n == 0:
        out = np.full(q.shape[0], prior)
        return float(out[0]) if scalar else out
    k = _cross_covariances(post, q)
    c = _linalg.solve_triangular(post.chol, k, lower=True, check_finite=False)
    out = prior - np.sum(c * c, axis=0)
    negative = out < 0.0
    if np.any(out < -_VAR_CLAMP_RTOL * prior):
        worst = float(out.min())
        raise ConditioningError(
            f"posterior variance {worst:.3e} below clamp window", pivot_value=worst
        )
    out[negative] = 0.0
    return float(out[0]) if scalar else out


def log_det(post):
    """Log-determinant of the kernel matrix, from the Cholesky diagonal."""
    return 2.0 * float(np.sum(np.log(np.diag(post.chol))))


def quadratic_form(post):
    """Data quadratic form y' K^{-1} y; also the squared norm of the mean.

    A float for one data vector, an ``(s,)`` array for ``s`` data columns.
    """
    e = _linalg.solve_triangular(post.chol, post.y, lower=True, check_finite=False)
    if e.ndim == 1:
        return float(np.dot(e, e))
    # Column by column, so each total is bit-identical to its one-column form.
    return np.array([np.dot(col, col) for col in e.T])


def incremental_variances(post):
    """Variances of each point given its predecessors, in design order.

    Entry ``i`` equals the posterior variance at ``x_i`` of the process
    conditioned on the prefix ``x_1 .. x_{i-1}`` (the empty prefix gives
    the prior variance).  They are the squared Cholesky pivots.
    """
    return np.diag(post.chol) ** 2


def sequential_expansion(post):
    """Prediction residuals and variances against growing prefixes.

    Returns ``(residuals, variances)`` where term ``i`` uses the posterior
    conditioned on the first ``i - 1`` points.  The sum of
    ``residual**2 / variance`` equals the quadratic form of the full
    posterior.  Needs one data vector, shape ``(n,)``.
    """
    if post.y.ndim != 1:
        raise DomainError(f"sequential expansion needs one data vector, got {post.y.shape}")
    e = _linalg.solve_triangular(post.chol, post.y, lower=True, check_finite=False)
    piv = np.diag(post.chol)
    return piv * e, piv**2


@dataclass(frozen=True)
class LooResult:
    """Leave-one-out residuals and variances, one entry per design point.

    ``residuals`` has the shape of the posterior's data, ``(n,)`` or
    ``(n, s)``; ``variances`` do not depend on the data and have shape
    ``(n,)``.
    """

    residuals: np.ndarray
    variances: np.ndarray


def loo(post):
    """Leave-one-out quantities from the inverse-diagonal identities.

    ``residual_i = (K^{-1} y)_i / (K^{-1})_{ii}`` is the gap between the
    held-out value and the mean refit on the remaining points, and
    ``variance_i = 1 / (K^{-1})_{ii}`` the matching variance.  With
    ``W = L^{-1}`` (one triangular inversion, about n^3/3 flops) the
    inverse diagonal is the column sums of ``W**2``, since
    ``K^{-1} = W' W``.  Every data column shares it.  Verified against
    per-point refits in the test suite.
    """
    if post.n < 2:
        raise DomainError("leave-one-out needs at least 2 points")
    W, info = _lapack.dtrtri(post.chol, lower=1)
    if info != 0:
        raise ConditioningError(f"triangular inversion failed (info={info})",
                                pivot_index=max(info - 1, -1))
    diag = np.einsum("ij,ij->j", W, W)
    bad = ~(np.isfinite(diag) & (diag > 0.0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ConditioningError(
            f"inverse diagonal entry {idx} is not positive and finite",
            pivot_index=idx,
            pivot_value=float(diag[idx]),
        )
    weights = post.weights
    residuals = weights / (diag if weights.ndim == 1 else diag[:, None])
    return LooResult(residuals=residuals, variances=1.0 / diag)


def loo_variances(post):
    """Leave-one-out variances, with the single-point convention V = K(x, x)."""
    if post.n == 1:
        return np.array([post.kernel(0.0)])
    return loo(post).variances


def trace_ratio(kernel0, post):
    """Normalised trace ``tr[K_0 K_1^{-1}] / n``, ``K_1`` the posterior's kernel matrix."""
    if post.n == 0:
        raise DomainError("trace ratio of an empty design")
    K0 = kernel_matrix(kernel0, post.design)
    M = _linalg.cho_solve((post.chol, True), K0, check_finite=False)
    return float(np.trace(M)) / post.n
