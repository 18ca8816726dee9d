"""Exact Gaussian process conditioning through a single Cholesky factor.

:func:`condition_prefixes`, and :func:`condition` through it, are the only
places that factor a kernel matrix.  Everything downstream of them
(posterior mean and variance, leave-one-out residuals and variances,
incremental variances, log-determinant and quadratic form) reads the
:class:`Posterior` they return, so one factorization per (kernel, design)
pair serves them all; refitting on subsets is kept only as an oracle in
the test suite.  One factorization also serves several data vectors at
once: the data may be an ``(n, s)`` matrix whose columns (for example
sample paths of different seeds) share the kernel matrix, and the
data-dependent quantities then come out per column.

The factor is grown by row panels, each finished by LAPACK ``dpotrf``
(whose ``info`` code gives the first non-positive pivot), so that the
factor of a design prefix is the leading block of the full one and one
factorization serves every prefix of a nested design
(:meth:`Posterior.prefix`).
Leave-one-out quantities use the factor's inverse, grown by the same row
panels (``dtrtri`` on each diagonal block, two ``dtrmm`` for the rows
left of it), so the inverse of a prefix is the leading block of the full
one too: it is computed once per factor, on the first leave-one-out
request, and shared by every posterior the factor serves.

There is no nugget or jitter anywhere: the model interpolates noiseless
data, and a factorization failure is surfaced as
:class:`~maternsmooth.errors.ConditioningError` rather than silently
regularized.  Pivots are additionally checked against a fixed relative
floor, :data:`PIVOT_RTOL` = 1e-14 of the kernel's value at distance 0, so
that factorizations whose trailing pivots are pure rounding noise are
rejected instead of producing garbage downstream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as _linalg
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

from .errors import ConditioningError, DomainError
# ``kernel_matrix`` stays bound here for the benchmark tracer, which wraps it.
from .kernels import kernel_matrix, kernel_panels  # noqa: F401

__all__ = [
    "Posterior",
    "LooResult",
    "condition",
    "condition_prefixes",
    "posterior_mean",
    "posterior_var",
    "incremental_variances",
    "loo",
    "loo_variances",
    "log_det",
    "quadratic_form",
    "PIVOT_RTOL",
]

# Relative pivot floor: computed pivots below this multiple of the largest
# kernel diagonal entry are indistinguishable from accumulated rounding and
# the factorization is rejected.
PIVOT_RTOL = 1e-14

# Negative posterior variances within this relative window are rounding
# artefacts at near-data probes and are clamped to zero; anything below
# signals a genuine conditioning problem.
_VAR_CLAMP_RTOL = 1e-12


# Row panels of the factorization end at 16, 32, 64, ... points.
_FIRST_PANEL = 16


def _panel_ends(n):
    ends = [_FIRST_PANEL]
    while ends[-1] < n:
        ends.append(2 * ends[-1])
    return [min(b, n) for b in ends] if n else []


def _square(buffer, n):
    """An ``(n, n)`` Fortran-ordered array of zeros: fresh when ``buffer`` is
    None, else a view of the leading ``n * n`` elements of that flat
    array, zero-filled."""
    if buffer is None:
        return np.zeros((n, n), order="F")
    out = buffer[:n * n].reshape((n, n), order="F")
    out.fill(0.0)
    return out


def _factor(kernel, design, buffer=None):
    """Lower Cholesky factor of a design's kernel matrix, grown by row panels.

    Each panel of rows ``a:b`` after the first is solved against the factor
    so far (``dtrsm``) and its Schur block updated (``dsyrk``) and factored
    (``dpotrf``).  A prefix of at most 16 or ``16 * 2**k`` points thus meets
    the same operations on the same data as in any larger design: its factor
    is bit for bit the leading block of theirs.  Returns the Fortran-ordered
    factor and None, or the :class:`ConditioningError` of the first pivot
    that is not positive or lies below ``PIVOT_RTOL * K(0)``; the factor then
    holds up to that pivot, and later panels are never evaluated.  The
    factor is written into ``buffer`` when one is given (see :func:`_square`).
    """
    n = design.n
    L = _square(buffer, n)
    ends = _panel_ends(n)
    a = 0
    for b, panel in zip(ends, kernel_panels(kernel, design, ends)):
        if a:
            left = _blas.dtrsm(1.0, L[:a, :a], panel[:, :a], side=1, lower=1, trans_a=1,
                               overwrite_b=1)
            block = _blas.dsyrk(-1.0, left, beta=1.0, c=panel[:, a:], lower=1, overwrite_c=1)
            L[a:b, :a] = left
        else:
            # Fewer points than the first panel are completed to its size
            # with K(0) on the diagonal, so that their rows see the same
            # operations as in a larger design.
            floor = PIVOT_RTOL * panel[0, 0]
            block = np.diag(np.full(max(b, _FIRST_PANEL), panel[0, 0]))
            block[:b, :b] = panel
        block, info = _lapack.dpotrf(block, lower=1, clean=1, overwrite_a=1)
        if info < 0:
            raise DomainError(f"dpotrf rejected argument {-info}")
        L[a:b, a:b] = block[:b - a, :b - a]
        piv = np.diag(block)[:info - 1 if info else b - a] ** 2
        small = np.nonzero(piv < floor)[0]
        if small.size:
            i = int(small[0])
            return L, ConditioningError(
                f"pivot {a + i} = {piv[i]:.3e} below relative floor {floor:.3e}",
                pivot_index=a + i, pivot_value=float(piv[i]))
        if info:
            # LAPACK leaves the failing Schur-complement pivot on the diagonal.
            val = float(block[info - 1, info - 1])
            return L, ConditioningError(
                f"kernel matrix is numerically singular: pivot {a + info - 1} = {val:.3e}",
                pivot_index=a + info - 1, pivot_value=val)
        a = b
    return L, None


def _invert(chol, m, buffer=None):
    """Inverse ``W`` of the leading ``m`` by ``m`` block of a lower factor,
    grown by the row panels of :func:`_factor`.

    Panel ``a:b`` inverts its diagonal block (``dtrtri``) and forms the rows
    left of it as ``W21 = -W22 (L21 W11)`` (two ``dtrmm``).  The inverse of
    a prefix of at most 16 or ``16 * 2**k`` points thus meets the same
    operations on the same data as in any larger factor: it is bit for bit
    the leading block of theirs.  Returns the Fortran-ordered inverse and
    None, or the inverse of the panels before a zero diagonal entry and the
    :class:`ConditioningError` naming that entry.  The inverse is written
    into ``buffer`` when one is given (see :func:`_square`).
    """
    W = _square(buffer, m)
    a = 0
    for b in _panel_ends(m):
        if a:
            block = chol[a:b, a:b]
        else:
            # Padded to the first panel's size, as in _factor, so that fewer
            # points see the same operations as in a larger factor.
            block = np.diag(np.full(max(b, _FIRST_PANEL), chol[0, 0]))
            block[:b, :b] = chol[:b, :b]
        inv, info = _lapack.dtrtri(block, lower=1)
        if info < 0:
            raise DomainError(f"dtrtri rejected argument {-info}")
        if info:
            p = a + info - 1
            return W[:a, :a], ConditioningError(
                f"triangular inversion failed: factor diagonal entry {p} is zero",
                pivot_index=p, pivot_value=float(chol[p, p]))
        W[a:b, a:b] = inv[:b - a, :b - a]
        if a:
            left = _blas.dtrmm(1.0, W[:a, :a], chol[a:b, :a], side=1, lower=1)
            W[a:b, :a] = _blas.dtrmm(-1.0, inv, left, lower=1, overwrite_b=1)
        a = b
    return W, None


class _SharedInverse:
    """The inverse of a factor's first ``m`` rows, computed by
    :func:`_invert` on the first request and then read by every posterior
    the factor serves, written into ``buffer`` if one is given.  Safe to
    call from several threads."""

    def __init__(self, chol, m, buffer=None):
        self._chol, self._m, self._buffer = chol, m, buffer
        self._lock = threading.Lock()
        self._result = None

    def leading(self, n):
        """The inverse of the first ``n <= m`` rows of the factor."""
        with self._lock:
            if self._result is None:
                self._result = _invert(self._chol, self._m, self._buffer)
                self._chol = self._buffer = None
        W, err = self._result
        if n > W.shape[0]:
            raise ConditioningError(str(err), pivot_index=err.pivot_index,
                                    pivot_value=err.pivot_value)
        return W[:n, :n]


@dataclass(frozen=True)
class Posterior:
    """A conditioned Gaussian process: Cholesky factor plus weight vector.

    ``y`` and ``weights`` have shape ``(n,)``, or ``(n, s)`` for ``s``
    data columns conditioned on the same factor.  Immutable after
    construction; safe to share across threads for concurrent
    mean/variance and leave-one-out queries.
    """

    kernel: object
    design: object
    y: np.ndarray
    chol: np.ndarray
    weights: np.ndarray
    # The inverse shared with the other posteriors of the same factor.
    _inverse: _SharedInverse | None = field(default=None, repr=False, compare=False)

    @property
    def n(self):
        return self.y.shape[0]

    def prefix(self, n):
        """The posterior of the first ``n`` points, from the leading block of
        this factor (and of its inverse): bit for bit what :func:`condition`
        gives on that prefix when ``n`` is at most 16 or ``16 * 2**k``."""
        return _posterior(self.kernel, self.design.prefix(n), self.y, self.chol,
                          self._inverse)


def _posterior(kernel, design, y, chol, inverse):
    """The posterior of ``design`` from a factor whose leading block is its
    own.  The block is copied to Fortran order, the layout :func:`condition`
    gives LAPACK, so that both sides compute alike."""
    n = design.n
    L = np.asfortranarray(chol[:n, :n])
    weights = _linalg.cho_solve((L, True), y[:n], check_finite=False) if n else y[:0].copy()
    return Posterior(kernel=kernel, design=design, y=y[:n].copy(), chol=L, weights=weights,
                     _inverse=inverse)


def _as_data(design, y):
    """Data as a float array of shape ``(n,)`` or ``(n, s)``, all finite."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != design.n:
        raise DomainError(f"y has shape {y.shape}, expected ({design.n},) or ({design.n}, s)")
    if not np.all(np.isfinite(y)):
        raise DomainError("y must be finite")
    return y


def condition(kernel, design, y):
    """Factorize the kernel matrix of a design and solve for the weights.

    ``y`` is one data vector of shape ``(n,)`` or ``s`` data columns of
    shape ``(n, s)`` sharing the factorization; non-finite data raises
    :class:`DomainError`.  Raises :class:`ConditioningError` carrying the
    index and magnitude of the first offending pivot when the matrix is
    numerically singular.  An empty design is allowed and produces the
    unconditioned process.
    """
    (post,) = condition_prefixes(kernel, design, y, [design.n])
    if isinstance(post, ConditioningError):
        raise post
    return post


def condition_prefixes(kernel, design, y, sizes, workspace=None):
    """:func:`condition` on the first ``n`` points for each ``n`` in ``sizes``.

    The factor of the largest prefix serves all (:meth:`Posterior.prefix`),
    and so does its inverse, computed when :func:`loo` first asks for it and
    only up to the largest size served; a size beyond a failing pivot gets
    that pivot's :class:`ConditioningError` in place of its posterior.

    ``workspace``, a pair of flat float arrays of at least ``m * m``
    elements for the largest size ``m``, takes the factor and the inverse
    in place of fresh arrays, with the same values.  The posteriors then
    read from it and hold only until it is next used.
    """
    y = _as_data(design, y)
    sizes = [design.check_prefix_size(n) for n in sizes]
    design = design.prefix(max(sizes, default=0))
    factor_buffer, inverse_buffer = workspace or (None, None)
    L, err = _factor(kernel, design, factor_buffer)
    served = design.n if err is None else err.pivot_index
    inverse = _SharedInverse(L, max((n for n in sizes if n <= served), default=0),
                             inverse_buffer)
    return [_posterior(kernel, design.prefix(n), y, L, inverse) if n <= served else err
            for n in sizes]


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
    if post.y.ndim == 2:
        # Each column solved on its own: a multi-column triangular solve
        # rounds differently from the one-column solve in the last bits.
        return np.array([_quadratic_form(post.chol, col) for col in post.y.T])
    return _quadratic_form(post.chol, post.y)


def _quadratic_form(chol, y):
    e = _linalg.solve_triangular(chol, y, lower=True, check_finite=False)
    return float(np.dot(e, e))


def incremental_variances(post):
    """Variances of each point given its predecessors, in design order.

    Entry ``i`` equals the posterior variance at ``x_i`` of the process
    conditioned on the prefix ``x_1 .. x_{i-1}`` (the empty prefix gives
    the prior variance).  They are the squared Cholesky pivots.
    """
    return np.diag(post.chol) ** 2


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
    ``W = L^{-1}`` the inverse diagonal is the column sums of ``W**2``,
    since ``K^{-1} = W' W``.  Every data column shares it, and ``W`` is the
    leading block of the panel-grown inverse that every prefix of the
    posterior's factor shares (see :func:`condition_prefixes`), so a
    prefix's quantities are bit for bit those of the prefix conditioned
    alone when its size is at most 16 or ``16 * 2**k``.  Verified against
    per-point refits in the test suite.
    """
    if post.n < 2:
        raise DomainError("leave-one-out needs at least 2 points")
    shared = _SharedInverse(post.chol, post.n) if post._inverse is None else post._inverse
    W = shared.leading(post.n)
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
