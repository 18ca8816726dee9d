"""Exact Gaussian process conditioning through a single Cholesky factor.

:func:`_factor` is the only place that factors a kernel matrix.
:func:`condition_prefixes`, and :func:`condition` through it, wrap its
factor in one :class:`_Factorization`, and a :class:`Posterior` is a view
of that factorization's first ``n`` points.  Everything downstream
(posterior mean and variance, leave-one-out residuals and variances,
incremental variances, log-determinant and quadratic form) reads a
posterior, so one factorization per (kernel, design) pair serves every
prefix, and the objectives of :mod:`~maternsmooth.objectives` read those
views.  Refitting on subsets is kept only as an
oracle in the test suite.  One factorization also serves several data
vectors at once: the data may be an ``(n, s)`` matrix whose columns (for
example sample paths of different seeds) share the kernel matrix, and the
data-dependent quantities then come out per column.

The factor is grown by row panels ending at 16, 32, 64, ... points, each
finished by factoring its diagonal block, so that the factor of a design
prefix is the leading block of the full one and one factorization serves
every prefix of a nested design (:meth:`Posterior.prefix`).
Leave-one-out quantities use the factor's inverse, grown by the same row
panels (the inverse of each diagonal block, two ``dtrmm`` for the rows
left of it), so the inverse of a prefix is the leading block of the full
one too.  The factorization computes it once, on the first leave-one-out
request, and so the forward solve ``L^{-1} y`` on the first quadratic
form; every posterior it serves reads their leading parts.

A diagonal block wider than 64 rows is itself factored and inverted by
sub-panels of 64 rows (:data:`_SUB`): LAPACK ``dpotrf`` (whose ``info``
code gives the first non-positive pivot) and ``dtrtri`` see at most 64
rows, and ``dtrsm``, ``dsyrk`` and ``dtrmm`` do the rest.  On a 2-core
AMD EPYC with one OpenBLAS thread, ``dpotrf`` and ``dtrtri`` run at 5 to
9 GFMA/s on blocks of 128 and 256 rows where ``dtrmm`` runs at 40 to 47,
and sub-panels cut the time of a 256-row block by about half; sub-panels
of 32 or 128 rows are slower.  On a 2-core Intel Xeon (OpenBLAS built for
SkylakeX, one thread) the factor's sub-panels are slower and the
inverse's two to three times as fast: over two runs, at 256 rows
``dpotrf`` took 434-439 us against 500-502 us by sub-panels and ``dtrtri``
841-1022 us against 310-409 us; at 512 rows, 2087-2514 against 2906-3187
us and 3599-3702 against 2577-2880 us.  ``tools/lapack_rates.py``
measures all of these.  The sub-panel size stays 64 for both: a factor
blocked differently rounds differently from row 128 on.  The split
depends only on the panel, so a prefix of at most 16 or ``16 * 2**k``
points still meets the same operations as in any larger design.

There is no nugget or jitter anywhere: the model interpolates noiseless
data, and a factorization failure is surfaced as
:class:`~maternsmooth.errors.ConditioningError` rather than silently
regularized.  Pivots are additionally checked against a fixed relative
floor, :data:`PIVOT_RTOL` = 1e-14 of the kernel's value at distance 0, so
that factorizations whose trailing pivots are pure rounding noise are
rejected instead of producing garbage downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

from .errors import ConditioningError, DomainError, check_array
# ``kernel_matrix`` stays bound here for the benchmark tracer, which wraps it.
from .kernels import _FIRST_PANEL, _panel_ends, kernel_matrix, kernel_panels  # noqa: F401

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


# The diagonal block of a row panel is factored and inverted by sub-panels
# of at most this many rows (see the module docstring).
_SUB = 64


def _lapack_call(name, *args, **kwargs):
    """LAPACK routine ``name`` on the arguments: its result and ``info``,
    or :class:`DomainError` naming it when ``info`` says an argument was
    rejected.  ``_lapack`` is looked up at each call, so that a namespace
    put in its place serves every routine."""
    out, info = getattr(_lapack, name)(*args, **kwargs)
    if info < 0:
        raise DomainError(f"{name} rejected argument {-info}")
    return out, info


def _first_block(block):
    """A copy of the first diagonal block, completed to ``_FIRST_PANEL``
    rows with its ``[0, 0]`` entry on the diagonal, so that fewer points
    see the same operations as in a larger design."""
    b = block.shape[0]
    out = np.diag(np.full(max(b, _FIRST_PANEL), block[0, 0]))
    out[:b, :b] = block
    return out


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
    by :func:`_factor_block`, in sub-panels of 64 rows when it is wider.  A
    prefix of at most 16 or ``16 * 2**k`` points thus meets the same
    operations on the same data as in any larger design: its factor is bit
    for bit the leading block of theirs.  Returns
    the Fortran-ordered factor and None, or the :class:`ConditioningError`
    of the first pivot that is not positive or lies below
    ``PIVOT_RTOL * K(0)``; the factor then holds up to that pivot, and later
    panels are never evaluated.  The factor is written into ``buffer`` when
    one is given (see :func:`_square`).
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
            floor = PIVOT_RTOL * panel[0, 0]
            block = _first_block(panel)
        err = _factor_block(block, floor, a)
        L[a:b, a:b] = block[:b - a, :b - a]
        if err is not None:
            return L, err
        a = b
    return L, None


def _factor_block(block, floor, offset):
    """Factor a Schur block in place by sub-panels of at most ``_SUB`` rows.

    Each sub-panel's diagonal block is factored by ``dpotrf`` (whose
    ``info`` code gives the first non-positive pivot), the rows below it
    solved against that factor (``dtrsm``) and the trailing block updated
    (``dsyrk``), so that most of the work runs through level-3 BLAS.
    Returns None, or the :class:`ConditioningError` of the first pivot,
    numbered from ``offset``, that is not positive or lies below ``floor``;
    the rows before it hold their factor, and zeros right of it.  Only the
    lower triangle is read.
    """
    w = block.shape[0]
    for c in range(0, w, _SUB):
        e = min(c + _SUB, w)
        sub, info = _lapack_call("dpotrf", block[c:e, c:e], lower=1, clean=1, overwrite_a=1)
        block[c:e, c:e] = sub
        block[c:e, e:] = 0.0
        start = offset + c
        piv = np.diag(sub)[:info - 1 if info else e - c] ** 2
        small = np.nonzero(piv < floor)[0]
        if small.size:
            i = int(small[0])
            return ConditioningError(
                f"pivot {start + i} = {piv[i]:.3e} below relative floor {floor:.3e}",
                pivot_index=start + i, pivot_value=float(piv[i]))
        if info:
            # LAPACK leaves the failing Schur-complement pivot on the diagonal.
            val = float(sub[info - 1, info - 1])
            return ConditioningError(
                f"kernel matrix is numerically singular: pivot {start + info - 1} = {val:.3e}",
                pivot_index=start + info - 1, pivot_value=val)
        if e < w:
            below = _blas.dtrsm(1.0, sub, block[e:, c:e], side=1, lower=1, trans_a=1)
            block[e:, c:e] = below
            block[e:, e:] = _blas.dsyrk(-1.0, below, beta=1.0, c=block[e:, e:], lower=1)
    return None


def _invert(chol, m, buffer=None):
    """Inverse ``W`` of the leading ``m`` by ``m`` block of a lower factor,
    grown by the row panels of :func:`_factor` (:func:`_invert_rows`).

    The inverse of a prefix of at most 16 or ``16 * 2**k`` points thus
    meets the same operations on the same data as in any larger factor: it
    is bit for bit the leading block of theirs.  Returns the
    Fortran-ordered inverse, written into ``buffer`` when one is given (see
    :func:`_square`).
    """
    W = _square(buffer, m)
    _invert_rows(chol, W, _panel_ends(m))
    return W


def _invert_rows(L, W, ends, offset=0):
    """Write the inverse of the lower triangular ``L`` into ``W``, zeros of
    its shape, by the row blocks ending at ``ends``; raises the
    :class:`ConditioningError` naming the first zero diagonal entry, numbered
    from ``offset``, when ``dtrtri`` reports one.  No factor that
    :func:`_factor` accepts has one: each of its pivots is at least
    ``PIVOT_RTOL * K(0)``.

    Block ``a:b`` inverts its diagonal block and forms the rows left of it
    as ``W21 = -W22 (L21 W11)`` (two ``dtrmm``).  A diagonal block of at
    most ``_SUB`` rows is one ``dtrtri`` call; a wider one is inverted the
    same way by sub-panels of ``_SUB`` rows.  A first block of fewer than
    16 rows is padded to 16 by :func:`_first_block`, as in :func:`_factor`.
    """
    a = 0
    for b in ends:
        if b - a > _SUB:
            w = b - a
            _invert_rows(L[a:b, a:b], W[a:b, a:b], [*range(_SUB, w, _SUB), w], offset + a)
        else:
            block = _first_block(L[:b, :b]) if b < _FIRST_PANEL else L[a:b, a:b]
            inv, info = _lapack_call("dtrtri", block, lower=1)
            if info:
                p = offset + a + info - 1
                raise ConditioningError(
                    f"triangular inversion failed: factor diagonal entry {p} is zero",
                    pivot_index=p, pivot_value=float(block[info - 1, info - 1]))
            W[a:b, a:b] = inv[:b - a, :b - a]
        if a:
            left = _blas.dtrmm(1.0, W[:a, :a], L[a:b, :a], side=1, lower=1)
            W[a:b, :a] = _blas.dtrmm(-1.0, W[a:b, a:b], left, lower=1, overwrite_b=1)
        a = b


def _solve_lower(chol, b):
    """``chol^{-1} b`` for a lower triangular ``chol`` and a vector or
    matrix ``b`` (LAPACK ``dtrtrs``), in a new array."""
    if not chol.shape[0]:  # dtrtrs rejects the leading dimension 0
        return b.copy()
    return _lapack_call("dtrtrs", chol, b, lower=1)[0]


class _Factorization:
    """One factorization of a design's kernel matrix, and what the
    posteriors of its prefixes share.

    ``chol`` is the factor of ``design``, up to its first failing pivot
    if it has one, and ``y`` a copy of the data, shape ``(n,)`` or
    ``(n, s)``.  ``top`` is the largest size a posterior is read at: the
    inverse of the factor's first ``top`` rows (written into ``buffer`` if
    one is given) and the forward solve ``L^{-1} y`` of their data are
    each computed once, on the first request, and then read by every
    posterior (:meth:`posterior`).
    """

    def __init__(self, kernel, design, y, chol, top, buffer=None):
        self.kernel, self.design, self.y, self.chol, self.top = kernel, design, y, chol, top
        self._buffer = buffer
        self._inverse = self._forward = None

    def posterior(self, n):
        """The :class:`Posterior` of the first ``n <= top`` points."""
        return Posterior(self, n)

    def inverse(self, n):
        """The inverse of the first ``n <= top`` rows of the factor
        (:func:`_invert`)."""
        if self._inverse is None:
            self._inverse = _invert(self.chol, self.top, self._buffer)
        return self._inverse[:n, :n]

    def forward(self):
        """``L^{-1} y`` of the first ``top`` points, one array per data
        column, each solved on its own (a multi-column triangular solve
        rounds differently in the last bits); a prefix's quadratic form
        reads its leading part."""
        if self._forward is None:
            chol = np.asfortranarray(self.chol[:self.top, :self.top])
            self._forward = [_solve_lower(chol, col)
                             for col in np.atleast_2d(self.y[:self.top].T)]
        return self._forward


@dataclass(frozen=True)
class Posterior:
    """A conditioned Gaussian process: the first ``n`` points of a
    :class:`_Factorization`.

    ``chol`` is the leading block of the factor and ``weights`` solve it
    against the data ``y``, which has shape ``(n,)``, or ``(n, s)`` for
    ``s`` data columns conditioned on the same factor; each is computed on
    first use.  The inverse and the forward solve come from the
    factorization, shared with the other posteriors it serves.
    """

    factorization: _Factorization = field(repr=False)
    n: int

    @property
    def kernel(self):
        return self.factorization.kernel

    @cached_property
    def design(self):
        return self.factorization.design.prefix(self.n)

    @property
    def y(self):
        return self.factorization.y[:self.n]

    @cached_property
    def chol(self):
        """The leading block of the factor in Fortran order, the layout
        :func:`condition` gives LAPACK, so that both sides compute alike."""
        return np.asfortranarray(self.factorization.chol[:self.n, :self.n])

    @cached_property
    def weights(self):
        """``K^{-1} y`` (LAPACK ``dpotrs``)."""
        if not self.n:
            return self.y.copy()
        return _lapack_call("dpotrs", self.factorization.chol[:self.n, :self.n], self.y,
                            lower=1)[0]

    def prefix(self, n):
        """The posterior of the first ``n`` points, from the leading block of
        this factor (and of its inverse): bit for bit what :func:`condition`
        gives on that prefix when ``n`` is at most 16 or ``16 * 2**k``."""
        return Posterior(self.factorization, self.design.check_prefix_size(n))


def _as_data(design, y, name="y", columns=True):
    """A copy of the data ``name`` as a read-only float array of shape
    ``(n,)``, or ``(n, s)`` where ``columns`` allows, of finite numbers
    (:func:`~maternsmooth.errors.check_array`), so that no posterior
    aliases the caller's: the one check of data."""
    y = np.asarray(y)
    if y.ndim not in ((1, 2) if columns else (1,)) or y.shape[0] != design.n:
        shapes = f"({design.n},)" + (f" or ({design.n}, s)" if columns else "")
        raise DomainError(f"{name} has shape {y.shape}, expected {shapes}")
    y = check_array(name, y, None).copy()
    y.flags.writeable = False
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


def condition_prefixes(kernel, design, y, sizes):
    """:func:`condition` on the first ``n`` points for each ``n`` in ``sizes``.

    One :class:`_Factorization`, of the largest prefix, serves all: each
    posterior is a view of its first ``n`` points (:meth:`Posterior.prefix`),
    and the inverse and forward solve are computed when first asked for and
    only up to the largest size served; a size beyond a failing pivot gets
    that pivot's :class:`ConditioningError` in place of its posterior.
    The data are checked (:func:`_as_data`) and the sizes are prefix sizes
    of the design; :func:`_prefix_posteriors` does the rest.
    """
    return _prefix_posteriors(kernel, design, _as_data(design, y),
                              [design.check_prefix_size(n) for n in sizes])


def _prefix_posteriors(kernel, design, y, sizes, workspace=None):
    """:func:`condition_prefixes` on data ``y`` and ``sizes`` already checked,
    with ``y`` held as given, not copied: the path of a sweep, which checks
    its data once.

    ``workspace``, a pair of flat float arrays of at least ``m * m``
    elements for the largest size ``m``, takes the factor and the inverse
    in place of fresh arrays, with the same values.  The posteriors then
    read from it and hold only until it is next used.
    """
    design = design.prefix(max(sizes, default=0))
    factor_buffer, inverse_buffer = workspace or (None, None)
    L, err = _factor(kernel, design, factor_buffer)
    served = design.n if err is None else err.pivot_index
    fact = _Factorization(kernel, design, y, L, max((n for n in sizes if n <= served), default=0),
                          inverse_buffer)
    return [fact.posterior(n) if n <= served else err for n in sizes]


def _cross_covariances(post, x):
    """Covariance vectors K(x_i, x) for query points x, shape (n, m)."""
    pts = post.design.points
    diff = pts[:, None, :] - x[None, :, :]
    return post.kernel(np.sqrt(np.sum(diff * diff, axis=-1)))


def _as_query(post, x):
    """Query points of finite reals (:func:`~maternsmooth.errors.check_array`)
    as an ``(m, d)`` array, and whether ``x`` is one point."""
    d = post.design.d
    arr = check_array("query points", x, None)
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


def _moments(post, x, mean=True, var=True):
    """Conditional mean and variance at one query point or an (m, d) array
    of them, from one build of the cross-covariances that both read: the
    pair ``(mean, var)``, None in place of one not asked for, and whether
    ``x`` is one point.  See :func:`posterior_mean` and
    :func:`posterior_var`."""
    q, scalar = _as_query(post, x)
    if post.n == 0:
        mu = np.zeros((q.shape[0],) + post.y.shape[1:]) if mean else None
        v = np.full(q.shape[0], post.kernel(0.0)) if var else None
        return mu, v, scalar
    k = _cross_covariances(post, q)
    mu = v = None
    if mean:
        kt = k.T
        if post.weights.ndim == 2:
            mu = np.stack([kt @ np.ascontiguousarray(w) for w in post.weights.T], axis=1)
        else:
            mu = kt @ post.weights
    if var:
        prior = post.kernel(0.0)
        c = _solve_lower(post.chol, k)
        v = prior - np.sum(c * c, axis=0)
        if np.any(v < -_VAR_CLAMP_RTOL * prior):
            worst = float(v.min())
            raise ConditioningError(
                f"posterior variance {worst:.3e} below clamp window", pivot_value=worst
            )
        v[v < 0.0] = 0.0
    return mu, v, scalar


def posterior_mean(post, x):
    """Conditional mean at one query point or an (m, d) array of them.

    For ``s`` data columns the means come out as ``(m, s)`` (``(s,)`` at
    one point), each column computed on its own: bit for bit the mean of
    that column conditioned alone, which one ``k' W`` product is not.
    """
    out, _, scalar = _moments(post, x, var=False)
    if scalar:
        return out[0] if out.ndim == 2 else float(out[0])
    return out


def posterior_var(post, x):
    """Conditional variance at one query point or an (m, d) array of them.

    Tiny negative values produced by rounding at near-data probes are
    clamped to zero; negativity beyond the clamp window raises
    :class:`ConditioningError`.
    """
    _, out, scalar = _moments(post, x, mean=False)
    return float(out[0]) if scalar else out


def log_det(post):
    """Log-determinant of the kernel matrix, from the Cholesky diagonal."""
    return 2.0 * float(np.sum(np.log(np.diag(post.factorization.chol)[:post.n])))


def quadratic_form(post):
    """Data quadratic form y' K^{-1} y; also the squared norm of the mean.

    A float for one data vector, an ``(s,)`` array for ``s`` data columns,
    each from the leading part of the factorization's forward solve.
    """
    n = post.n
    terms = [float(np.dot(e[:n], e[:n])) for e in post.factorization.forward()]
    return terms[0] if post.y.ndim == 1 else np.array(terms)


def incremental_variances(post):
    """Variances of each point given its predecessors, in design order.

    Entry ``i`` equals the posterior variance at ``x_i`` of the process
    conditioned on the prefix ``x_1 .. x_{i-1}`` (the empty prefix gives
    the prior variance).  They are the squared Cholesky pivots.
    """
    return np.diag(post.factorization.chol)[:post.n] ** 2


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
    diag = _inverse_diagonal(post)
    weights = post.weights
    residuals = weights / (diag if weights.ndim == 1 else diag[:, None])
    return LooResult(residuals=residuals, variances=1.0 / diag)


def _inverse_diagonal(post):
    """The diagonal of ``K^{-1}`` (see :func:`loo`), checked positive and finite."""
    if post.n < 2:
        raise DomainError(f"leave-one-out needs n >= 2, got n={post.n}")
    W = post.factorization.inverse(post.n)
    diag = np.einsum("ij,ij->j", W, W)
    bad = ~(np.isfinite(diag) & (diag > 0.0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ConditioningError(
            f"inverse diagonal entry {idx} is not positive and finite",
            pivot_index=idx,
            pivot_value=float(diag[idx]),
        )
    return diag


def loo_variances(post):
    """Leave-one-out variances, with the single-point convention V = K(x, x):
    those of :func:`loo`, from the inverse diagonal alone, without the data."""
    if post.n == 1:
        return np.array([post.kernel(0.0)])
    return 1.0 / _inverse_diagonal(post)
