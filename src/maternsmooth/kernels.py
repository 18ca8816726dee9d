"""Matern and Gaussian covariance kernels with configurable order scaling.

All Matern evaluation goes through log space (log scaling factor plus
``nu * log`` of the scaled distance plus :func:`log_bessel_k`) so that
orders up to several hundred remain usable; direct evaluation of
``(.)**nu * K_nu`` would overflow long before that.  Kernel matrices are
assembled by row panels from distances numbered in design order, so a
prefix of the design evaluates the kernel only at its own distances.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateDesignError, DomainError
from .specfun import log_bessel_k, log_gamma

__all__ = [
    "ScalingPolicy",
    "STANDARD_SCALING",
    "MaternParams",
    "GaussParams",
    "matern",
    "c_scaling",
    "matern_eval",
    "gaussian_eval",
    "MaternKernel",
    "GaussianKernel",
    "kernel_matrix",
]


@dataclass(frozen=True)
class ScalingPolicy:
    """Order-dependent normalisation factor c(nu) of the Matern kernel.

    ``standard`` uses ``c(nu) = 2**(1-nu) / Gamma(nu)``, which makes the
    kernel value at zero distance equal ``sigma**2`` and gives the Gaussian
    kernel in the large-``nu`` limit.  Because that factor vanishes as
    ``nu -> 0``, the ``clamped`` variant freezes it at its value for
    ``nu = d/2`` below that threshold, keeping ``c`` bounded away from zero
    on every interval ``(0, nu1]`` while leaving the large-``nu`` limit
    untouched.
    """

    kind: str = "standard"
    d: int = 0

    def __post_init__(self):
        if self.kind not in ("standard", "clamped"):
            raise DomainError(f"unknown scaling kind {self.kind!r}")
        if self.kind == "clamped" and self.d < 1:
            raise DomainError("clamped scaling needs a dimension d >= 1")

    @classmethod
    def standard(cls):
        return cls("standard")

    @classmethod
    def clamped(cls, d):
        return cls("clamped", int(d))


STANDARD_SCALING = ScalingPolicy.standard()


def log_c_scaling(policy, nu):
    """Natural log of c(nu) under the given policy."""
    if not (nu > 0 and math.isfinite(nu)):
        raise DomainError(f"nu must be positive and finite, got {nu!r}")
    nu_eff = nu
    if policy.kind == "clamped" and nu < 0.5 * policy.d:
        nu_eff = 0.5 * policy.d
    return (1.0 - nu_eff) * math.log(2.0) - log_gamma(nu_eff)


def c_scaling(policy, nu):
    """Scaling factor c(nu); clamped below nu = d/2 under the clamped policy."""
    return math.exp(log_c_scaling(policy, nu))


def check_positive(name, value):
    """Raise :class:`DomainError` naming ``name`` unless ``value`` is a
    positive finite real number: Python or NumPy, and not a bool."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def require_positive(params, names):
    """:func:`check_positive` on each named field of ``params``."""
    for name in names:
        check_positive(name, getattr(params, name))


@dataclass(frozen=True)
class MaternParams:
    """Matern kernel parameters: smoothness, magnitude, and length-scale."""

    nu: float
    sigma: float = 1.0
    lambda_: float = 1.0
    scaling: ScalingPolicy = field(default=STANDARD_SCALING)

    def __post_init__(self):
        require_positive(self, ("nu", "sigma", "lambda_"))

    @cached_property
    def _log_scale(self):
        """``log(sigma**2 c(nu))``, computed once per parameter set."""
        return 2.0 * math.log(self.sigma) + log_c_scaling(self.scaling, self.nu)

    @cached_property
    def _at_zero(self):
        """The covariance at distance 0."""
        nu = self.nu
        return math.exp(self._log_scale + (nu - 1.0) * math.log(2.0) + log_gamma(nu))


def matern(nu, sigma=1.0, lambda_=1.0, d=1):
    """Convenience constructor with the clamped scaling for dimension ``d``;
    build :class:`MaternParams` directly for another scaling."""
    return MaternParams(float(nu), float(sigma), float(lambda_), ScalingPolicy.clamped(d))


@dataclass(frozen=True)
class GaussParams:
    """Gaussian kernel parameters: magnitude and length-scale."""

    sigma: float = 1.0
    lambda_: float = 1.0

    def __post_init__(self):
        require_positive(self, ("sigma", "lambda_"))


def _validate_distances(r):
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("distances must be finite and nonnegative")
    return arr


def matern_eval(params, r, *, checked=False):
    """Matern covariance as a function of distance ``r >= 0``.

    The value at ``r = 0`` is the analytic limit
    ``sigma**2 c(nu) 2**(nu-1) Gamma(nu)`` (exactly ``sigma**2`` under
    standard scaling); evaluation near zero would otherwise hit the
    singularity of ``K_nu``.  ``checked=True`` says that ``r`` is a 1-d
    float array of finite nonnegative distances and skips checking it.
    """
    scalar = False
    if not checked:
        arr = _validate_distances(r)
        scalar = np.isscalar(r) or arr.ndim == 0
        r = np.atleast_1d(arr)

    nu = params.nu
    zero = r == 0.0
    some_zero = bool(zero.any())
    # x: the scaled distances, a new array that becomes the covariances in
    # place; the caller's ``r`` is never written.
    if some_zero:
        x = r[~zero]
        x *= math.sqrt(2.0 * nu) / params.lambda_
    else:
        x = math.sqrt(2.0 * nu) / params.lambda_ * r
    if x.size:
        log_k = log_bessel_k(nu, x)
        np.log(x, out=x)
        x *= nu
        x += params._log_scale
        x += log_k
        np.exp(x, out=x)
    if some_zero:
        out = np.empty_like(r)
        out[zero] = params._at_zero
        out[~zero] = x
    else:
        out = x
    if scalar:
        return float(out[0])
    return out


def gaussian_eval(params, r, d, unit_amplitude=False):
    """Gaussian covariance at distance ``r`` in dimension ``d``.

    The default carries the prefactor ``(lambda**2 / 2 pi)**(d/2)`` so that
    it is the large-``nu`` limit of the standard-scaled Matern family; with
    ``unit_amplitude=True`` the plain ``sigma**2 exp(-r**2 / 2 lambda**2)``
    is returned instead.
    """
    arr = _validate_distances(r)
    scalar = np.isscalar(r) or arr.ndim == 0
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d!r}")
    amp = params.sigma**2
    if not unit_amplitude:
        amp *= (params.lambda_**2 / (2.0 * math.pi)) ** (0.5 * d)
    out = amp * np.exp(-0.5 * (arr / params.lambda_) ** 2)
    if scalar:
        return float(out)
    return out


class MaternKernel:
    """Stationary kernel evaluator: maps distance arrays to covariances."""

    def __init__(self, params):
        self.params = params

    def __call__(self, r):
        return matern_eval(self.params, r)

    def at_distances(self, r):
        """Covariances at a 1-d float array of finite nonnegative distances,
        unchecked; :func:`kernel_panels` calls it on its distance table."""
        return matern_eval(self.params, r, checked=True)

    @property
    def variance(self):
        return matern_eval(self.params, 0.0)

    def __repr__(self):
        p = self.params
        return f"MaternKernel(nu={p.nu}, sigma={p.sigma}, lambda_={p.lambda_}, {p.scaling.kind})"


class GaussianKernel:
    """Gaussian kernel evaluator for a fixed dimension."""

    def __init__(self, params, d, unit_amplitude=False):
        self.params = params
        self.d = int(d)
        self.unit_amplitude = unit_amplitude

    def __call__(self, r):
        return gaussian_eval(self.params, r, self.d, self.unit_amplitude)

    @property
    def variance(self):
        return gaussian_eval(self.params, 0.0, self.d, self.unit_amplitude)

    def __repr__(self):
        p = self.params
        return f"GaussianKernel(sigma={p.sigma}, lambda_={p.lambda_}, d={self.d})"


class _DistanceTable:
    """Distinct pairwise distances of a point sequence, numbered in design order.

    Number 0 is the zero distance; the others are numbered where they first
    appear among the pairs ``(i, j)``, ``j < i``, row after row.  So the first
    ``count[m]`` numbers are the distances among the first ``m`` points, and
    ``index[:m, :m]`` maps their kernel matrix onto them.  Lattice-like
    designs repeat distances many times; the kernel is evaluated once each.
    """

    def __init__(self, pts):
        n = pts.shape[0]
        il = np.tril_indices(n, k=-1)
        diff = pts[il[0]] - pts[il[1]]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        if dist.size and np.min(dist) == 0.0:
            k = int(np.argmin(dist))
            raise DegenerateDesignError(
                f"duplicate points at indices {int(il[1][k])} and {int(il[0][k])}")
        unique, first, inverse = np.unique(dist, return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty(order.size, dtype=np.int32)
        number[order] = np.arange(1, order.size + 1, dtype=np.int32)
        self.distances = np.concatenate(([0.0], unique[order]))
        self.index = np.zeros((n, n), dtype=np.int32)
        self.index[il] = self.index.T[il] = number[inverse]
        # Row m starts at pair m (m - 1) / 2; the zero distance comes with row 0.
        m = np.arange(n + 1)
        self.count = np.searchsorted(first[order], m * (m - 1) // 2) + (m > 0)


def kernel_panels(kernel, design, ends):
    """Row panels ``K[a:b, :b]`` of the kernel matrix, for ascending ``ends`` b.

    A generator of Fortran-ordered panels, each from the previous end; each
    evaluates the kernel only at the distances new in its rows, when it is
    requested, unless the design has at most ``n`` distinct nonzero
    distances: those are all evaluated in one call before the first panel.
    The distance table is cached on the design and its prefixes.
    """
    table = getattr(design, "_dist_cache", None)
    if table is None:
        table = design._dist_cache = _DistanceTable(design.points)
    # The table's distances are finite and nonnegative: a kernel that can
    # skip checking them says so with ``at_distances``.
    evaluate = getattr(kernel, "at_distances", kernel)
    values = np.empty(table.count[design.n])
    # A lattice-like design has the zero distance and at most n others: one
    # call evaluates them all, for less than the fixed cost of one per panel.
    ready = values.size if values.size <= design.n + 1 else 0
    if ready:
        values[:] = evaluate(table.distances[:ready])
    a = 0
    for b in ends:
        lo, hi = max(table.count[a], ready), table.count[b]
        if hi > lo:
            values[lo:hi] = evaluate(table.distances[lo:hi])
        # The index is symmetric: its columns a:b, transposed, are the rows.
        yield np.take(values, table.index[:b, a:b]).T
        a = b


def kernel_matrix(kernel, design):
    """Dense kernel matrix of a design; exactly symmetric by construction.

    ``design`` is a :class:`~maternsmooth.designs.Design`; the kernel is
    evaluated once per distinct pairwise distance.  Duplicate points make
    the matrix singular and raise :class:`DegenerateDesignError`.
    """
    return next(kernel_panels(kernel, design, [design.n]))
