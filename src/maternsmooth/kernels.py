"""Matern and Gaussian covariance kernels with configurable order scaling.

All Matern evaluation goes through log space (log scaling factor plus
``nu * log`` of the scaled distance plus :func:`log_bessel_k`) so that
orders up to several hundred remain usable; direct evaluation of
``(.)**nu * K_nu`` would overflow long before that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class MaternParams:
    """Matern kernel parameters: smoothness, magnitude, and length-scale."""

    nu: float
    sigma: float = 1.0
    lambda_: float = 1.0
    scaling: ScalingPolicy = field(default=STANDARD_SCALING)

    def __post_init__(self):
        for name in ("nu", "sigma", "lambda_"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")


def matern(nu, sigma=1.0, lambda_=1.0, d=1, scaling=None):
    """Convenience constructor; clamped scaling for dimension ``d`` by default."""
    if scaling is None:
        scaling = ScalingPolicy.clamped(d)
    return MaternParams(float(nu), float(sigma), float(lambda_), scaling)


@dataclass(frozen=True)
class GaussParams:
    """Gaussian kernel parameters: magnitude and length-scale."""

    sigma: float = 1.0
    lambda_: float = 1.0

    def __post_init__(self):
        for name in ("sigma", "lambda_"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")


def _validate_distances(r):
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("distances must be finite and nonnegative")
    return arr


def matern_eval(params, r):
    """Matern covariance as a function of distance ``r >= 0``.

    The value at ``r = 0`` is the analytic limit
    ``sigma**2 c(nu) 2**(nu-1) Gamma(nu)`` (exactly ``sigma**2`` under
    standard scaling); evaluation near zero would otherwise hit the
    singularity of ``K_nu``.
    """
    arr = _validate_distances(r)
    scalar = np.isscalar(r) or arr.ndim == 0
    arr = np.atleast_1d(arr)

    nu, sigma, lam = params.nu, params.sigma, params.lambda_
    log_c = log_c_scaling(params.scaling, nu)
    log_sigma2 = 2.0 * math.log(sigma)

    out = np.empty_like(arr)
    zero = arr == 0.0
    if np.any(zero):
        out[zero] = math.exp(log_sigma2 + log_c + (nu - 1.0) * math.log(2.0) + log_gamma(nu))
    if np.any(~zero):
        x = math.sqrt(2.0 * nu) / lam * arr[~zero]
        out[~zero] = np.exp(log_sigma2 + log_c + nu * np.log(x) + log_bessel_k(nu, x))
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


def pairwise_distances(points):
    """Dense symmetric distance matrix of a point array of shape (n, d)."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


class _DistanceDecomposition:
    """Condensed pairwise distances of a fixed point set, deduplicated.

    Lattice-like designs repeat the same distance many times; evaluating
    the kernel once per distinct distance and gathering cuts the special-
    function work by orders of magnitude.  ``index`` maps every entry of
    the full matrix to its distinct distance, with the diagonal pointing
    one past the last distinct distance (where the zero-distance value
    goes), so assembly is a single gather.  Instances are cached on the
    design so that sweeps over many kernel parameters reuse them.
    """

    def __init__(self, pts):
        n = pts.shape[0]
        iu = np.triu_indices(n, k=1)
        dist = pairwise_distances(pts)[iu]
        if n > 1 and dist.size and np.min(dist) == 0.0:
            k = int(np.argmin(dist))
            i, j = int(iu[0][k]), int(iu[1][k])
            raise DegenerateDesignError(f"duplicate points at indices {i} and {j}")
        self.unique, inverse = np.unique(dist, return_inverse=True)
        index = np.empty((n, n), dtype=np.int32)
        index[iu] = inverse
        index.T[iu] = inverse
        np.fill_diagonal(index, self.unique.size)
        self.index = index

    def matrix(self, kernel):
        values = np.empty(self.unique.size + 1)
        if self.unique.size:
            values[:-1] = kernel(self.unique)
        values[-1] = kernel(0.0)
        return np.take(values, self.index)


def _decomposition_for(design):
    cache = getattr(design, "_dist_cache", None)
    if cache is None:
        cache = _DistanceDecomposition(design.points)
        design._dist_cache = cache
    return cache


def kernel_matrix(kernel, design):
    """Dense kernel matrix of a design; exactly symmetric by construction.

    ``design`` is a :class:`~maternsmooth.designs.Design`.  The strict
    upper triangle is evaluated once (per distinct distance) and
    mirrored; the distance decomposition is cached on the design.
    Duplicate points make the matrix singular and raise
    :class:`DegenerateDesignError`.
    """
    if design.n == 0:
        return np.zeros((0, 0))
    return _decomposition_for(design).matrix(kernel)
