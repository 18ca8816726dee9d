"""Matern and Gaussian covariance kernels with configurable order scaling.

All Matern evaluation goes through one entry, :func:`matern_eval`, in log
space (log scaling factor plus ``nu * log`` of the scaled distance plus
:func:`log_bessel_k`) so that orders up to several hundred remain usable;
direct evaluation of ``(.)**nu * K_nu`` would overflow long before that.
Kernel matrices are assembled by row panels (ends 16, 32, 64, ..., those of
the factorization) from a table of distinct distances numbered by the panel
in which they first appear and by value within it: each panel calls the
kernel at one ascending run of new distances, and a prefix of the design of
any size only at its own distances.  The Bessel layer sorts input that does
not ascend, as the one call of a lattice-like design, in table order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .designs import is_integer
from .errors import DegenerateDesignError, DomainError
from .specfun import is_real, log_bessel_k, log_gamma

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
        if self.kind == "clamped":
            check_dimension(self.d)

    @classmethod
    def standard(cls):
        return cls("standard")

    @classmethod
    def clamped(cls, d):
        return cls("clamped", d)


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


def check_dimension(d):
    """Raise :class:`DomainError` unless ``d`` is an integer >= 1, Python or
    NumPy, and not a bool."""
    if not (is_integer(d) and d >= 1):
        raise DomainError(f"dimension d must be an integer >= 1, got {d!r}")


def check_positive(name, value):
    """Raise :class:`DomainError` naming ``name`` unless ``value`` is a
    positive finite real number: Python or NumPy, and not a bool."""
    if not (is_real(value) and math.isfinite(value) and value > 0):
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


def matern_eval(params, r):
    """Matern covariance as a function of distance ``r >= 0``: the one entry
    of Matern evaluation, for a scalar or an array of any order, checked.

    The value at ``r = 0`` is the analytic limit
    ``sigma**2 c(nu) 2**(nu-1) Gamma(nu)`` (exactly ``sigma**2`` under
    standard scaling); evaluation near zero would otherwise hit the
    singularity of ``K_nu``.
    """
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
    check_dimension(d)
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
        check_dimension(d)
        self.params = params
        self.d = d
        self.unit_amplitude = unit_amplitude

    def __call__(self, r):
        return gaussian_eval(self.params, r, self.d, self.unit_amplitude)

    @property
    def variance(self):
        return gaussian_eval(self.params, 0.0, self.d, self.unit_amplitude)

    def __repr__(self):
        p = self.params
        return f"GaussianKernel(sigma={p.sigma}, lambda_={p.lambda_}, d={self.d})"


# Row panels of kernel assembly and of the factorization (``gp._factor``)
# end at 16, 32, 64, ... points.
_FIRST_PANEL = 16


def _panel_ends(n):
    ends = [_FIRST_PANEL]
    while ends[-1] < n:
        ends.append(2 * ends[-1])
    return [min(b, n) for b in ends] if n else []


class _DistanceTable:
    """Distinct pairwise distances of a point sequence, numbered by row panel.

    Number 0 is the zero distance.  The others are numbered by the row panel
    (:func:`_panel_ends`) in which they first appear among the pairs
    ``(i, j)``, ``j < i``, and by value within each panel, so each panel's
    new distances are one ascending run.  ``count[m]`` is the number of
    distinct distances among the first ``m`` points; where ``m`` is a panel
    end, they are the first ``count[m]`` numbers.  ``index[:m, :m]`` maps the
    kernel matrix of the first ``m`` points onto the numbers.  Lattice-like
    designs repeat distances many times; the kernel is evaluated once each,
    in table order, which the Bessel layer sorts where it does not ascend.
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
        # The distinct distances in ascending order, as np.unique gives them,
        # from one sort of any kind: a distance's first pair is the least
        # position among its equal values, and the pairs come row by row.
        # So each panel's distances, taken in that order, ascend.  Each
        # temporary is dropped once spent, to hold fewer than np.unique.
        order = np.argsort(dist)
        dist = dist[order]
        fresh = np.empty(dist.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(dist[1:], dist[:-1], out=fresh[1:])
        starts = np.flatnonzero(fresh)
        unique = dist[starts]
        rows = il[0][np.minimum.reduceat(order, starts)]  # the row of each first pair
        del diff, dist, starts
        self.bounds = [0] + _panel_ends(n)
        self.count = np.concatenate(([0], 1 + np.cumsum(np.bincount(rows, minlength=n))))
        self.distances = np.zeros(unique.size + 1)
        number = np.empty(unique.size, dtype=np.int32)
        for a, b in zip(self.bounds, self.bounds[1:]):
            lo, hi = max(self.count[a], 1), self.count[b]
            members = np.flatnonzero((rows >= a) & (rows < b))
            number[members] = np.arange(lo, hi, dtype=np.int32)
            self.distances[lo:hi] = unique[members]
        del unique, rows
        group = np.cumsum(fresh, dtype=np.int32)
        group -= 1
        numbers = np.empty(order.size, dtype=np.int32)
        numbers[order] = number[group]
        self.index = np.zeros((n, n), dtype=np.int32)
        self.index[il] = self.index.T[il] = numbers

    def new(self, a, b):
        """The numbers of the distances that first appear in rows ``a:b``,
        ascending within each panel: a slice when ``a`` and ``b`` are panel
        ends (or 0), else an index array.

        Then they are picked out of the panels that cover those rows: the
        numbers of the pairs in rows ``a:b``, less those of the pairs in the
        earlier rows of the first covering panel.
        """
        lo = self.bounds[bisect.bisect_right(self.bounds, a) - 1]
        hi = self.bounds[bisect.bisect_left(self.bounds, b)]
        if (lo, hi) == (a, b):
            return slice(self.count[a], self.count[b])
        base = self.count[lo]
        fresh = np.zeros(self.count[hi] - base, dtype=bool)
        pairs = self.index[a:b, :b]
        fresh[pairs[pairs >= base] - base] = True
        pairs = self.index[lo:a, :a]
        fresh[pairs[pairs >= base] - base] = False
        return base + np.flatnonzero(fresh)

    def size(self, n):
        """How many numbers the kernel matrix of the first ``n`` points reads
        from: all those of the panels that cover its rows."""
        return self.count[self.bounds[bisect.bisect_left(self.bounds, n)]]


def kernel_panels(kernel, design, ends):
    """Row panels ``K[a:b, :b]`` of the kernel matrix, for ascending ``ends`` b.

    A generator of Fortran-ordered panels, each from the previous end; each
    evaluates the kernel only at the distances new in its rows, when it is
    requested, unless the design has at most ``n`` distinct nonzero
    distances: those are all evaluated in one call before the first panel,
    in table order.  Every evaluation is ``kernel(distances)``.  The
    distance table is cached on the design and shared with its prefixes
    (:meth:`~maternsmooth.designs.Design.prefix`), and it numbers the
    distances by the panels of :func:`_panel_ends`: a panel between two such
    ends hands the kernel one ascending run of distances, and any other
    panel the new distances of its rows, picked out of the table's panels
    that cover them.  Table order is ascending within each panel, not
    across them; the Bessel layer sorts what does not ascend.
    """
    table = getattr(design, "_dist_cache", None)
    if table is None:
        table = design._dist_cache = _DistanceTable(design.points)
    values = np.empty(table.size(design.n))
    # A lattice-like design has the zero distance and at most n others: one
    # call evaluates them all, in the table's order, for less than the fixed
    # cost of one per panel.
    ready = table.count[design.n] <= design.n + 1
    if ready:
        new = table.new(0, design.n)
        values[new] = kernel(table.distances[new])
    a = 0
    for b in ends:
        if not ready:
            new = table.new(a, b)
            distances = table.distances[new]
            if distances.size:
                values[new] = kernel(distances)
        # The index is symmetric: its columns a:b, transposed, are the rows.
        yield values[table.index[:b, a:b]].T
        a = b


def kernel_matrix(kernel, design):
    """Dense kernel matrix of a design; exactly symmetric by construction.

    ``design`` is a :class:`~maternsmooth.designs.Design`; the kernel is
    evaluated once per distinct pairwise distance.  Duplicate points make
    the matrix singular and raise :class:`DegenerateDesignError`.
    """
    return next(kernel_panels(kernel, design, [design.n]))
