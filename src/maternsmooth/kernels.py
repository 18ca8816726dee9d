"""The Matern kernel, as a parameter record.

A :class:`MaternParams` record is the kernel: called on distances, it gives
their covariances.  Its fields are checked as given by the rules of
:mod:`~maternsmooth.errors`, so text and bools are refused: ``nu``, ``sigma``
and ``lambda_`` are positive finite reals, kept as floats, and ``d`` is an
integer of at least 1.  Distances are checked as Bessel arguments are
(:func:`~maternsmooth.errors.check_array`), zero allowed: integer or
floating numbers, finite and nonnegative, so text, bools and object arrays
are refused, not converted.  All Matern evaluation goes through
one entry, :func:`matern_eval`, in log space (log scaling factor plus
``nu * log`` of the scaled distance plus :func:`log_bessel_k`) so that orders
up to several hundred remain usable; direct evaluation of
``(.)**nu * K_nu`` would overflow long before that.
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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateDesignError, check_array, check_integer, check_real,
                     require_positive)
from .specfun import check_order, log_bessel_k, log_gamma

__all__ = [
    "MaternParams",
    "matern_eval",
    "kernel_matrix",
]


def log_c_scaling(nu, d):
    """Natural log of the Matern normalisation ``c(nu) = 2**(1-nu) / Gamma(nu)``,
    frozen at its value for ``nu = d/2`` below that, so that it stays bounded
    away from zero on every interval ``(0, nu1]``.  At ``nu >= d/2`` the
    kernel's value at zero distance is ``sigma**2``, and its large-``nu``
    limit is the Gaussian kernel ``sigma**2 exp(-r**2 / 2 lambda**2)``, the
    limit that acceptance check C10 measures."""
    nu = check_real("nu", nu)
    check_integer("dimension d", d, 1)
    nu_eff = max(nu, 0.5 * d)
    return (1.0 - nu_eff) * math.log(2.0) - log_gamma(nu_eff)


@dataclass(frozen=True)
class MaternParams:
    """The Matern kernel of smoothness ``nu``, magnitude ``sigma`` and
    length-scale ``lambda_`` in dimension ``d``, normalised by
    :func:`log_c_scaling`; called on distances, it gives their
    covariances (:func:`matern_eval`).  ``nu``, ``sigma``, ``lambda_``,
    ``sigma**2`` and the distance scale ``sqrt(2 nu) / lambda_`` must be
    positive and finite, and ``nu`` at most the Bessel layer's
    :data:`~maternsmooth.specfun.ORDER_MAX`."""

    nu: float
    sigma: float = 1.0
    lambda_: float = 1.0
    d: int = 1

    def __post_init__(self):
        require_positive(self, ("nu", "sigma", "lambda_"))
        check_order("nu", self.nu)
        check_real("sigma**2", self.sigma * self.sigma)
        check_real(f"sqrt(2 nu) / lambda_ (nu={self.nu!r}, lambda_={self.lambda_!r})",
                   math.sqrt(2.0 * self.nu) / self.lambda_)
        check_integer("dimension d", self.d, 1)

    def __call__(self, r):
        return matern_eval(self, r)

    @cached_property
    def _log_scale(self):
        """``log(sigma**2 c(nu))``, computed once per parameter set."""
        return 2.0 * math.log(self.sigma) + log_c_scaling(self.nu, self.d)

    @cached_property
    def _at_zero(self):
        """The covariance at distance 0."""
        nu = self.nu
        return math.exp(self._log_scale + (nu - 1.0) * math.log(2.0) + log_gamma(nu))


def matern_eval(params, r):
    """Matern covariance as a function of distance ``r >= 0``: the one entry
    of Matern evaluation, for a scalar or an array of any order, checked.

    The value at ``r = 0`` is the analytic limit
    ``sigma**2 c(nu) 2**(nu-1) Gamma(nu)`` (exactly ``sigma**2`` at
    ``nu >= d/2``); evaluation near zero would otherwise hit the
    singularity of ``K_nu``.
    """
    arr = check_array("distances", r, "nonnegative")
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
        # The pairs (i, j), j < i, row by row, as np.tril_indices(n, -1)
        # lists them: the pairs of row i start at position i (i - 1) / 2.
        sizes = np.arange(n)
        offsets = sizes * (sizes - 1) // 2
        i = np.repeat(sizes, sizes)
        j = np.arange(i.size)
        j -= np.repeat(offsets, sizes)
        # The operations of np.sqrt(np.sum(diff * diff, axis=-1)) in place:
        # fewer temporaries leave fewer holes in the heap, which the rest of
        # a run would keep resident.
        diff = pts[i]
        diff -= pts[j]
        diff *= diff
        dist = np.sum(diff, axis=-1)
        np.sqrt(dist, out=dist)
        if dist.size and np.min(dist) == 0.0:
            k = int(np.argmin(dist))
            raise DegenerateDesignError(
                f"duplicate points at indices {int(j[k])} and {int(i[k])}")
        del diff, j
        # The distinct distances in ascending order, as np.unique gives them,
        # from one sort of any kind: a distance's first pair is the least
        # position among its equal values (its one position when all are
        # distinct), and the pairs come row by row.  So each panel's
        # distances, taken in that order, ascend.  Each temporary is dropped
        # once spent, to hold fewer than np.unique.
        order = np.argsort(dist)
        dist = dist[order]
        fresh = np.empty(dist.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(dist[1:], dist[:-1], out=fresh[1:])
        starts = np.flatnonzero(fresh)
        unique = dist[starts]
        distinct = starts.size == dist.size
        rows = i[order if distinct else np.minimum.reduceat(order, starts)]
        del dist, starts, i
        self.bounds = [0] + _panel_ends(n)
        self.count = np.concatenate(([0], 1 + np.cumsum(np.bincount(rows, minlength=n))))
        # Numbered panel by panel from 1: a stable sort of the distinct
        # distances by the panel of their first row keeps them ascending
        # within each panel.
        panel_of_row = np.repeat(np.arange(len(self.bounds) - 1, dtype=np.int8),
                                 np.diff(self.bounds))
        by_panel = np.argsort(panel_of_row[rows], kind="stable")
        number = np.empty(unique.size, dtype=np.int32)
        number[by_panel] = np.arange(1, unique.size + 1, dtype=np.int32)
        self.distances = np.zeros(unique.size + 1)
        np.take(unique, by_panel, out=self.distances[1:])
        del unique, rows, by_panel
        numbers = np.empty(order.size, dtype=np.int32)
        numbers[order] = number if distinct else number[np.cumsum(fresh, dtype=np.int32) - 1]
        del order, fresh, number
        self.index = np.zeros((n, n), dtype=np.int32)
        for r, start in enumerate(offsets):
            self.index[r, :r] = self.index[:r, r] = numbers[start:start + r]

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
