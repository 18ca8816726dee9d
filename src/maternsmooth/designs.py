"""Point sequences on box domains, and their fill distances.

Generators produce *ordered* point sets: every prefix of the sequence is
itself quasi-uniform, so a single stream of points serves sweeps over
growing data sizes.  Grids are emitted coarse-to-fine (corner points
first, then successive dyadic refinements); the one-dimensional default
is the base-2 radical-inverse sequence with the interval endpoints
prepended.

The fill distance and the least squared separation of a prefix
(:func:`_separations`) read each point's nearest neighbour exactly.  On a
line a probe reads its two neighbours in the sorted points; in higher
dimensions, and for every separation, one helper queries a k-d tree
(:func:`_nearest`) and re-ranks its few candidates by one elementwise
formula, so each value is bit for bit that of the dense pass over every
pair.  ``scipy.spatial`` is imported on the first tree query, so that runs
on a line, which never make one, do not pay its import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, DomainError, check_array, check_integer

__all__ = [
    "Box",
    "Design",
    "uniform_grid",
    "van_der_corput",
    "fill_distance",
    "fill_distances",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box domain given by lower and upper corners, each a
    vector of finite reals (:func:`~maternsmooth.errors.check_array`),
    kept as a tuple of Python floats."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo, hi = (np.atleast_1d(check_array(f"box corner {name}", getattr(self, name), None))
                  for name in ("lower", "upper"))
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise DomainError("box corners must have equal positive length")
        lo, hi = tuple(lo.tolist()), tuple(hi.tolist())
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if any(not (l < u) for l, u in zip(lo, hi)):
            raise DomainError(f"degenerate box: lower={lo}, upper={hi}")

    @property
    def d(self):
        return len(self.lower)

    @classmethod
    def unit(cls, d):
        return cls((0.0,) * d, (1.0,) * d)

    def contains(self, points):
        """Whether every point, finite reals (:func:`check_array`), lies in
        the box to 1e-12."""
        pts = np.atleast_2d(check_array("points", points, None))
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return bool(np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12))


def check_schedule(schedule):
    """A schedule of prefix sizes as a list of ints: :class:`DomainError`
    unless each is an integer of at least 1 (:func:`check_integer`), larger
    than the one before."""
    given = tuple(schedule)
    sizes = [check_integer(f"schedule {given}: each size", n, 1) for n in given]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError(f"schedule {given} must be strictly ascending")
    return sizes


class Design:
    """An ordered point sequence inside a box; prefixes are meaningful.

    ``points`` are finite reals (:func:`~maternsmooth.errors.check_array`),
    ``(n, d)`` or, in one dimension, ``(n,)``, held as a read-only copy.
    """

    def __init__(self, points, box):
        pts = check_array("points", points, None)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise DomainError("points must be an (n, d) array")
        if pts.shape[0] and pts.shape[1] != box.d:
            raise DomainError(f"points have dimension {pts.shape[1]}, box has {box.d}")
        if not box.contains(pts) and pts.shape[0]:
            raise DomainError("some points fall outside the box")
        if pts.shape[0] != np.unique(pts, axis=0).shape[0]:
            raise DegenerateDesignError("design contains duplicate points")
        pts = pts.copy()
        pts.setflags(write=False)
        self.points = pts
        self.box = box

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.box.d

    def check_prefix_size(self, m):
        """``m`` as an int: :class:`DomainError` unless it is an integer in
        ``[0, n]``."""
        return check_integer("prefix size", m, 0, self.n)

    def check_schedule(self, sizes):
        """A schedule of prefix sizes of this design as a list of ints:
        :func:`check_schedule`, and :class:`DomainError` when its last size
        exceeds the design's points."""
        sizes = check_schedule(sizes)
        if sizes and sizes[-1] > self.n:
            raise DomainError(f"size {sizes[-1]} exceeds the design's {self.n} points")
        return sizes

    def prefix(self, m):
        """The first ``m`` points, built once per size and sharing the
        distance table that kernel assembly caches on this design (see
        ``kernels.kernel_panels``)."""
        m = self.check_prefix_size(m)
        if m == self.n:
            return self
        prefixes = self.__dict__.setdefault("_prefixes", {})
        if m not in prefixes:
            prefixes[m] = Design(self.points[:m], self.box)
        if hasattr(self, "_dist_cache"):
            prefixes[m]._dist_cache = self._dist_cache
        return prefixes[m]

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Design(n={self.n}, d={self.d})"


def _bisection_levels(m):
    """Depth at which each of m grid indices appears under recursive bisection."""
    levels = np.zeros(m, dtype=int)
    if m <= 2:
        return levels
    stack = [(0, m - 1, 1)]
    while stack:
        lo, hi, lvl = stack.pop()
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        levels[mid] = lvl
        stack.append((lo, mid, lvl + 1))
        stack.append((mid, hi, lvl + 1))
    return levels


def uniform_grid(box, m_per_axis):
    """Tensor grid of ``m_per_axis**d`` points in coarse-to-fine order.

    Points of the two-point-per-axis corner grid come first, then each
    successive dyadic refinement level, so every prefix of the returned
    design is itself quasi-uniform.  ``m_per_axis`` is an integer of at
    least 2.
    """
    m = check_integer("m_per_axis", m_per_axis, 2)
    d = box.d
    axes = [np.linspace(box.lower[k], box.upper[k], m) for k in range(d)]
    levels_1d = _bisection_levels(m)
    idx = np.stack(np.meshgrid(*([np.arange(m)] * d), indexing="ij"), axis=-1).reshape(-1, d)
    level = levels_1d[idx].max(axis=1)
    order = np.lexsort(tuple(idx[:, k] for k in reversed(range(d))) + (level,))
    pts = np.column_stack([axes[k][idx[order, k]] for k in range(d)])
    return Design(pts, box)


def _radical_inverse_base2(k):
    q = 0.0
    b = 0.5
    while k > 0:
        q += (k & 1) * b
        k >>= 1
        b *= 0.5
    return q


def van_der_corput(box, n):
    """Base-2 radical-inverse sequence on a 1-d interval, endpoints first.

    Every prefix is quasi-uniform with mesh ratio at most 4.  ``n`` is an
    integer of at least 1.
    """
    if box.d != 1:
        raise DomainError("van der Corput designs are one-dimensional")
    n = check_integer("n", n, 1)
    lo, hi = box.lower[0], box.upper[0]
    unit = [0.0, 1.0]
    k = 1
    while len(unit) < n:
        unit.append(_radical_inverse_base2(k))
        k += 1
    pts = lo + (hi - lo) * np.asarray(unit[:n])
    return Design(pts, box)


def _probe_grid(box, resolution):
    axes = [np.linspace(box.lower[k], box.upper[k], resolution) for k in range(box.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


# Elements of the distance temporaries of one block of queries: 1 MiB of
# doubles.
_CHUNK_ELEMENTS = 1 << 17


def _nearest(queries, points, exclude=None):
    """Per row of ``queries``, its least squared distance to the rows of
    ``points``, leaving out ``points[exclude[i]]`` for query ``i`` when
    ``exclude`` is given; ``inf`` when no point is left.

    A k-d tree of the points (Bentley, CACM 1975) proposes each query's
    ``2**d + 1`` nearest points, one more when the query's own index is
    excluded, and one elementwise formula re-ranks them, so the value is
    bit for bit the least over all points by that formula.  The tree's
    search is exact and sums the same squares: in d <= 5 its distances are
    the formula's to the last bit, and in d = 8, where they may differ in
    it, the spare candidates hold every point within rounding of the
    nearest.  They also hold the ``2**d`` points that tie at a lattice
    cell's centre.  Queries run in blocks whose temporaries stay at about
    1 MB.  ``scipy.spatial`` is imported here, not at load time, so that
    runs on a line, which never get here, do not pay its import.
    """
    from scipy.spatial import cKDTree

    d = points.shape[1]
    k = min(2 ** d + 1 + (exclude is not None), len(points))
    tree = cKDTree(points)
    nearest = np.empty(len(queries))
    block = max(1, _CHUNK_ELEMENTS // (k * d))
    for start in range(0, len(queries), block):
        rows = slice(start, start + block)
        # A query for one neighbour returns one index per row, not a row.
        idx = tree.query(queries[rows], k=k)[1].reshape(-1, k)
        d2 = np.sum((queries[rows, None, :] - points[idx]) ** 2, axis=-1)
        if exclude is not None:
            d2[idx == exclude[rows, None]] = np.inf
        nearest[rows] = d2.min(axis=1)
    return nearest


def fill_distances(design, sizes, probe_resolution=None):
    """:func:`fill_distance` of the first ``n`` points for each ``n`` in
    ``sizes`` (ascending integers in ``[1, design.n]``), each value bit for
    bit that of the prefix probed on its own.

    One pass runs over the schedule: at each size every probe reads its
    nearest point among those added since the size before and keeps the
    least squared distance so far.  On a line the probe reads its two
    neighbours among the sorted points (:func:`_nearest_on_line`); in
    higher dimensions it queries a k-d tree of them (:func:`_nearest`).
    So each size costs one query of every probe (``probe_resolution**d``
    of them): long schedules in d = 3 at the default 129**3 probes take
    minutes, a doubling one seconds.
    """
    sizes = design.check_schedule(sizes)
    if probe_resolution is None:
        probe_resolution = 4097 if design.d == 1 else 129
    probes = _probe_grid(design.box, check_integer("probe_resolution", probe_resolution, 64))
    pts = design.points
    nearest = _nearest_on_line if design.d == 1 else _nearest
    best = np.full(probes.shape[0], np.inf)
    fills = []
    for a, n in zip([0] + sizes[:-1], sizes):
        np.minimum(best, nearest(probes, pts[a:n]), out=best)
        # The square root is monotone and correctly rounded, so each value
        # is the largest of the probes' distances.
        fills.append(float(np.sqrt(best.max())))
    return fills


def _nearest_on_line(queries, points):
    """Per row of the ``(m, 1)`` array ``queries`` on a line, its least
    squared distance to the rows of ``points``, the value
    :func:`_nearest`'s formula gives, from its two neighbours among the
    sorted points.  The rounded ``p - x`` is monotone in ``x``, so no
    point beyond a neighbour comes nearer, to the last bit."""
    probes, line = queries[:, 0], np.sort(points[:, 0])
    right = np.minimum(np.searchsorted(line, probes), line.size - 1)
    left = np.maximum(right - 1, 0)
    # A sum over one coordinate is its square alone.
    return np.minimum((probes - line[left]) ** 2, (probes - line[right]) ** 2)


def fill_distance(design, probe_resolution=None):
    """Largest distance from the domain to the design, probed on a grid.

    Returns the maximum over a tensor probe grid of the distance to the
    nearest design point.  This is a lower bound on the true fill distance
    that converges to it as the probe resolution grows.  The grid has
    ``probe_resolution`` points per axis, an integer of at least 64
    (default 4097 in one dimension, 129 otherwise).
    """
    if design.n == 0:
        raise DomainError("fill distance of an empty design")
    return fill_distances(design, [design.n], probe_resolution)[0]


def _separations(design, sizes):
    """Per size ``n`` in ``sizes`` (ascending), the least squared distance
    between two of the first ``n`` points, ``inf`` for one point: a running
    minimum over the points each size adds, each queried against all the
    points of its size but itself."""
    pts = design.points
    return np.minimum.accumulate([_nearest(pts[a:n], pts[:n], exclude=np.arange(a, n)).min()
                                  for a, n in zip([0] + sizes[:-1], sizes)])
