"""Point sequences on box domains with quasi-uniformity diagnostics.

Generators produce *ordered* point sets: every prefix of the sequence is
itself quasi-uniform, so a single stream of points serves sweeps over
growing data sizes.  Grids are emitted coarse-to-fine (corner points
first, then successive dyadic refinements); the one-dimensional default
is the base-2 radical-inverse sequence with the interval endpoints
prepended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, DomainError

__all__ = [
    "Box",
    "Design",
    "UniformityReport",
    "uniform_grid",
    "van_der_corput",
    "fill_distance",
    "separation_distance",
    "uniformity_report",
    "save_design",
    "load_design",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box domain given by lower and upper corners."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or len(lo) == 0:
            raise DomainError("box corners must have equal positive length")
        if any(not (l < u) for l, u in zip(lo, hi)):
            raise DomainError(f"degenerate box: lower={lo}, upper={hi}")

    @property
    def d(self):
        return len(self.lower)

    @classmethod
    def unit(cls, d):
        return cls((0.0,) * d, (1.0,) * d)

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return bool(np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12))


def is_integer(value):
    """Whether ``value`` is a Python or NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Design:
    """An ordered point sequence inside a box; prefixes are meaningful."""

    def __init__(self, points, box):
        pts = np.asarray(points, dtype=float)
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
        """``m`` as an int: :class:`DomainError` unless it is an integer (a
        NumPy one will do, a bool will not) in ``[0, n]``."""
        if not is_integer(m):
            raise DomainError(f"prefix size must be an integer, got {m!r}")
        if not (0 <= m <= self.n):
            raise DomainError(f"prefix size {m} outside [0, {self.n}]")
        return int(m)

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
    design is itself quasi-uniform.
    """
    m = int(m_per_axis)
    if m < 2:
        raise DomainError(f"m_per_axis must be >= 2, got {m_per_axis!r}")
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

    Every prefix is quasi-uniform with mesh ratio at most 4.
    """
    if box.d != 1:
        raise DomainError("van der Corput sequence is one-dimensional")
    if n < 1:
        raise DomainError(f"need n >= 1 points, got {n!r}")
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


def fill_distance(design, probe_resolution=None):
    """Largest distance from the domain to the design, probed on a grid.

    Returns the maximum over a tensor probe grid of the distance to the
    nearest design point.  This is a lower bound on the true fill distance
    that converges to it as the probe resolution grows.
    """
    if design.n == 0:
        raise DomainError("fill distance of an empty design")
    if probe_resolution is None:
        probe_resolution = 4097 if design.d == 1 else 129
    if probe_resolution < 64:
        raise DomainError("probe_resolution must be at least 64")
    probes = _probe_grid(design.box, int(probe_resolution))
    best = np.full(probes.shape[0], np.inf)
    pts = design.points
    for start in range(0, probes.shape[0], 8192):
        block = probes[start : start + 8192]
        d2 = np.sum((block[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        best[start : start + 8192] = np.sqrt(d2.min(axis=1))
    return float(best.max())


def separation_distance(design):
    """Half the minimal pairwise distance of the design points."""
    if design.n < 2:
        raise DomainError("separation distance needs at least 2 points")
    pts = design.points
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    iu = np.triu_indices(design.n, k=1)
    return 0.5 * float(np.sqrt(d2[iu].min()))


@dataclass(frozen=True)
class UniformityReport:
    """Fill/separation diagnostics of one design prefix."""

    n: int
    fill: float
    separation: float
    ratio_upper: float  # fill * n**(1/d)
    mesh_ratio: float  # fill / separation


def uniformity_report(design, n_schedule, probe_resolution=None):
    """Quasi-uniformity diagnostics along a schedule of prefix sizes."""
    schedule = [int(n) for n in n_schedule]
    if schedule != sorted(schedule):
        raise DomainError("prefix schedule must be sorted ascending")
    if schedule and schedule[-1] > design.n:
        raise DomainError("schedule exceeds design size")
    reports = []
    for n in schedule:
        pre = design.prefix(n)
        fill = fill_distance(pre, probe_resolution)
        sep = separation_distance(pre) if n >= 2 else math.nan
        reports.append(
            UniformityReport(
                n=n,
                fill=fill,
                separation=sep,
                ratio_upper=fill * n ** (1.0 / design.d),
                mesh_ratio=fill / sep if n >= 2 else math.nan,
            )
        )
    return reports


def save_design(design, path):
    """Write a design as plain text: header ``d n``, one point per line."""
    with open(path, "w") as fh:
        fh.write(f"{design.d} {design.n}\n")
        for row in design.points:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_design(path, box=None):
    """Read a design written by :func:`save_design`.

    If no box is given, the exact bounding box of the points is used
    (generated designs include the domain corners, so this round-trips).
    """
    with open(path) as fh:
        header = fh.readline().split()
        d, n = int(header[0]), int(header[1])
        pts = np.loadtxt(fh, ndmin=2).reshape(n, d) if n else np.zeros((0, d))
    if box is None:
        box = Box(tuple(pts.min(axis=0)), tuple(pts.max(axis=0)))
    return Design(pts, box)

