"""Derivative-free estimation of the Matern smoothness nu on a bounded bracket.

Estimation runs on a lattice of log-spaced coarse cells over a bracket
``[nu_min, nu_max]``, coarse to fine (:func:`bracketed_minimize`): every
twelfth cell first, then bisection of the gaps that hold the ends of the
searchable bracket and a read of the left neighbour of its top, then a walk
from the coarse minimum to the cells next to the minimum.  Cells whose
kernel matrix fails to factorize are recorded and skipped; the searchable
bracket is the contiguous run of cells that factor, from the lowest one,
and an estimate that saturates its top is flagged via
``hit_upper_bracket``.  A minimum inside the run is
refined on its bracketing triple by Chebyshev-Lobatto nodes in log nu:
the objectives are analytic in log nu there, so the minimum of the
polynomial through nine nodes stands in for a one-dimensional search.

A prefix sweep runs its sizes from the largest to the smallest, and each
search of a size, objective and data column is one
:func:`bracketed_minimize` call.  A cell that a search asks for and the
sweep's table lacks is factored on that size's prefix, and every prefix up
to that one reads the objectives the sweep runs from that factor.  Every
larger size has finished by then, so each cell is factored once, on the
largest prefix that asks for it, for every column and objective.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial import chebyshev as cheb

# ``fill_distance`` and ``condition`` stay bound here for the benchmark
# tracer, which wraps them.
from .designs import fill_distance, fill_distances  # noqa: F401
from .errors import (ConditioningError, DomainError, EstimationError, check_integer,
                     check_real, require_positive)
from .gp import _as_data, _prefix_posteriors, condition  # noqa: F401
from .kernels import MaternParams
from .objectives import ell_cv_from, ell_ml_from
from .specfun import check_order

__all__ = [
    "EstimatorConfig",
    "NuEstimate",
    "SweepRecord",
    "estimate_nu",
    "sweep_prefixes",
    "bracketed_minimize",
]

# Refinement nodes per bracket: Chebyshev-Lobatto points on [-1, 1], in
# ascending order, with the ends and the midpoint exact.  A bracketing
# triple of the log-uniform coarse grid maps its cells onto -1, 0 and 1.
_NODES = 9
_MID = _NODES // 2
_UNIT_NODES = np.array([math.sin(math.pi * k / (_NODES - 1)) for k in range(-_MID, _MID + 1)])
# Chebyshev coefficients of the interpolating polynomial from its node
# values, by discrete orthogonality on the nodes: T_j at node k is
# (-1)^j cos(j k pi / (_NODES - 1)), and the end nodes and the first and
# last coefficients carry half weight.
_TO_CHEBYSHEV = np.array([
    [2.0 / (_NODES - 1) * (-1) ** j * math.cos(math.pi * j * k / (_NODES - 1))
     * (0.5 if j in (0, _NODES - 1) else 1.0) * (0.5 if k in (0, _NODES - 1) else 1.0)
     for k in range(_NODES)] for j in range(_NODES)])
# The interpolant's minimum is located on this scan of [-1, 1], then
# polished by Newton steps, each of which squares the scan's error.
_SCAN = np.linspace(-1.0, 1.0, 2049)
_NEWTON_STEPS = 3
# The coarse scan reads every _STRIDE-th cell of the lattice first (see
# :func:`bracketed_minimize`).  Measured with bisection, the read of the
# top's left neighbour and the walk, at strides 8, 12 and 16: the C07 sweep
# (ten seeds, n <= 512) factors 54, 48 and 49 search cells, the benchmark's
# saturation-scattered sweep 20, 18 and 18, and the 16 configurations of
# tools/cli_digests.py that search do 2,900, 2,468 and 2,619 units of
# factor-plus-inverse work (tools/search_work.py; 3,024 to 3,563 at strides
# 13 to 15).  The work is bumpy in the stride; 12 does the least, and
# stride 16 would cost the forty seeds at nu0 = 0.5 44.0 units against
# 30.1.  The stride decides which failing cells inside the run go unseen;
# the left-neighbour read sees one right below the run's top: at n = 16,
# C07's cell 51 fails between the evaluable cells 50 and 52, and with
# sigma = 1.3, lambda = 0.7 cells 54-56 and 58 fail around the evaluable
# 57 and 59, and both runs end where the scan of every cell ends them
# (cells 50 and 53).
_STRIDE = 12


@dataclass(frozen=True)
class EstimatorConfig:
    """Search configuration for smoothness estimation.

    ``sigma`` and ``lambda_`` are held fixed unless ``profile_sigma`` is
    set, in which case the closed-form magnitude estimate is substituted
    per candidate smoothness.  As in :class:`~maternsmooth.kernels.MaternParams`,
    ``sigma**2`` must be positive and finite, and ``nu_max`` at most
    :data:`~maternsmooth.specfun.ORDER_MAX`.  The distance scale
    ``sqrt(2 nu) / lambda_`` of the smoothness searched is checked where
    a search starts (:func:`_searches`).
    """

    nu_min: float = 0.05
    nu_max: float = 15.0
    coarse_grid: int = 60
    sigma: float = 1.0
    profile_sigma: bool = False
    lambda_: float = 1.0

    def __post_init__(self):
        require_positive(self, ("nu_min", "nu_max", "sigma", "lambda_"))
        check_order("nu_max", self.nu_max)
        check_real("sigma**2", self.sigma * self.sigma)
        if not self.nu_min < self.nu_max:
            raise DomainError(f"need nu_min < nu_max, got nu_min={self.nu_min!r}, "
                              f"nu_max={self.nu_max!r}")
        check_integer("coarse_grid", self.coarse_grid, 8)
        if not isinstance(self.profile_sigma, bool):
            raise DomainError(f"profile_sigma must be a bool, got {self.profile_sigma!r}")


@dataclass(frozen=True)
class NuEstimate:
    """Result of one smoothness estimation, or of any bracketed minimisation.

    ``searchable_upper`` is the top of the searchable bracket: the
    contiguous run of coarse cells that could be evaluated, from the lowest
    one (``nu_min`` unless it fails).  ``hit_upper_bracket`` is set when
    the estimate saturates the run: its coarse minimum is the run's top
    cell, and ``nu_hat`` is ``searchable_upper``.  A minimum inside the last
    bracket, however close to the top, is a real minimum and is not
    flagged; that holds for the best node returned under ``non_unimodal``
    too, which lies below the top because the top cell's value exceeds the
    coarse minimum's.  ``objective_at_min`` is the interpolating
    polynomial's value at ``nu_hat`` after refinement, else the value of
    the cell or node returned.

    The search reads the coarse cells coarse to fine
    (:func:`bracketed_minimize`), and the counts cover the cells it read:
    ``failures`` lists those that could not be evaluated, as ``(nu,
    message)`` pairs (in a sweep, a failed factorization's message is
    ``nu=<nu>, n=<n>: `` and the factor's own, see :func:`_cells`),
    ``irregular_failures`` counts those above the run that could still be
    evaluated (the search ignores them), and ``evaluations`` counts every
    distinct cell read plus the interior nodes of the bracket when it was
    refined.  When the failing cells are a lower and an upper set of the
    lattice (every cell below a failing lowest cell, or above a failing cell
    of the run, fails) and the values are unimodal over the run, ties
    allowed, every other field is bit for bit that of a scan of every cell.
    """

    nu_hat: float
    objective_at_min: float
    hit_upper_bracket: bool
    evaluations: int
    failures: tuple
    searchable_upper: float
    irregular_failures: int
    non_unimodal: bool = False


def _on_bracket(grid, best, t):
    """The point ``t`` of ``[-1, 1]`` on the bracketing triple around coarse
    cell ``best``, mapped linearly in log nu."""
    a, b = math.log(grid[best - 1]), math.log(grid[best + 1])
    return np.exp(0.5 * (a + b) + 0.5 * (b - a) * t)


def _bracket_nodes(grid, best):
    """The refinement nodes of the bracketing triple around coarse cell
    ``best``, ascending, whose two ends and midpoint are the triple's
    coarse cells."""
    nodes = [float(nu) for nu in _on_bracket(grid, best, _UNIT_NODES)]
    nodes[0], nodes[_MID], nodes[-1] = (float(nu) for nu in grid[best - 1:best + 2])
    return nodes


def _unimodal(values):
    """Whether ``values`` fall to their minimum and then rise."""
    k = int(np.argmin(values))
    return bool(np.all(np.diff(values[:k + 1]) <= 0) and np.all(np.diff(values[k:]) >= 0))


def _interpolant_minimum(values):
    """The minimum ``(t, value)`` on ``[-1, 1]`` of the polynomial through
    ``values`` at the unit nodes.

    The least of its values on a uniform scan of the interval, moved by
    Newton steps on its derivative to the root there when the scan's least
    point is inside.  (The companion matrix's eigenvalues would give the
    same root, but loading LAPACK's eigenvalue code costs about 1 MB of
    resident memory.)
    """
    coeffs = _TO_CHEBYSHEV @ values
    j = int(np.argmin(cheb.chebval(_SCAN, coeffs)))
    t = float(_SCAN[j])
    if 0 < j < _SCAN.size - 1:
        slope, curvature = cheb.chebder(coeffs), cheb.chebder(coeffs, 2)
        x = t
        for _ in range(_NEWTON_STEPS):
            c = cheb.chebval(x, curvature)
            if not c > 0.0:
                break
            x -= cheb.chebval(x, slope) / c
        if _SCAN[j - 1] < x < _SCAN[j + 1]:
            t = float(x)
    return t, float(cheb.chebval(t, coeffs))


def _outcome(fn, theta):
    """``fn(theta)``, or the :class:`ConditioningError` it raises, kept
    without its traceback, which holds the frames that raised it."""
    try:
        return fn(theta)
    except ConditioningError as err:
        return err.with_traceback(None)


def bracketed_minimize(fn, lo, hi, n_coarse):
    """Coarse-to-fine scan plus node refinement of ``fn`` on ``n_coarse``
    log-spaced cells of ``[lo, hi]``.

    ``fn`` maps a positive scalar to an objective value and may return or
    raise :class:`ConditioningError`; it is called once per distinct cell or
    node read, in the order the search asks for them.  A failing cell, or
    one whose value is not finite, is recorded in ``failures`` and
    unevaluable.  Raises :class:`EstimationError` when no cell can be
    evaluated, and :class:`DomainError` unless ``lo`` and ``hi`` are positive
    and finite real numbers with ``lo <= hi`` and ``n_coarse`` is an integer
    of at least 1.  The search reads in four rounds:

    1. every ``_STRIDE``-th cell and the top cell, or, when none of them can
       be evaluated, every cell;
    2. bisection: of the unread cells between the lowest evaluable cell and
       the read cell below it, and of those between the run's highest read
       cell and the first read failure above it, the middle one, and again
       until neither gap is left; then the left neighbour of the run's top
       when it is unread, and bisection again if it fails, until the top's
       left neighbour has been read.  That fixes ``first``, ``top`` and
       ``searchable_upper`` (see :class:`NuEstimate`);
    3. a walk: the unread neighbours of the run's minimum inside the run,
       and again until both have been read.  Coarse ties are broken toward
       the larger argument, and a left neighbour whose value ties the
       minimum's is a shelf: the walk goes on past it to the first left
       cell that does not tie;
    4. the interior Chebyshev-Lobatto nodes, in log coordinates, of the
       minimum's bracketing triple, when it lies inside the run.  The
       estimate is the minimum of the degree-8 polynomial through the nine
       nodes.  When a node cannot be evaluated, or the node values are not
       unimodal, or the polynomial's minimum sits on an end of the bracket,
       the best node is returned with ``non_unimodal`` set.  The node
       count, not a tolerance, fixes the precision of the estimate.

    A cell that is not read counts as evaluable when it lies inside the
    run and as failing below it.  So when the failing cells are a lower
    and an upper set of the lattice, bisection finds the ends of the scan
    of every cell; when the values are also unimodal over the run (falling
    to the minimum and then rising, ties allowed), the walk ends at its
    minimum, the last cell of the least value, so the search finds the
    bracketing triple and nodes of that scan and returns its estimate bit
    for bit.  A failing cell between two evaluable cells that the search
    does not read is not seen; the read of the top's left neighbour sees
    one right below the run's top.
    """
    lo, hi = check_real("lo", lo), check_real("hi", hi)
    if lo > hi:
        raise DomainError(f"need lo <= hi, got lo={lo!r}, hi={hi!r}")
    check_integer("n_coarse", n_coarse, 1)
    grid = [float(theta) for theta in np.geomspace(lo, hi, n_coarse)]
    known, failures = {}, []

    def read(thetas):
        for theta in dict.fromkeys(thetas):
            if theta in known:
                continue
            outcome = _outcome(fn, theta)
            if isinstance(outcome, ConditioningError):
                failures.append((theta, str(outcome)))
                outcome = math.inf
            elif not math.isfinite(outcome := float(outcome)):
                failures.append((theta, f"objective value {outcome!r} is not finite"))
                outcome = math.inf
            known[theta] = outcome

    read(grid[::_STRIDE] + grid[-1:])
    if not any(v < math.inf for v in known.values()):
        read(grid)
    if not any(v < math.inf for v in known.values()):
        raise EstimationError(f"no candidate in [{lo:g}, {hi:g}] could be evaluated "
                              f"({len(failures)} failures)")
    while True:
        values = [known.get(theta) for theta in grid]  # None where not read
        first = next(i for i, v in enumerate(values) if v is not None and v < math.inf)
        end = next((i for i in range(first + 1, n_coarse) if values[i] == math.inf), n_coarse)
        top = max(i for i in range(first, end) if values[i] is not None)
        below = first
        while below > 0 and values[below - 1] is None:
            below -= 1
        gaps = [(a, b) for a, b in ((below, first), (top + 1, end)) if a < b]
        if gaps:
            read([grid[(a + b - 1) // 2] for a, b in gaps])
            continue
        if top > first and values[top - 1] is None:
            read([grid[top - 1]])
            continue
        best = first  # ties broken toward the larger argument
        for i in range(first, top + 1):
            if values[i] is not None and values[i] <= values[best]:
                best = i
        left = best - 1
        while left >= first and values[left] == values[best]:  # a shelf
            left -= 1
        walk = [i for i in (left, best + 1) if first <= i <= top and values[i] is None]
        if not walk:
            break
        read([grid[i] for i in walk])

    theta, value, non_unimodal = grid[best], values[best], False
    if first < best < top:
        nodes = _bracket_nodes(grid, best)
        read(nodes)
        at = np.array([known[nu] for nu in nodes])
        t, low = _interpolant_minimum(at) if np.all(np.isfinite(at)) else (-1.0, math.inf)
        if abs(t) == 1.0 or not _unimodal(at):
            # The best node, ties broken toward the larger argument.
            k = _NODES - 1 - int(np.argmin(at[::-1]))
            theta, value, non_unimodal = nodes[k], float(at[k]), True
        else:
            theta, value = float(_on_bracket(grid, best, t)), low

    return NuEstimate(
        nu_hat=theta,
        objective_at_min=value,
        hit_upper_bracket=best == top,
        evaluations=len(known),
        failures=tuple(failures),
        searchable_upper=grid[top],
        irregular_failures=sum(v is not None and v < math.inf for v in values[top + 1:]),
        non_unimodal=non_unimodal,
    )


def _profiled(data_term, complexity_term, n):
    """Objective total with the magnitude replaced by its closed-form
    estimate, or the :class:`EstimationError` that makes it degenerate.

    Substituting ``sigma^2 = data_term / n`` turns the data term into
    ``n`` and adds ``n log sigma^2`` to the complexity term.
    """
    s2 = data_term / n
    if s2 <= 0.0:
        return EstimationError("sigma profiling is degenerate for zero data")
    return float(n) + (n * math.log(s2) + complexity_term)


def _cells(design, y, kernel, profile, sizes, workspace=None, objectives=("ml", "cv")):
    """Objective totals of the Matern ``kernel`` on the first ``n`` points of
    ``design``, for each ``n`` in ``sizes``: those of ``objectives`` among
    :func:`ell_ml_from`, and :func:`ell_cv_from` from two points, on the
    posteriors of one factorization
    (:func:`~maternsmooth.gp._prefix_posteriors`).  Only CV inverts the
    factor, so an ML-only caller inverts nothing.

    ``y`` holds ``s`` data columns, shape ``(n, s)``, already checked, and
    ``sizes`` are prefix sizes of ``design``.  Per size, a dict
    mapping each objective asked for and defined on ``n`` points to its
    ``s`` totals, profiled when ``profile`` is set, or to the
    :class:`ConditioningError` that prevents that objective alone.  When the
    factorization fails, each size past its failing pivot maps the
    objectives asked for to one error of its own, ``nu=<nu>, n=<n>: `` and
    the factor's message, with the factor's ``pivot_index`` and
    ``pivot_value``.

    Each total is bit for bit that of its column alone, and a column whose
    profiling is degenerate gets its :class:`EstimationError` in place of
    its total, so the cells of a column equal those of its sweep alone.
    ``workspace`` is handed to
    :func:`~maternsmooth.gp._prefix_posteriors`; nothing returned reads
    from it.
    """
    posts = _prefix_posteriors(kernel, design, y, sizes, workspace)
    # Looked up at each call, so that a wrapper put on these bindings (as
    # the benchmark tracer does) sees the calls.
    read = {"ml": ell_ml_from, "cv": ell_cv_from}
    cells = []
    for n, post in zip(sizes, posts):
        if isinstance(post, ConditioningError):
            cells.append(dict.fromkeys(objectives, ConditioningError(
                f"nu={kernel.nu:g}, n={n}: {post}", pivot_index=post.pivot_index,
                pivot_value=post.pivot_value)))
            continue
        cell = {name: _outcome(read[name], post) for name in _objective_names(n, objectives)}
        for name, value in cell.items():
            if not isinstance(value, ConditioningError):
                cell[name] = ([_profiled(data, value.complexity_term, n)
                               for data in value.data_term]
                              if profile else value.total)
        cells.append(cell)
    return cells


def _objective_names(n, objectives=("ml", "cv")):
    """The objectives of ``objectives`` defined on ``n`` points:
    cross-validation needs two."""
    return tuple(name for name in objectives if name == "ml" or n >= 2)


def estimate_nu(design, y, config=EstimatorConfig()):
    """Smoothness estimates on one data vector: the prefix sweep's searches
    (:func:`_searches`) on one column and one size, so no cell or node is
    factored twice and each search runs once.

    A dict mapping each objective defined on ``n`` points to its
    :class:`NuEstimate`: ``"ml"``, and ``"cv"`` from ``n = 2``.  Needs
    finite data of shape ``(n,)``, ``n >= 1``.  Raises the
    :class:`EstimationError` that ended a search, ML's first.
    """
    if design.n < 1:
        raise DomainError(f"objective 'ml' needs more data than n={design.n}")
    y = _as_data(design, y, columns=False)[:, None]
    ((found,),) = _searches(design, y, [design.n], config)
    for name in _objective_names(design.n):
        if isinstance(found[name], EstimationError):
            raise found[name]
    return found


@dataclass(frozen=True)
class SweepRecord:
    """One row of a prefix sweep: the ML and CV estimates of one data column
    on one prefix, their objective minima, whether each saturates, the tops
    of their searchable brackets, and notes on what the searches could not
    evaluate."""

    experiment: str
    seed: object
    n: int
    fill: float
    nu_hat_ml: float
    nu_hat_cv: float
    ell_ml_min: float
    ell_cv_min: float
    hit_upper_ml: bool
    hit_upper_cv: bool
    searchable_upper_ml: float
    searchable_upper_cv: float
    notes: str

    def as_row(self):
        return [getattr(self, f) for f in self.FIELDS]


SweepRecord.FIELDS = tuple(f.name for f in fields(SweepRecord))


def sweep_prefixes(design, y_full, n_schedule, config=EstimatorConfig(), experiment="",
                   seed=None, objectives=("ml", "cv")):
    """Estimate the smoothness on growing prefixes of a design.

    Runs the maximum-likelihood and the cross-validation estimate, or
    those of them that ``objectives`` names (``"ml"``, ``"cv"``), on each
    prefix, from one factorization per candidate smoothness; nothing else
    is factored, and only cross-validation inverts a factor.  An objective
    not run gets NaN columns and no notes.  Per-prefix failures are
    recorded in the ``notes`` field and do not abort the sweep.  Data must
    be finite.

    ``y_full`` is one data vector ``(n,)`` labelled ``seed``, or ``s``
    columns ``(n, s)`` (say, the paths of ``s`` seeds) labelled by the
    sequence ``seed``.  The records come column after column, each in
    schedule order and equal to the column's sweep alone (to rounding at
    sizes other than those named below).  The fill distances of every
    prefix (:func:`~maternsmooth.designs.fill_distances`) are computed
    once for all columns.
    The searches of all columns, the objectives run and every prefix run
    once (:func:`_searches`), the sizes from the largest to the smallest.
    Each cell that a search reads is factored once, for every column and
    objective, on the largest prefix that asks for it, and every prefix up
    to that one reads its objectives from its view of that factor
    (:func:`_cells`), its leave-one-out quantities from one inverse of it.
    The schedule holds sizes of at least 1 in strictly ascending order.

    A record's ``searchable_upper_*`` is the top of its search's searchable
    bracket, NaN where the search ended in an error, is not defined or was
    not run.  At sizes of at most 16 or ``16 * 2**k`` points those are bit
    for bit the prefix's own, so a record equals the sweep of its prefix
    alone; at other sizes they agree to rounding.  A cell whose factorization fails
    at some pivot fails on every prefix beyond it up to the one factored,
    and each of those prefixes' searches lists it in ``failures`` with one
    message, ``nu=<nu>, n=<n>: `` and the factor's own (:func:`_cells`);
    the records count those failures in their notes.
    """
    schedule = design.check_schedule(n_schedule)
    if isinstance(objectives, str) or not objectives or set(objectives) - {"ml", "cv"}:
        raise DomainError(f"objectives must name 'ml', 'cv' or both, got {objectives!r}")
    objectives = tuple(name for name in ("ml", "cv") if name in objectives)
    y_full = _as_data(design, y_full, "y_full")
    if y_full.ndim == 2 and (np.ndim(seed) != 1 or len(seed) != y_full.shape[1]):
        raise DomainError(f"{y_full.shape[1]} data columns need a sequence of as many "
                          f"seeds, got {seed!r}")
    seeds = list(seed) if y_full.ndim == 2 else [seed]
    columns = y_full.reshape(design.n, len(seeds))

    if not schedule:
        return []
    top = design.prefix(schedule[-1])
    searches = _searches(top, columns[:top.n], schedule, config, objectives)

    fills = fill_distances(top, schedule)
    return [_prefix_record(n, by_column[j], fill, experiment, label, objectives)
            for j, label in enumerate(seeds)
            for n, by_column, fill in zip(schedule, searches, fills)]


def _searches(top, columns, schedule, config, objectives=("ml", "cv")):
    """Per size of the schedule and data column, a dict mapping each
    objective of ``objectives`` defined on that prefix of ``top`` to the
    :class:`NuEstimate` its search of the smoothness ends with, or to the
    :class:`EstimationError` that ends it.  The searches and the kernels
    follow the :class:`EstimatorConfig` ``config``, with ``sigma`` 1 when it
    profiles the magnitude.

    The sizes run from the largest to the smallest, and each search of a
    size, objective and column is one :func:`bracketed_minimize` call that
    reads one table of cells.  A cell the table lacks is factored on the
    size's prefix (:func:`_cells`) with the outcomes of every size up to
    this one; since no smaller size has run, each cell is factored once, on
    the largest prefix that asks for it, and a failure at pivot ``p``
    reaches every size beyond ``p`` up to that prefix.  A stored
    :class:`ConditioningError` is returned to the search, which records it;
    a column's stored profiling error is raised and ends its search.  Every
    cell writes its factor into one buffer of ``top``'s size, and, when CV
    is run, its leave-one-out inverse over that factor
    (:func:`~maternsmooth.gp._prefix_posteriors`).

    Raises :class:`DomainError`, before any cell is factored, unless the
    kernels at ``nu_max`` and at ``nu_min`` can be built, their distance
    scale ``sqrt(2 nu) / lambda_`` positive and finite, and so the kernel
    of every smoothness searched.
    """
    sigma = 1.0 if config.profile_sigma else config.sigma
    for nu in (config.nu_max, config.nu_min):
        MaternParams(nu, sigma, config.lambda_, top.d)
    cells = {}
    # One buffer, reused, not fresh per cell: the outputs are the same
    # either way, but a fresh array pays its page faults on first touch.  On
    # a 2-core Intel Xeon, filling 16 MB took 3.9-13.2 ms the first time and
    # 2.1-6.3 ms again, and fresh arrays per cell made the benchmark's sweep
    # slower.  The inverse overwrites the factor, so the sweep holds
    # ``top.n**2`` doubles where a factor and an inverse apart would hold
    # twice as many.
    workspace = np.empty(top.n * top.n)

    def lookup(i, name, j, nu):
        if nu not in cells:
            prefix = top.prefix(schedule[i])
            kernel = MaternParams(nu, sigma, config.lambda_, top.d)
            cells[nu] = _cells(prefix, columns[:prefix.n], kernel, config.profile_sigma,
                               schedule[:i + 1], workspace, objectives)
        value = cells[nu][i][name]
        if isinstance(value, ConditioningError):
            return value
        if isinstance(value[j], EstimationError):
            raise value[j]
        return value[j]

    found = [[{} for _ in range(columns.shape[1])] for _ in schedule]
    for i in reversed(range(len(schedule))):
        for name in _objective_names(schedule[i], objectives):
            for j in range(columns.shape[1]):
                try:
                    found[i][j][name] = bracketed_minimize(
                        functools.partial(lookup, i, name, j), config.nu_min, config.nu_max,
                        config.coarse_grid)
                except EstimationError as err:
                    found[i][j][name] = err.with_traceback(None)
    return found


# The columns and notes of an objective whose search ended in an error, is
# not defined or was not run: NaN estimates, minima and tops, no saturation
# and no failures.
_NO_ESTIMATE = NuEstimate(math.nan, math.nan, False, 0, (), math.nan, 0)


def _prefix_record(n, searches, fill, experiment, seed, objectives):
    """The record of one data column on the prefix of ``n`` points, from
    its ``searches`` of ``objectives`` (see :func:`_searches`): per
    objective, its notes and its columns, ML's before CV's."""
    notes, columns = [], {}
    for name in ("ml", "cv"):
        found = searches.get(name)
        if found is None and name in objectives:
            notes.append(f"{name}_undefined_n<2")
        elif isinstance(found, EstimationError):
            notes.append(f"{name}_error={found}")
        found = found if isinstance(found, NuEstimate) else _NO_ESTIMATE
        if found.failures:
            notes.append(f"{name}_failures={len(found.failures)}")
        if found.irregular_failures:
            notes.append(f"{name}_irregular={found.irregular_failures}")
        if found.non_unimodal:
            notes.append(f"{name}_non_unimodal")
        columns.update({f"nu_hat_{name}": found.nu_hat,
                        f"ell_{name}_min": found.objective_at_min,
                        f"hit_upper_{name}": found.hit_upper_bracket,
                        f"searchable_upper_{name}": found.searchable_upper})
    return SweepRecord(experiment, seed, n, fill, notes=";".join(notes), **columns)
