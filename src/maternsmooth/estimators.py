"""Derivative-free estimation of a kernel parameter theta on a bounded bracket.

The engine scans theta through a kernel factory (:class:`_Scan`); its main
use is the Matern smoothness nu, and the Gaussian length-scale probe is the
other.  Estimation runs on a log-spaced coarse grid over a bracket
``[lo, hi]``.  Cells whose kernel matrix fails to factorize are recorded
and skipped; the searchable bracket is the contiguous run of cells that
factor, from the lowest one, and an estimate that saturates its top is
flagged via ``hit_upper_bracket``.  A minimum inside the run is refined on
its bracketing triple by Chebyshev-Lobatto nodes in log theta: the
objectives are analytic in log theta there, so the minimum of the
polynomial through nine nodes stands in for a one-dimensional search.

A prefix sweep factors each distinct coarse cell once and reads every
prefix and both objectives from that factor.  The searches that share a
bracketing triple share its nodes, each factored once, on the largest
prefix that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial import chebyshev as cheb

# ``fill_distance`` stays bound here for the benchmark tracer, which wraps it.
from .designs import check_schedule, fill_distance, fill_distances, is_integer  # noqa: F401
from .errors import ConditioningError, DomainError, EstimationError
from .gp import condition, condition_prefixes, loo_variances
from .kernels import MaternKernel, matern, require_positive
# ``ell_ml_from`` and ``ell_cv_from`` stay bound here for the benchmark
# tracer, which wraps them.
from .objectives import ell_cv_from, ell_ml_from, prefix_objectives  # noqa: F401

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


@dataclass(frozen=True)
class EstimatorConfig:
    """Search configuration for smoothness estimation.

    ``sigma`` and ``lambda_`` are held fixed unless ``profile_sigma`` is
    set, in which case the closed-form magnitude estimate is substituted
    per candidate smoothness.
    """

    nu_min: float = 0.05
    nu_max: float = 15.0
    coarse_grid: int = 60
    sigma: float = 1.0
    profile_sigma: bool = False
    lambda_: float = 1.0

    def __post_init__(self):
        if not (0 < self.nu_min < self.nu_max < math.inf):
            raise DomainError(f"need 0 < nu_min < nu_max < inf, got nu_min={self.nu_min!r}, "
                              f"nu_max={self.nu_max!r}")
        if not is_integer(self.coarse_grid):
            raise DomainError(f"coarse_grid must be an integer, got {self.coarse_grid!r}")
        if self.coarse_grid < 8:
            raise DomainError("coarse_grid must be at least 8")
        require_positive(self, ("sigma", "lambda_"))


@dataclass(frozen=True)
class _Scan:
    """A kernel parameter theta, called ``name``, to search on ``count`` log-spaced
    cells of ``[lo, hi]``, with kernels ``kernel_at(theta)``; ``profile``
    asks for totals with the closed-form magnitude."""

    name: str
    kernel_at: object
    lo: float
    hi: float
    count: int
    profile: bool = False


def _matern_scan(config, d):
    """The search of the Matern smoothness that ``config`` sets, in dimension ``d``."""
    sigma = 1.0 if config.profile_sigma else config.sigma
    return _Scan("nu", lambda nu: MaternKernel(matern(nu, sigma, config.lambda_, d=d)),
                config.nu_min, config.nu_max, config.coarse_grid, config.profile_sigma)


@dataclass(frozen=True)
class NuEstimate:
    """Result of one smoothness estimation, or of any bracketed minimisation.

    ``searchable_upper`` is the top of the searchable bracket: the
    contiguous run of coarse cells that could be evaluated, from the lowest
    one (``nu_min`` unless it fails).  ``irregular_failures`` counts the
    cells above that run that could still be evaluated; the search ignores
    them.  ``hit_upper_bracket`` is set when the estimate saturates the run:
    its coarse minimum is the run's top cell, and ``nu_hat`` is
    ``searchable_upper``.  A minimum inside the last bracket, however close
    to the top, is a real minimum and is not flagged; that holds for the
    best node returned under ``non_unimodal`` too, which lies below the top
    because the top cell's value exceeds the coarse minimum's.
    ``evaluations`` counts the objective values the search read: every
    distinct coarse cell, plus the interior nodes of its bracket when it was
    refined.  ``objective_at_min`` is the interpolating polynomial's value
    at ``nu_hat`` after refinement, else the value of the cell or node
    returned.
    """

    nu_hat: float
    objective_at_min: float
    hit_upper_bracket: bool
    evaluations: int
    failures: tuple
    searchable_upper: float
    irregular_failures: int
    non_unimodal: bool = False


def _checked_data(y, shape, name):
    """Data as a float array of the given shape, rejecting non-finite values."""
    y = np.asarray(y, dtype=float)
    if y.shape != shape:
        raise DomainError(f"{name} has shape {y.shape}, expected {shape}")
    if not np.all(np.isfinite(y)):
        raise DomainError(f"{name} must be finite")
    return y


def _coarse_plan(values):
    """Indices ``(first, best, top)`` of the coarse cells, or None when no
    value is finite.

    ``first`` is the lowest cell with a finite value and ``top`` the end of
    the contiguous run of such cells from it: the searchable bracket.
    ``best`` is the run's minimum, ties broken toward the larger argument.
    """
    finite = [i for i, v in enumerate(values) if math.isfinite(v)]
    if not finite:
        return None
    first = top = finite[0]
    while top + 1 < len(values) and math.isfinite(values[top + 1]):
        top += 1
    best = first
    for i in range(first, top + 1):
        if values[i] <= values[best]:
            best = i
    return first, best, top


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


def bracketed_minimize(fn, lo, hi, n_coarse):
    """Log-spaced coarse scan plus node refinement of ``fn``.

    ``fn`` maps a positive scalar to an objective value and may raise
    :class:`ConditioningError`; failing cells, and cells whose value is
    not finite, are recorded in ``failures`` and treated as unevaluable.
    The searchable bracket is the contiguous run of evaluable coarse cells
    from the lowest one (see :class:`NuEstimate`); coarse ties are broken
    toward the larger argument.  A minimum inside the run is refined on its
    bracketing triple: ``fn`` is evaluated at the triple's interior
    Chebyshev-Lobatto nodes in log coordinates, and the estimate is the
    minimum of the degree-8 polynomial through the nine nodes.  When a node
    cannot be evaluated, or the node values are not unimodal, or the
    polynomial's minimum sits on an end of the bracket, the best node is
    returned with ``non_unimodal`` set.  The node count, not a tolerance,
    fixes the precision of the estimate.
    """
    grid = np.geomspace(lo, hi, n_coarse)
    failures = []
    evaluations = 0

    def safe(theta):
        nonlocal evaluations
        evaluations += 1
        try:
            v = float(fn(theta))
        except ConditioningError as err:
            failures.append((float(theta), str(err)))
            return math.inf
        if not math.isfinite(v):
            failures.append((float(theta), f"objective value {v!r} is not finite"))
            return math.inf
        return v

    # A bracket of one value (lo == hi) has one distinct cell, read once.
    cells = {theta: safe(theta) for theta in dict.fromkeys(grid)}
    values = [cells[theta] for theta in grid]
    plan = _coarse_plan(values)
    if plan is None:
        raise EstimationError(
            f"no candidate in [{lo:g}, {hi:g}] could be evaluated "
            f"({len(failures)} failures)"
        )
    first, best, top = plan
    theta, value, non_unimodal = float(grid[best]), values[best], False

    if first < best < top:
        coarse = {0: values[best - 1], _MID: values[best], _NODES - 1: values[best + 1]}
        nodes = _bracket_nodes(grid, best)
        at = np.array([coarse[k] if k in coarse else safe(nu) for k, nu in enumerate(nodes)])
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
        evaluations=evaluations,
        failures=tuple(failures),
        searchable_upper=float(grid[top]),
        irregular_failures=sum(math.isfinite(v) for v in values[top + 1:]),
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


def _cells(design, y, scan, theta, sizes, names=None, workspace=None):
    """Objective totals of the :class:`_Scan` at ``theta`` on the first ``n``
    points of ``design``, for each ``n`` in ``sizes``, from one
    factorization (:func:`~maternsmooth.objectives.prefix_objectives`).

    ``y`` holds ``s`` data columns, shape ``(n, s)``.  Per size, a dict
    mapping each objective defined on ``n`` points (of ``names``, if given)
    to its ``s`` totals, profiled when the scan asks, or to
    the :class:`ConditioningError` that prevents that objective alone.  When
    the factorization fails, both objectives map to one ``nu=..., n=...:``
    error, which names the first failing size after it.

    Each total is bit for bit that of its column alone, and a column whose
    profiling is degenerate gets its :class:`EstimationError` in place of
    its total, so the cells of a column equal those of its sweep alone.
    ``workspace`` is handed to
    :func:`~maternsmooth.objectives.prefix_objectives`; nothing returned
    reads from it.
    """
    cells, first = [], None
    for n, values in zip(sizes, prefix_objectives(scan.kernel_at(theta), design, y, sizes,
                                                  names or ("ml", "cv"), workspace)):
        if isinstance(values, ConditioningError):
            if first is None:
                first, text = n, str(values)
            else:
                text = (f"failed on prefix n={first}: pivot {values.pivot_index} = "
                        f"{values.pivot_value:.3e}")
            cells.append(dict.fromkeys(("ml", "cv"), ConditioningError(
                f"{scan.name}={theta:g}, n={n}: {text}", pivot_index=values.pivot_index,
                pivot_value=values.pivot_value)))
            continue
        cell = {}
        for name, value in values.items():
            if not isinstance(value, ConditioningError):
                value = ([_profiled(data, value.complexity_term, n) for data in value.data_term]
                         if scan.profile else value.total)
            cell[name] = value
        cells.append(cell)
    return cells


def _objective_names(n):
    """The objectives defined on ``n`` points: cross-validation needs two."""
    return ("ml", "cv") if n >= 2 else ("ml",)


def estimate_nu(design, y, config=EstimatorConfig()):
    """Smoothness estimates on one data vector: the prefix sweep's search
    (:func:`_search_tables`, :func:`_prefix_searches`) on one column and
    one size, so no cell or node is factored twice.

    A dict mapping each objective defined on ``n`` points to its
    :class:`NuEstimate`: ``"ml"``, and ``"cv"`` from ``n = 2``.  Needs
    finite data of shape ``(n,)``, ``n >= 1``.  Raises the
    :class:`EstimationError` that ended a search, ML's first.
    """
    if design.n < 1:
        raise DomainError(f"objective 'ml' needs more data than n={design.n}")
    y = _checked_data(y, (design.n,), "y")[:, None]
    scan = _matern_scan(config, design.d)
    (table,) = _search_tables(design, y, [design.n], scan)
    (found,) = _prefix_searches(design.n, 1, table, scan)
    for name in _objective_names(design.n):
        if isinstance(found[name], EstimationError):
            raise found[name]
    return found


@dataclass(frozen=True)
class SweepRecord:
    """One row of a prefix sweep: estimates and diagnostics at one size."""

    experiment: str
    seed: object
    n: int
    fill: float
    nu_hat_ml: float
    nu_hat_cv: float
    ell_ml_min: float
    ell_cv_min: float
    max_loo_var_ratio: float
    hit_upper_ml: bool
    hit_upper_cv: bool
    notes: str

    def as_row(self):
        return [getattr(self, f) for f in self.FIELDS]


SweepRecord.FIELDS = tuple(f.name for f in fields(SweepRecord))


def sweep_prefixes(design, y_full, n_schedule, config=EstimatorConfig(), nu0=None,
                   experiment="", seed=None):
    """Estimate the smoothness on growing prefixes of a design.

    Runs both the maximum-likelihood and the cross-validation estimate on
    each prefix, from one factorization per candidate smoothness.  When
    the generating smoothness ``nu0`` is supplied, each record carries the
    worst-case leave-one-out variance ratio between ``nu0`` and the ML
    estimate as an undersmoothing diagnostic.  Per-prefix failures are
    recorded in the ``notes`` field and do not abort the sweep.  Data
    must be finite.

    ``y_full`` is one data vector ``(n,)`` labelled ``seed``, or ``s``
    columns ``(n, s)`` (say, the paths of ``s`` seeds) labelled by the
    sequence ``seed``.  The records come column after column, each in
    schedule order and equal to the column's sweep alone (to rounding at
    sizes other than those named below).  The coarse cells, the fill
    distances (one pass over the design for every prefix,
    :func:`~maternsmooth.designs.fill_distances`) and the leave-one-out
    variances at ``nu0`` are computed once for all columns.  Every search
    then reads its refinement nodes from :func:`_search_tables`: the
    searches of all columns, both objectives and every prefix whose coarse
    minimum lands on one bracketing triple share its nodes, each factored
    once, and inverted for leave-one-out only if a CV search needs it.
    The schedule holds sizes of at least 1 in strictly ascending order.

    Each coarse cell is factored once, on the largest prefix, and so is
    each node, on the largest prefix that needs it; every prefix reads its
    objectives from that factor
    (:func:`~maternsmooth.objectives.prefix_objectives`), its leave-one-out
    quantities from one inverse of it.  At sizes of at most 16
    or ``16 * 2**k`` points those are bit for bit the prefix's own, so a
    record equals the sweep of its prefix alone; at other sizes they agree
    to rounding.  A cell whose factorization fails at some pivot
    fails on every prefix beyond it, and the prefixes after the first one
    record the prefix size, pivot index and pivot value of that first
    failure.

    The variance ratio factors the kernel at the ML estimate once more,
    per record: the cell table keeps objective totals, not factors, and a
    profiled cell is factored with ``sigma = 1`` while the ratio uses
    ``config.sigma``.
    """
    schedule = check_schedule(n_schedule)
    if schedule and schedule[-1] > design.n:
        raise DomainError("schedule exceeds design size")
    y_full = np.asarray(y_full, dtype=float)
    if y_full.ndim == 2 and (np.ndim(seed) != 1 or len(seed) != y_full.shape[1]):
        raise DomainError(f"{y_full.shape[1]} data columns need a sequence of as many "
                          f"seeds, got {seed!r}")
    seeds = list(seed) if y_full.ndim == 2 else [seed]
    shape = (design.n, len(seeds)) if y_full.ndim == 2 else (design.n,)
    columns = _checked_data(y_full, shape, "y_full").reshape(design.n, len(seeds))

    if not schedule:
        return []
    top = design.prefix(schedule[-1])
    scan = _matern_scan(config, design.d)
    tables = _search_tables(top, columns[:top.n], schedule, scan)
    variances0 = [None] * len(schedule)
    if nu0 is not None:
        kernel0 = MaternKernel(matern(nu0, config.sigma, config.lambda_, d=design.d))
        variances0 = [_loo_variances(post) for post in condition_prefixes(
            kernel0, top, np.zeros(top.n), schedule)]

    records = [[] for _ in seeds]
    fills = fill_distances(top, schedule)
    for n, table, v0, fill in zip(schedule, tables, variances0, fills):
        prefix = top.prefix(n)
        searches = _prefix_searches(n, len(seeds), table, scan)
        for column, found, label in zip(records, searches, seeds):
            column.append(_prefix_record(prefix, found, config, v0, fill, experiment, label))
    return [record for column in records for record in column]


def _search_tables(top, columns, schedule, scan):
    """Per size of the schedule, the table of cells, keyed by theta, that the
    searches of the :class:`_Scan` on that prefix of ``top`` read.

    Each distinct coarse cell is factored once, on ``top``.  Every search of
    every data column, objective and size then takes its bracketing triple
    from the coarse cells, as :func:`bracketed_minimize` will.  Each triple's
    interior nodes are factored once, on the largest prefix whose searches
    need them, and serve every size that needs them; their leave-one-out
    inverse is computed only if a CV search needs them.  Every cell writes
    its factor and inverse into one pair of buffers of ``top``'s size.
    """
    grid = [float(theta) for theta in np.geomspace(scan.lo, scan.hi, scan.count)]
    tables = [{} for _ in schedule]
    workspace = (np.empty(top.n * top.n), np.empty(top.n * top.n))
    for theta in dict.fromkeys(grid):
        for table, cell in zip(tables, _cells(top, columns, scan, theta, schedule,
                                              workspace=workspace)):
            table[theta] = cell
    needs = {}  # bracket midpoint index -> {size: objectives refined there}
    for n, table in zip(schedule, tables):
        for name in _objective_names(n):
            for j in range(columns.shape[1]):
                try:
                    plan = _coarse_plan([_evaluable(table[theta], name, j) for theta in grid])
                except EstimationError:
                    continue  # the search ends with this error
                if plan and plan[0] < plan[1] < plan[2]:
                    needs.setdefault(plan[1], {}).setdefault(n, set()).add(name)
    for best, by_size in sorted(needs.items()):
        sizes = sorted(by_size)
        names = ("ml", "cv") if any("cv" in wanted for wanted in by_size.values()) else ("ml",)
        prefix = top.prefix(sizes[-1])
        for k, theta in enumerate(_bracket_nodes(grid, best)):
            if k in (0, _MID, _NODES - 1):
                continue  # a coarse cell
            for n, cell in zip(sizes, _cells(prefix, columns[:prefix.n], scan, theta, sizes,
                                             names, workspace)):
                tables[schedule.index(n)][theta] = cell
    return tables


def _total(cell, name, j):
    """Objective ``name`` of data column ``j`` in a cell, or raises the
    error that prevents it.  A cell's error is raised with a fresh
    traceback, which would otherwise grow by the reader's frames with each
    read."""
    value = cell[name]
    if isinstance(value, ConditioningError):
        raise value.with_traceback(None)
    value = value[j]
    if isinstance(value, EstimationError):
        raise value.with_traceback(None)
    return float(value)


def _evaluable(cell, name, j):
    """:func:`_total`, or ``math.inf`` where the cell cannot be conditioned;
    :func:`_coarse_plan` treats every value that is not finite alike."""
    try:
        return _total(cell, name, j)
    except ConditioningError:
        return math.inf


def _prefix_searches(n, s, table, scan):
    """Both searches of the :class:`_Scan` for each of ``s`` data columns on
    a prefix of ``n`` points, reading every cell from the prefix's table
    (see :func:`_search_tables`).

    Per column, a dict mapping each objective defined on the prefix to its
    :class:`NuEstimate`, or to the :class:`EstimationError` that ended its
    search.
    """
    searches = [{} for _ in range(s)]
    for name in _objective_names(n):
        for j, found in enumerate(searches):
            try:
                found[name] = bracketed_minimize(
                    lambda theta: _total(table[float(theta)], name, j), scan.lo, scan.hi,
                    scan.count)
            except EstimationError as err:
                found[name] = err
    return searches


def _loo_variances(post):
    """Leave-one-out variances of a posterior, or the error that prevents them."""
    if isinstance(post, ConditioningError):
        return post
    try:
        return loo_variances(post)
    except ConditioningError as err:
        return err


def _search_notes(searches):
    """The notes and the estimates of one column's :func:`_prefix_searches`."""
    notes, estimates = [], {}
    for name in ("ml", "cv"):
        found = searches.get(name)
        if found is None:
            notes.append(f"{name}_undefined_n<2")
        elif isinstance(found, EstimationError):
            notes.append(f"{name}_error={found}")
        else:
            estimates[name] = found
            if found.failures:
                notes.append(f"{name}_failures={len(found.failures)}")
            if found.irregular_failures:
                notes.append(f"{name}_irregular={found.irregular_failures}")
            if found.non_unimodal:
                notes.append(f"{name}_non_unimodal")
    return notes, estimates


def _prefix_record(prefix, searches, config, v0, fill, experiment, seed):
    """The record of one data column on one prefix, from its ``searches``
    (see :func:`_prefix_searches`)."""
    nan = math.nan
    notes, estimates = _search_notes(searches)
    est_ml, est_cv = estimates.get("ml"), estimates.get("cv")

    ratio = nan
    if isinstance(v0, ConditioningError) and est_ml is not None:
        notes.append(f"ratio_error={v0}")
    elif v0 is not None and est_ml is not None:
        kernel = MaternKernel(matern(est_ml.nu_hat, config.sigma, config.lambda_, d=prefix.d))
        try:
            post = condition(kernel, prefix, np.zeros(prefix.n))
            ratio = float(np.max(v0 / loo_variances(post)))
        except ConditioningError as err:
            notes.append(f"ratio_error={err}")

    return SweepRecord(
        experiment=experiment,
        seed=seed,
        n=prefix.n,
        fill=fill,
        nu_hat_ml=est_ml.nu_hat if est_ml else nan,
        nu_hat_cv=est_cv.nu_hat if est_cv else nan,
        ell_ml_min=est_ml.objective_at_min if est_ml else nan,
        ell_cv_min=est_cv.objective_at_min if est_cv else nan,
        max_loo_var_ratio=ratio,
        hit_upper_ml=bool(est_ml.hit_upper_bracket) if est_ml else False,
        hit_upper_cv=bool(est_cv.hit_upper_bracket) if est_cv else False,
        notes=";".join(notes),
    )
