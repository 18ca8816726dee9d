"""Derivative-free smoothness estimation on a bounded bracket.

The search space ``(0, inf)`` cannot be scanned, so estimation runs on a
log-spaced coarse grid over a bracket ``[nu_min, nu_max]``.  Cells whose
kernel matrix fails to factorize are recorded and skipped; the searchable
bracket is the contiguous run of cells that factor, from the lowest one,
and an estimate that saturates its top is flagged via
``hit_upper_bracket`` so that divergence of the estimator for very smooth
data is observable rather than an error.  A minimum inside the run is
refined on its bracketing triple by Chebyshev-Lobatto nodes in log nu:
the objectives are analytic in log nu there, so the minimum of the
polynomial through nine nodes stands in for a one-dimensional search.

A prefix sweep factors each coarse cell once and reads every prefix from
that factor.  The searches of every data column, objective and prefix
that share a bracketing triple share its nodes, and each node is
factored once, on the largest prefix that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .designs import fill_distance, is_integer
from .errors import ConditioningError, DomainError, EstimationError
from .gp import DEFAULT_PIVOT_RTOL, condition, condition_prefixes, loo_variances
from .kernels import MaternKernel, matern, require_positive
from .objectives import ell_cv_from, ell_ml_from

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
    refine_tol: float = 1e-3
    sigma: float = 1.0
    profile_sigma: bool = False
    lambda_: float = 1.0
    pivot_rtol: float = DEFAULT_PIVOT_RTOL

    def __post_init__(self):
        if not (0 < self.nu_min < self.nu_max < math.inf):
            raise DomainError(f"need 0 < nu_min < nu_max < inf, got nu_min={self.nu_min!r}, "
                              f"nu_max={self.nu_max!r}")
        if not is_integer(self.coarse_grid):
            raise DomainError(f"coarse_grid must be an integer, got {self.coarse_grid!r}")
        if self.coarse_grid < 8:
            raise DomainError("coarse_grid must be at least 8")
        if not (self.refine_tol > 0):
            raise DomainError("refine_tol must be positive")
        require_positive(self, ("sigma", "lambda_"))
        if not (0 <= self.pivot_rtol < 1):
            raise DomainError(f"pivot_rtol must lie in [0, 1), got {self.pivot_rtol!r}")


@dataclass(frozen=True)
class NuEstimate:
    """Result of one smoothness estimation, or of any bracketed minimisation.

    ``searchable_upper`` is the top of the searchable bracket: the
    contiguous run of coarse cells that could be evaluated, from the lowest
    one (``nu_min`` unless it fails).  ``irregular_failures`` counts the
    cells above that run that could still be evaluated; the search ignores
    them.  ``hit_upper_bracket`` is set when the estimate saturates
    ``searchable_upper``.  ``evaluations`` counts the objective values the
    search read: every coarse cell, plus the interior nodes of its bracket
    when it was refined.  ``objective_at_min`` is the interpolating
    polynomial's value at ``nu_hat`` after refinement, else the value of
    the cell or node returned.
    """

    nu_hat: float
    objective_at_min: float
    hit_upper_bracket: bool
    evaluations: int
    failures: tuple
    searchable_upper: float
    irregular_failures: int
    non_unimodal: bool = False


def check_schedule(schedule):
    """A schedule of prefix sizes as a list of ints: :class:`DomainError`
    unless each is an integer of at least 1, larger than the one before."""
    sizes = list(schedule)
    if (not all(is_integer(n) and n >= 1 for n in sizes)
            or any(b <= a for a, b in zip(sizes, sizes[1:]))):
        raise DomainError(f"schedule {tuple(sizes)} must hold integer sizes of at least 1 "
                          f"in strictly ascending order")
    return [int(n) for n in sizes]


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


def bracketed_minimize(fn, lo, hi, n_coarse, refine_tol):
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
    returned with ``non_unimodal`` set.
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

    values = [safe(g) for g in grid]
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

    searchable_upper = float(grid[top])
    return NuEstimate(
        nu_hat=theta,
        objective_at_min=value,
        hit_upper_bracket=best == top or theta >= searchable_upper - refine_tol,
        evaluations=evaluations,
        failures=tuple(failures),
        searchable_upper=searchable_upper,
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


def _cells(design, y, config, nu, sizes, names=None):
    """Objective totals at smoothness ``nu`` on the first ``n`` points of
    ``design``, for each ``n`` in ``sizes``, from one factorization.

    ``y`` holds ``s`` data columns, shape ``(n, s)``.  Per size, a dict
    mapping each objective defined on ``n`` points (of ``names``, if given)
    to its ``s`` totals, profiled when the config asks, or to
    the :class:`ConditioningError` that prevents that objective alone.  When
    the factorization fails, both objectives map to one ``nu=..., n=...:``
    error, which names the first failing size after it.

    Each total is bit for bit that of its column alone, and a column whose
    profiling is degenerate gets its :class:`EstimationError` in place of
    its total, so the cells of a column equal those of its sweep alone.
    """
    sigma = 1.0 if config.profile_sigma else config.sigma
    kernel = MaternKernel(matern(nu, sigma, config.lambda_, d=design.d))
    cells, first = [], None
    for n, post in zip(sizes, condition_prefixes(kernel, design, y, sizes, config.pivot_rtol)):
        if isinstance(post, ConditioningError):
            if first is None:
                first, text = n, str(post)
            else:
                text = (f"failed on prefix n={first}: pivot {post.pivot_index} = "
                        f"{post.pivot_value:.3e}")
            cells.append(dict.fromkeys(("ml", "cv"), ConditioningError(
                f"nu={nu:g}, n={n}: {text}", pivot_index=post.pivot_index,
                pivot_value=post.pivot_value)))
            continue
        cell = {}
        for name in _objective_names(n):
            if names is not None and name not in names:
                continue
            try:
                value = ell_ml_from(post) if name == "ml" else ell_cv_from(post)
            except ConditioningError as err:
                # Kept without its traceback, which holds the factor.
                cell[name] = err.with_traceback(None)
                continue
            cell[name] = ([_profiled(data, value.complexity_term, n) for data in value.data_term]
                          if config.profile_sigma else value.total)
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
    (table,) = _search_tables(design, y, [design.n], config)
    (found,) = _prefix_searches(design.n, 1, table, config)
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

    FIELDS = (
        "experiment", "seed", "n", "fill", "nu_hat_ml", "nu_hat_cv",
        "ell_ml_min", "ell_cv_min", "max_loo_var_ratio",
        "hit_upper_ml", "hit_upper_cv", "notes",
    )

    def as_row(self):
        return [getattr(self, f) for f in self.FIELDS]


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
    distance and the leave-one-out variances at ``nu0`` are computed once
    for all columns.  Every search then reads its
    refinement nodes from :func:`_search_tables`: the searches of all
    columns, both objectives and every prefix whose coarse minimum lands
    on one bracketing triple share its nodes, each factored once, and
    inverted for leave-one-out only if a CV search needs it.  The
    schedule holds sizes of at least 1 in strictly ascending order.

    Each coarse cell is factored once, on the largest prefix, and so is
    each node, on the largest prefix that needs it; every prefix reads its
    posterior from that factor
    (:func:`~maternsmooth.gp.condition_prefixes`) and its leave-one-out
    quantities from one inverse of it.  At sizes of at most 16
    or ``16 * 2**k`` points that posterior is bit for bit the prefix's own,
    so a record equals the sweep of its prefix alone; at other sizes they
    agree to rounding.  A cell whose factorization fails at some pivot
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
    columns = columns[:top.n]
    tables = _search_tables(top, columns, schedule, config)
    variances0 = [None] * len(schedule)
    if nu0 is not None:
        kernel0 = MaternKernel(matern(nu0, config.sigma, config.lambda_, d=design.d))
        variances0 = [_loo_variances(post) for post in condition_prefixes(
            kernel0, top, np.zeros(top.n), schedule, config.pivot_rtol)]

    records = [[] for _ in seeds]
    for n, table, v0 in zip(schedule, tables, variances0):
        prefix = top.prefix(n)
        fill = fill_distance(prefix)
        searches = _prefix_searches(n, len(seeds), table, config)
        for column, found, label in zip(records, searches, seeds):
            column.append(_prefix_record(prefix, found, config, v0, fill, experiment, label))
    return [record for column in records for record in column]


def _search_tables(top, columns, schedule, config):
    """Per size of the schedule, the table of cells, keyed by smoothness,
    that the searches of that prefix of ``top`` read.

    Each coarse cell is factored once, on ``top``.  Every search of every
    data column, objective and size then takes its bracketing triple from
    the coarse cells, as :func:`bracketed_minimize` will.  Each triple's
    interior nodes are factored once, on the largest prefix whose searches
    need them, and serve every size that needs them; their leave-one-out
    inverse is computed only if a CV search needs them.
    """
    grid = [float(nu) for nu in np.geomspace(config.nu_min, config.nu_max, config.coarse_grid)]
    tables = [{} for _ in schedule]
    for nu in grid:
        for table, cell in zip(tables, _cells(top, columns, config, nu, schedule)):
            table[nu] = cell
    needs = {}  # bracket midpoint index -> {size: objectives refined there}
    for n, table in zip(schedule, tables):
        for name in _objective_names(n):
            for j in range(columns.shape[1]):
                try:
                    plan = _coarse_plan([_evaluable(table[nu], name, j) for nu in grid])
                except EstimationError:
                    continue  # the search ends with this error
                if plan and plan[0] < plan[1] < plan[2]:
                    needs.setdefault(plan[1], {}).setdefault(n, set()).add(name)
    for best, by_size in sorted(needs.items()):
        sizes = sorted(by_size)
        names = ("ml", "cv") if any("cv" in wanted for wanted in by_size.values()) else ("ml",)
        prefix = top.prefix(sizes[-1])
        for k, nu in enumerate(_bracket_nodes(grid, best)):
            if k in (0, _MID, _NODES - 1):
                continue  # a coarse cell
            for n, cell in zip(sizes, _cells(prefix, columns[:prefix.n], config, nu, sizes,
                                             names)):
                tables[schedule.index(n)][nu] = cell
    return tables


def _total(cell, name, j):
    """Objective ``name`` of data column ``j`` in a cell, or raises the
    error that prevents it."""
    value = cell[name]
    if isinstance(value, ConditioningError):
        raise value
    value = value[j]
    if isinstance(value, EstimationError):
        raise value
    return float(value)


def _evaluable(cell, name, j):
    """:func:`_total`, or ``math.inf`` where :func:`bracketed_minimize`
    cannot evaluate the cell."""
    try:
        value = _total(cell, name, j)
    except ConditioningError:
        return math.inf
    return value if math.isfinite(value) else math.inf


def _prefix_searches(n, s, table, config):
    """Both searches of each of ``s`` data columns on a prefix of ``n``
    points, reading every cell from the prefix's table (see
    :func:`_search_tables`).

    Per column, a dict mapping each objective defined on the prefix to its
    :class:`NuEstimate`, or to the :class:`EstimationError` that ended its
    search.
    """
    searches = [{} for _ in range(s)]
    for name in _objective_names(n):
        for j, found in enumerate(searches):
            try:
                found[name] = bracketed_minimize(
                    lambda nu: _total(table[float(nu)], name, j), config.nu_min,
                    config.nu_max, config.coarse_grid, config.refine_tol)
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


def _prefix_record(prefix, searches, config, v0, fill, experiment, seed):
    """The record of one data column on one prefix, from its ``searches``
    (see :func:`_prefix_searches`)."""
    notes = []
    nan = math.nan
    estimates = {}
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
    est_ml, est_cv = estimates.get("ml"), estimates.get("cv")

    ratio = nan
    if isinstance(v0, ConditioningError) and est_ml is not None:
        notes.append(f"ratio_error={v0}")
    elif v0 is not None and est_ml is not None:
        kernel = MaternKernel(matern(est_ml.nu_hat, config.sigma, config.lambda_, d=prefix.d))
        try:
            post = condition(kernel, prefix, np.zeros(prefix.n), config.pivot_rtol)
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
