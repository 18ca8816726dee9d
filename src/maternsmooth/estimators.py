"""Derivative-free smoothness estimation on a bounded bracket.

The search space ``(0, inf)`` cannot be scanned, so estimation runs on a
log-spaced coarse grid over a bracket ``[nu_min, nu_max]`` followed by
golden-section refinement around the best bracketing triple.  Cells whose
kernel matrix fails to factorize are recorded and skipped, which shrinks
the effective bracket from above; an estimate that saturates the top of
the effective bracket is flagged via ``hit_upper_bracket`` so that
divergence of the estimator for very smooth data is observable rather
than an error.  A prefix sweep factors each coarse cell once and reads
every prefix from that factor; per prefix, every search shares one table
of refinement cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Search configuration for smoothness estimation.

    ``objective`` selects maximum likelihood (``"ml"``) or leave-one-out
    cross-validation (``"cv"``).  ``sigma`` and ``lambda_`` are held fixed
    unless ``profile_sigma`` is set, in which case the closed-form
    magnitude estimate is substituted per candidate smoothness.
    """

    nu_min: float = 0.05
    nu_max: float = 15.0
    coarse_grid: int = 60
    refine_tol: float = 1e-3
    objective: str = "ml"
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
        if self.objective not in ("ml", "cv"):
            raise DomainError(f"objective must be 'ml' or 'cv', got {self.objective!r}")
        require_positive(self, ("sigma", "lambda_"))
        if not (0 <= self.pivot_rtol < 1):
            raise DomainError(f"pivot_rtol must lie in [0, 1), got {self.pivot_rtol!r}")


@dataclass(frozen=True)
class NuEstimate:
    """Result of one smoothness estimation, or of any bracketed minimisation.

    ``hit_upper_bracket`` is set when the estimate saturates the top of
    the bracket that was actually searchable: either ``nu_max`` itself or,
    when larger candidates failed to factorize, the largest smoothness
    that conditioned successfully.
    """

    nu_hat: float
    objective_at_min: float
    hit_upper_bracket: bool
    evaluations: int
    failures: tuple
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


def bracketed_minimize(fn, lo, hi, n_coarse, refine_tol):
    """Log-spaced coarse scan plus golden-section refinement of ``fn``.

    ``fn`` maps a positive scalar to an objective value and may raise
    :class:`ConditioningError`; failing cells are recorded and treated as
    unevaluable.  Coarse ties are broken toward the larger argument.  If
    refinement cannot improve on the coarse minimum the coarse minimum is
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
        return v if math.isfinite(v) else math.inf

    values = [safe(g) for g in grid]
    ok = [i for i, v in enumerate(values) if math.isfinite(v)]
    if not ok:
        raise EstimationError(
            f"no candidate in [{lo:g}, {hi:g}] could be evaluated "
            f"({len(failures)} failures)"
        )
    best = ok[0]
    for i in ok:
        if values[i] <= values[best]:
            best = i
    pos = ok.index(best)
    saturated = pos == len(ok) - 1
    theta, value, non_unimodal = float(grid[best]), values[best], False

    if 0 < pos < len(ok) - 1:
        # Golden-section in log coordinates on the bracketing triple.
        a = math.log(grid[ok[pos - 1]])
        b = math.log(grid[ok[pos + 1]])
        x1 = b - _GOLDEN * (b - a)
        x2 = a + _GOLDEN * (b - a)
        f1 = safe(math.exp(x1))
        f2 = safe(math.exp(x2))
        while math.exp(b) - math.exp(a) > refine_tol:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLDEN * (b - a)
                f1 = safe(math.exp(x1))
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLDEN * (b - a)
                f2 = safe(math.exp(x2))
        if f1 <= f2:
            theta_r, value_r = math.exp(x1), f1
        else:
            theta_r, value_r = math.exp(x2), f2
        if value_r > value:
            non_unimodal = True
        else:
            theta, value = float(theta_r), float(value_r)

    return NuEstimate(
        nu_hat=theta,
        objective_at_min=value,
        hit_upper_bracket=saturated or theta >= hi - refine_tol,
        evaluations=evaluations,
        failures=tuple(failures),
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
    mapping each of the ``names`` objectives (default: those defined on
    ``n`` points) to its ``s`` totals, profiled when the config asks, or to
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
        for name in names or _objective_names(n):
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


def _memoised(table, compute):
    """The lookup ``total(nu, name, j)`` of objective ``name`` for data
    column ``j`` at ``nu`` in the dict ``table`` of cells.  A cell that is
    missing, or lacks ``name``, is computed by ``compute(nu, name)`` and
    merged into ``table``; an error found there is raised."""
    def total(nu, name, j):
        nu = float(nu)
        cell = table.get(nu, {})
        if name not in cell:
            cell = table[nu] = {**cell, **compute(nu, name)}
        value = cell[name]
        if isinstance(value, ConditioningError):
            raise value
        value = value[j]
        if isinstance(value, EstimationError):
            raise value
        return float(value)
    return total


def estimate_nu(design, y, config=EstimatorConfig()):
    """Smoothness estimate minimising the configured objective.

    Requires ``n >= 1`` for maximum likelihood and ``n >= 2`` for
    cross-validation, and finite data of shape ``(n,)``.  Raises
    :class:`EstimationError` when no grid cell can be conditioned.  Only
    the configured objective is computed; the search revisits no cell.
    """
    if design.n < 1 or (config.objective == "cv" and design.n < 2):
        raise DomainError(
            f"objective {config.objective!r} needs more data than n={design.n}"
        )
    y = _checked_data(y, (design.n,), "y")[:, None]
    name = config.objective
    total = _memoised({}, lambda nu, objective: _cells(design, y, config, nu, [design.n],
                                                       (objective,))[0])
    return bracketed_minimize(lambda nu: total(nu, name, 0), config.nu_min, config.nu_max,
                              config.coarse_grid, config.refine_tol)


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
    schedule order and equal to the column's sweep alone.  Per prefix, the
    coarse cells, the fill distance and the leave-one-out variances at
    ``nu0`` are computed once for all columns, and the golden-section
    searches of every column and both objectives share one table of
    refinement cells (:func:`_prefix_searches`): each is factored once, and
    its leave-one-out inverse computed only if a CV search asks for it.
    The schedule holds sizes of at least 1 in strictly ascending order.

    Each coarse cell is factored once, on the largest prefix, and every
    prefix reads its posterior from that factor
    (:func:`~maternsmooth.gp.condition_prefixes`) and its leave-one-out
    quantities from one inverse of it.  At sizes of at most 16
    or ``16 * 2**k`` points that posterior is bit for bit the prefix's own,
    so a record equals the sweep of its prefix alone; at other sizes they
    agree to rounding.  A cell whose factorization fails at some pivot
    fails on every prefix beyond it, and the prefixes after the first one
    record the prefix size, pivot index and pivot value of that first
    failure.
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
    tables = [{} for _ in schedule]
    for nu in np.geomspace(config.nu_min, config.nu_max, config.coarse_grid):
        for table, hit in zip(tables, _cells(top, columns, config, float(nu), schedule)):
            table[float(nu)] = hit
    variances0 = [None] * len(schedule)
    if nu0 is not None:
        kernel0 = MaternKernel(matern(nu0, config.sigma, config.lambda_, d=design.d))
        variances0 = [_loo_variances(post) for post in condition_prefixes(
            kernel0, top, np.zeros(top.n), schedule, config.pivot_rtol)]

    records = [[] for _ in seeds]
    for n, table, v0 in zip(schedule, tables, variances0):
        prefix = top.prefix(n)
        fill = fill_distance(prefix)
        searches = _prefix_searches(prefix, columns[:n], table, config)
        for column, found, label in zip(records, searches, seeds):
            column.append(_prefix_record(prefix, found, config, v0, fill, experiment, label))
    return [record for column in records for record in column]


def _prefix_searches(prefix, y, table, config):
    """Both searches of every data column of ``y`` on one prefix.

    Per column, a dict mapping each objective defined on the prefix to its
    :class:`NuEstimate`, or to the :class:`EstimationError` that ended its
    search.  ``table`` holds the coarse cells; every search looks its
    cells up there, and a refinement cell joins it with the totals of every
    column.  A cell that a CV search asks for is inverted for leave-one-out
    once and carries the ML totals too, so the CV searches run first and
    no cell is factored twice.
    """
    def compute(nu, name):
        names = ("ml", "cv") if name == "cv" else ("ml",)
        return _cells(prefix, y, config, nu, [prefix.n], names)[0]

    total = _memoised(table, compute)
    searches = [{} for _ in range(y.shape[1])]
    for name in reversed(_objective_names(prefix.n)):  # CV first: its cells carry ML too
        for j, found in enumerate(searches):
            try:
                found[name] = bracketed_minimize(
                    lambda nu: total(nu, name, j), config.nu_min, config.nu_max,
                    config.coarse_grid, config.refine_tol)
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
