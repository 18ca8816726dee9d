"""Derivative-free smoothness estimation on a bounded bracket.

The search space ``(0, inf)`` cannot be scanned, so estimation runs on a
log-spaced coarse grid over a bracket ``[nu_min, nu_max]`` followed by
golden-section refinement around the best bracketing triple.  Cells whose
kernel matrix fails to factorize are recorded and skipped, which shrinks
the effective bracket from above; an estimate that saturates the top of
the effective bracket is flagged via ``hit_upper_bracket`` so that
divergence of the estimator for very smooth data is observable rather
than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import fill_distance
from .errors import ConditioningError, DomainError, EstimationError
from .gp import DEFAULT_PIVOT_RTOL, condition, loo_variances
from .kernels import MaternKernel, matern
from .objectives import ObjectiveValue, ell_cv_from, ell_ml_from

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
        if not (0 < self.nu_min < self.nu_max):
            raise DomainError("need 0 < nu_min < nu_max")
        if self.coarse_grid < 8:
            raise DomainError("coarse_grid must be at least 8")
        if not (self.refine_tol > 0):
            raise DomainError("refine_tol must be positive")
        if self.objective not in ("ml", "cv"):
            raise DomainError(f"objective must be 'ml' or 'cv', got {self.objective!r}")


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


def _profiled(value, n):
    """Objective with the magnitude replaced by its closed-form estimate.

    Substituting ``sigma^2 = data_term / n`` turns the data term into
    ``n`` and adds ``n log sigma^2`` to the complexity term.
    """
    s2 = value.data_term / n
    if np.any(s2 <= 0.0):
        raise EstimationError("sigma profiling is degenerate for zero data")
    log_s2 = np.log(s2) if isinstance(s2, np.ndarray) else math.log(s2)
    return ObjectiveValue(data_term=float(n), complexity_term=n * log_s2 + value.complexity_term)


def _objectives(design, y, config, nu, names):
    """Totals of the objectives ``names`` (``"ml"``, ``"cv"``) at smoothness ``nu``.

    Conditions once; ``(s,)`` arrays for data of shape ``(n, s)``, profiled
    when the config asks.  Raises the annotated ``nu=..., n=...:`` error.
    """
    sigma = 1.0 if config.profile_sigma else config.sigma
    params = matern(nu, sigma, config.lambda_, d=design.d)
    try:
        post = condition(MaternKernel(params), design, y, config.pivot_rtol)
    except ConditioningError as err:
        raise ConditioningError(f"nu={nu:g}, n={design.n}: {err}",
                                pivot_index=err.pivot_index,
                                pivot_value=err.pivot_value) from None
    totals = {}
    for name in names:
        value = ell_ml_from(post) if name == "ml" else ell_cv_from(post)
        if config.profile_sigma:
            value = _profiled(value, design.n)
        totals[name] = value.total
    return totals


def _memoised(memo, objectives):
    """``objectives(nu)`` looked up in, or added to, the dict ``memo``.

    A failure is cached as a new :class:`ConditioningError`: the raised one
    holds the failed kernel matrix through its traceback and context.
    """
    def cell(nu):
        nu = float(nu)
        if nu not in memo:
            try:
                memo[nu] = objectives(nu)
            except ConditioningError as err:
                memo[nu] = ConditioningError(str(err), pivot_index=err.pivot_index,
                                             pivot_value=err.pivot_value)
        if isinstance(memo[nu], ConditioningError):
            raise memo[nu]
        return memo[nu]
    return cell


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
    y = _checked_data(y, (design.n,), "y")
    name = config.objective
    return bracketed_minimize(lambda nu: _objectives(design, y, config, float(nu), (name,))[name],
                              config.nu_min, config.nu_max, config.coarse_grid, config.refine_tol)


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
    ``nu0`` are computed once for all columns; only the golden-section
    refinement runs per column.

    A coarse cell that fails to condition on one prefix is not conditioned
    again on the larger ones.  The kernel matrix of a prefix is the leading
    block of every larger prefix's matrix, and the pivot floor is relative
    to the constant diagonal, so in exact arithmetic the pivots that failed
    stay below the floor; a larger prefix that passed would pass by
    rounding luck.  The later prefixes record the cell as failed, with the
    prefix size, pivot index and pivot value of the first failure.
    """
    schedule = [int(n) for n in n_schedule]
    if schedule != sorted(schedule):
        raise DomainError("schedule must be ascending")
    if schedule and schedule[-1] > design.n:
        raise DomainError("schedule exceeds design size")
    y_full = np.asarray(y_full, dtype=float)
    if y_full.ndim == 2 and (np.ndim(seed) != 1 or len(seed) != y_full.shape[1]):
        raise DomainError(f"{y_full.shape[1]} data columns need a sequence of as many "
                          f"seeds, got {seed!r}")
    seeds = list(seed) if y_full.ndim == 2 else [seed]
    shape = (design.n, len(seeds)) if y_full.ndim == 2 else (design.n,)
    columns = _checked_data(y_full, shape, "y_full").reshape(design.n, len(seeds))

    records = [[] for _ in seeds]
    singular = {}  # coarse cell -> (prefix size, pivot index, pivot value) of its first failure
    for n in schedule:
        prefix = design.prefix(n)
        names = ("ml", "cv") if n >= 2 else ("ml",)
        table = {
            nu: ConditioningError(
                f"nu={nu:g}, n={n}: failed on prefix n={n_first}: pivot {index} = {value:.3e}",
                pivot_index=index,
                pivot_value=value,
            )
            for nu, (n_first, index, value) in singular.items()
        }
        shared = _memoised(table, lambda nu: _objectives(prefix, columns[:n], config, nu, names))
        # Exactly the cells the coarse scan of bracketed_minimize looks up.
        for nu in np.geomspace(config.nu_min, config.nu_max, config.coarse_grid):
            try:
                shared(nu)
            except ConditioningError as err:
                singular.setdefault(float(nu), (n, err.pivot_index, err.pivot_value))
            except EstimationError:
                pass  # degenerate profiling is retried per column
        v0 = None
        if nu0 is not None:
            try:
                v0 = _variances_at(nu0, prefix, config)
            except ConditioningError as err:
                v0 = err
        fill = fill_distance(prefix)
        for j, (column, label) in enumerate(zip(records, seeds)):
            memo = {nu: hit if isinstance(hit, ConditioningError)
                    else {name: float(total[j]) for name, total in hit.items()}
                    for nu, hit in table.items()}
            column.append(_prefix_record(prefix, columns[:n, j], memo, names, config,
                                         v0, fill, experiment, label))
    return [record for column in records for record in column]


def _variances_at(nu, design, config):
    """Leave-one-out variances of the configured Matern kernel at smoothness ``nu``."""
    kernel = MaternKernel(matern(nu, config.sigma, config.lambda_, d=design.d))
    post = condition(kernel, design, np.zeros(design.n), config.pivot_rtol)
    return loo_variances(post)


def _prefix_record(prefix, y, memo, names, config, v0, fill, experiment, seed):
    """Both estimates for one data column on one prefix, as a sweep record.

    ``memo`` holds the coarse cells; a refinement cell joins it with both
    totals, since the ML and CV searches often refine at the same cells.
    """
    notes = []
    nan = math.nan
    cell = _memoised(memo, lambda nu: _objectives(prefix, y, config, nu, names))

    estimates = {"ml": None, "cv": None}
    for name in ("ml", "cv"):
        if name not in names:
            notes.append(f"{name}_undefined_n<2")
            continue
        try:
            est = estimates[name] = bracketed_minimize(
                lambda nu: cell(nu)[name], config.nu_min, config.nu_max,
                config.coarse_grid, config.refine_tol)
        except EstimationError as err:
            notes.append(f"{name}_error={err}")
            continue
        if est.failures:
            notes.append(f"{name}_failures={len(est.failures)}")
        if est.non_unimodal:
            notes.append(f"{name}_non_unimodal")
    est_ml, est_cv = estimates["ml"], estimates["cv"]

    ratio = nan
    if isinstance(v0, ConditioningError) and est_ml is not None:
        notes.append(f"ratio_error={v0}")
    elif v0 is not None and est_ml is not None:
        try:
            ratio = float(np.max(v0 / _variances_at(est_ml.nu_hat, prefix, config)))
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
