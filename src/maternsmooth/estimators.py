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
from .gp import DEFAULT_PIVOT_RTOL, condition, loo_variances, quadratic_form
from .kernels import MaternKernel, matern
from .objectives import ObjectiveValue, ell_cv_from, ell_ml_from

__all__ = [
    "EstimatorConfig",
    "NuEstimate",
    "SweepRecord",
    "estimate_nu",
    "profile_sigma",
    "sweep_prefixes",
    "bracketed_minimize",
    "ScanResult",
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
    """Result of one smoothness estimation.

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


@dataclass(frozen=True)
class ScanResult:
    theta: float
    value: float
    evaluations: int
    failures: tuple
    saturated_upper: bool
    saturated_lower: bool
    non_unimodal: bool


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
    saturated_upper = pos == len(ok) - 1
    saturated_lower = pos == 0
    if saturated_upper or saturated_lower:
        return ScanResult(
            theta=float(grid[best]),
            value=values[best],
            evaluations=evaluations,
            failures=tuple(failures),
            saturated_upper=saturated_upper,
            saturated_lower=saturated_lower,
            non_unimodal=False,
        )

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
    if value_r > values[best]:
        return ScanResult(
            theta=float(grid[best]),
            value=values[best],
            evaluations=evaluations,
            failures=tuple(failures),
            saturated_upper=False,
            saturated_lower=False,
            non_unimodal=True,
        )
    return ScanResult(
        theta=float(theta_r),
        value=float(value_r),
        evaluations=evaluations,
        failures=tuple(failures),
        saturated_upper=False,
        saturated_lower=False,
        non_unimodal=False,
    )


def profile_sigma(nu, lambda_, design, y, scaling=None, pivot_rtol=DEFAULT_PIVOT_RTOL):
    """Closed-form magnitude estimate ``sigma^2 = y' Ktilde^{-1} y / n``.

    ``Ktilde`` is the unit-magnitude kernel matrix.  Zero data yields the
    degenerate estimate 0.
    """
    if design.n < 1:
        raise DomainError("sigma profiling needs at least one point")
    y = np.asarray(y, dtype=float)
    params = matern(nu, 1.0, lambda_, d=design.d, scaling=scaling)
    post = condition(MaternKernel(params), design, y, pivot_rtol)
    return quadratic_form(post) / design.n


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


class _CellEvaluator:
    """Per-sweep memo of objective values keyed by candidate smoothness.

    Each distinct smoothness is conditioned once; both objective totals
    are derived from that single factorization and the posterior is
    dropped immediately to keep sweeps over many cells lean.

    ``y`` may also hold ``s`` data columns, shape ``(n, s)``, for example
    the sample paths of several seeds on one design: a cell is then
    conditioned once for all of them and its totals are ``(s,)`` arrays.
    :meth:`columns` splits such a memo into one single-column evaluator
    per data column, so the cells shared by every seed are not
    conditioned again when each seed refines its own estimate.
    """

    def __init__(self, design, y, config):
        self.design = design
        self.y = np.asarray(y, dtype=float)
        self.config = config
        self.cache = {}

    def _evaluate(self, nu):
        cfg = self.config
        sigma = 1.0 if cfg.profile_sigma else cfg.sigma
        params = matern(nu, sigma, cfg.lambda_, d=self.design.d)
        post = condition(MaternKernel(params), self.design, self.y, cfg.pivot_rtol)
        ml = ell_ml_from(post)
        cv = ell_cv_from(post) if self.design.n >= 2 else None
        if cfg.profile_sigma:
            ml = _profiled(ml, self.design.n)
            cv = _profiled(cv, self.design.n) if cv is not None else None
        return ml.total, (cv.total if cv is not None else None)

    def cell(self, nu):
        key = float(nu)
        hit = self.cache.get(key)
        if hit is None:
            try:
                hit = self._evaluate(key)
            except ConditioningError as err:
                hit = ConditioningError(
                    f"nu={key:g}, n={self.design.n}: {err}",
                    pivot_index=err.pivot_index,
                    pivot_value=err.pivot_value,
                )
            self.cache[key] = hit
        if isinstance(hit, ConditioningError):
            raise hit
        return hit

    def ml(self, nu):
        return self.cell(nu)[0]

    def cv(self, nu):
        value = self.cell(nu)[1]
        if value is None:
            raise DomainError("cross-validation needs n >= 2")
        return value

    def columns(self):
        """One evaluator per data column, each memo holding this one's cells."""
        split = []
        for j in range(self.y.shape[1]):
            evaluator = _CellEvaluator(self.design, self.y[:, j], self.config)
            for key, hit in self.cache.items():
                if not isinstance(hit, ConditioningError):
                    ml, cv = hit
                    hit = (float(ml[j]), None if cv is None else float(cv[j]))
                evaluator.cache[key] = hit
            split.append(evaluator)
        return split


def _estimate_from_scan(scan, config):
    hit_upper = scan.saturated_upper or scan.theta >= config.nu_max - config.refine_tol
    return NuEstimate(
        nu_hat=scan.theta,
        objective_at_min=scan.value,
        hit_upper_bracket=hit_upper,
        evaluations=scan.evaluations,
        failures=scan.failures,
        non_unimodal=scan.non_unimodal,
    )


def estimate_nu(design, y, config=EstimatorConfig()):
    """Smoothness estimate minimising the configured objective.

    Requires ``n >= 1`` for maximum likelihood and ``n >= 2`` for
    cross-validation, and finite data of shape ``(n,)``.  Raises
    :class:`EstimationError` when no grid cell can be conditioned.
    """
    if design.n < 1 or (config.objective == "cv" and design.n < 2):
        raise DomainError(
            f"objective {config.objective!r} needs more data than n={design.n}"
        )
    y = _checked_data(y, (design.n,), "y")
    evaluator = _CellEvaluator(design, y, config)
    fn = evaluator.ml if config.objective == "ml" else evaluator.cv
    scan = bracketed_minimize(fn, config.nu_min, config.nu_max,
                              config.coarse_grid, config.refine_tol)
    return _estimate_from_scan(scan, config)


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
                   experiment="", seed=None, probe_resolution=None):
    """Estimate the smoothness on growing prefixes of a design.

    Runs both the maximum-likelihood and the cross-validation estimate on
    each prefix, sharing one factorization per candidate smoothness.  When
    the generating smoothness ``nu0`` is supplied, each record carries the
    worst-case leave-one-out variance ratio between ``nu0`` and the ML
    estimate as an undersmoothing diagnostic.  Per-prefix failures are
    recorded in the ``notes`` field and do not abort the sweep.  Data
    must be finite.

    Several data vectors on the same design (the sample paths of several
    seeds) are swept together by the multi-column form behind this
    function, which conditions each coarse cell once for all of them.
    """
    y_full = _checked_data(y_full, (design.n,), "y_full")
    return _sweep_columns(design, y_full[:, None], n_schedule, config, nu0=nu0,
                          experiment=experiment, seeds=(seed,),
                          probe_resolution=probe_resolution)[0]


def _sweep_columns(design, y_full, n_schedule, config=EstimatorConfig(), nu0=None,
                   experiment="", seeds=(None,), probe_resolution=None):
    """Prefix sweeps of ``s`` data columns ``y_full[:, j]`` labelled ``seeds[j]``.

    Returns one list of :class:`SweepRecord` per column, each equal to
    what :func:`sweep_prefixes` gives for that column alone.  Per prefix,
    every cell of the coarse scan is conditioned once for all columns, and
    the fill distance and the leave-one-out variances at ``nu0`` are
    computed once; only the golden-section refinement runs per column.

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
    y_full = _checked_data(y_full, (design.n, len(seeds)), "y_full")

    records = [[] for _ in seeds]
    singular = {}  # coarse cell -> (prefix size, error) of its first failure
    for n in schedule:
        prefix = design.prefix(n)
        shared = _CellEvaluator(prefix, y_full[:n], config)
        for key, (n_first, err) in singular.items():
            shared.cache[key] = ConditioningError(
                f"nu={key:g}, n={n}: failed on prefix n={n_first}: "
                f"pivot {err.pivot_index} = {err.pivot_value:.3e}",
                pivot_index=err.pivot_index,
                pivot_value=err.pivot_value,
            )
        # Exactly the cells the coarse scan of bracketed_minimize looks up.
        for nu in np.geomspace(config.nu_min, config.nu_max, config.coarse_grid):
            try:
                shared.cell(nu)
            except ConditioningError as err:
                singular.setdefault(float(nu), (n, err))
            except EstimationError:
                pass  # degenerate profiling is retried per column
        v0 = None
        if nu0 is not None:
            try:
                v0 = _variances_at(nu0, prefix, config)
            except ConditioningError as err:
                v0 = err
        fill = fill_distance(prefix, probe_resolution)
        for column, seed, evaluator in zip(records, seeds, shared.columns()):
            column.append(_prefix_record(evaluator, config, v0, fill, experiment, seed))
    return records


def _variances_at(nu, design, config):
    """Leave-one-out variances of the configured Matern kernel at smoothness ``nu``."""
    kernel = MaternKernel(matern(nu, config.sigma, config.lambda_, d=design.d))
    post = condition(kernel, design, np.zeros(design.n), config.pivot_rtol)
    return loo_variances(post)


def _prefix_record(evaluator, config, v0, fill, experiment, seed):
    """Both estimates for one data column on one prefix, as a sweep record."""
    prefix = evaluator.design
    n = prefix.n
    notes = []
    nan = math.nan

    estimates = {}
    for name, fn in (("ml", evaluator.ml), ("cv", evaluator.cv)):
        estimates[name] = None
        if name == "cv" and n < 2:
            notes.append("cv_undefined_n<2")
            continue
        try:
            scan = bracketed_minimize(fn, config.nu_min, config.nu_max,
                                      config.coarse_grid, config.refine_tol)
        except (EstimationError, DomainError) as err:
            notes.append(f"{name}_error={err}")
            continue
        est = estimates[name] = _estimate_from_scan(scan, config)
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
        n=n,
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
