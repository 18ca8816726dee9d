"""Desk-scale experiment engines behind the command-line interface.

Each ``run_*`` function is pure given its configuration (fixed seed lists
included) and returns an :class:`ExperimentResult` holding CSV-ready rows,
a human-readable summary, and an optional pass/fail verdict.  A failed
cell never aborts a sweep; it is recorded in the row notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .analysis import _draw, builtin_test_functions, fit_rate, sample_gp_path
from .designs import Box, Design, check_schedule, uniform_grid, van_der_corput
from .errors import ConditioningError, DomainError, check_integer, check_real
from .estimators import EstimatorConfig, SweepRecord, sweep_prefixes
from .gp import (
    _moments,
    condition,
    condition_prefixes,
    incremental_variances,
    log_det,
    loo,
    loo_variances,
    quadratic_form,
)
from .kernels import MaternParams, check_distance_scale, kernel_matrix
# ``ell_*_from`` stay bound here for the benchmark tracer, which wraps them.
from .objectives import ell_cv_from, ell_ml_from  # noqa: F401
from .specfun import check_order

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "make_design",
    "run_identity_suite",
    "run_variance_decay",
    "run_non_undersmoothing",
    "run_logdet_growth",
    "run_convergence",
    "IDENTITY_TOL",
]

IDENTITY_TOL = 1e-8

DEFAULT_SEEDS = (101, 102, 103, 104, 105, 106, 107, 108, 109, 110)


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by the experiment commands.

    Every field is checked when the configuration is built, and so are the
    rules of the command that ``experiment`` names (:func:`_check_command`),
    which its runner checks again: a command refuses any setting it does
    not read (:data:`_READS`) that is not at its default.  No smoothness may
    repeat in ``nu_grid`` or ``nu_model``, whose entries each name rows and
    summary lines.  The magnitude ``sigma`` and length-scale ``lambda_`` of
    every Matern kernel live in ``estimator``.  ``design`` None is van der
    Corput in one dimension and the uniform grid in two (:func:`make_design`),
    and ``seeds`` None is :data:`DEFAULT_SEEDS`, of which ``logdet-growth``
    draws the first.  A list setting (``schedule``, ``nu_grid``,
    ``nu_model``, ``seeds``) None is unset, and takes the command's default;
    an empty one is refused.
    """

    experiment: str = ""
    d: int = 1
    design: str = None
    nu0: float = None
    nu_grid: tuple[float, ...] = None
    nu_model: tuple[float, ...] = None
    schedule: tuple[int, ...] = None
    seeds: tuple[int, ...] = None
    f0: str = None
    probe_count: int = 256
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    output_path: str = None

    def __post_init__(self):
        for name, entry in (("schedule", "size"), ("nu_grid", "smoothness"),
                            ("nu_model", "smoothness"), ("seeds", "seed")):
            value = getattr(self, name)
            if value is not None and len(value) == 0:
                raise DomainError(f"need at least one {entry} in {name}, or leave it unset")
        if self.schedule is not None:
            check_schedule(self.schedule)
        check_integer("d", self.d, 1, 2)
        if self.nu0 is not None:
            check_order("nu0", check_real("nu0", self.nu0))
        for name in ("nu_grid", "nu_model"):
            nus = getattr(self, name) or ()
            for nu in nus:
                check_order(f"each entry of {name}", check_real(f"each entry of {name}", nu))
            if len(set(nus)) != len(nus):
                raise DomainError(f"{name} repeats an entry: {nus!r}")
        _generator(self.design, self.d)
        if self.f0 is not None and self.f0 not in builtin_test_functions():
            raise DomainError(f"unknown test function label {self.f0!r}")
        for seed in self.seeds or ():
            check_integer("seed", seed, 0)
        _check_command(self.experiment, self)


# The schedule of ``convergence`` when none is given; its probes sit off
# the lattice of the first 513 van der Corput points.
_CONVERGENCE_SCHEDULE = (32, 64, 128, 256, 512)


_ESTIMATOR = tuple(f.name for f in fields(EstimatorConfig))

# The settings each command reads: fields of ExperimentConfig, and of
# EstimatorConfig through ``estimator``.  Any other setting must keep its
# default (:func:`_check_command`).
_READS = {
    "verify-identities": (),
    "variance-decay": ("d", "design", "nu_grid", "schedule", "sigma", "lambda_"),
    "non-undersmoothing": ("d", "design", "nu0", "f0", "schedule", "seeds", *_ESTIMATOR),
    "logdet-growth": ("d", "design", "nu0", "nu_grid", "schedule", "seeds", *_ESTIMATOR),
    "convergence": ("nu0", "nu_model", "schedule", "seeds", "probe_count", "sigma", "lambda_"),
}

# Fields of ExperimentConfig that are not settings of a run.
_NOT_SETTINGS = ("experiment", "estimator", "output_path")


def _check_command(command, config):
    """Raise :class:`DomainError` unless ``config`` suits the experiment
    ``command``, a command name; any other name has no rules.

    A setting that the command does not read must be at its default, and
    the rules on values hold: the configured design generator takes ``d``
    (a one-point design of it is built, so van der Corput's own rule on the
    dimension speaks), the distance scale ``sqrt(2 nu) / lambda_`` of every
    smoothness the command uses (:func:`_orders`, and the estimator's
    ``nu_min`` and ``nu_max`` where it searches) is positive and finite,
    the catalog functions are one-dimensional, ``logdet-growth`` draws one path (a seed
    list given holds one seed), ``non-undersmoothing``
    takes exactly one of ``nu0`` and ``f0`` and reads no seeds with ``f0``,
    and ``convergence`` keeps its probes off the design points.
    """
    if command not in _READS:
        return
    for owner in (config, config.estimator):
        for f in fields(owner):
            value = getattr(owner, f.name)
            if f.name not in _READS[command] + _NOT_SETTINGS and value != f.default:
                raise DomainError(f"{command} does not read {f.name}, got {value!r}")
    make_design(config.design, config.d, 1)  # the generator's own rules on d
    nu0, nus = _orders(command, config)
    orders = {nu0, *nus} - {None}
    if "nu_max" in _READS[command]:
        orders |= {config.estimator.nu_min, config.estimator.nu_max}
    for nu in sorted(orders, reverse=True):  # a tiny lambda_ fails first at the largest
        check_distance_scale(nu, config.estimator.lambda_)
    if config.f0 is not None and config.d != 1:
        raise DomainError(f"the catalog function {config.f0!r} is one-dimensional")
    if command == "logdet-growth" and config.seeds is not None and len(config.seeds) != 1:
        raise DomainError(f"logdet-growth draws one path: give one seed, got {config.seeds!r}")
    if command == "non-undersmoothing":
        if config.f0 is not None and config.nu0 is not None:
            raise DomainError(f"the catalog function {config.f0!r} is not drawn at nu0, so "
                              f"nu0={config.nu0!r} sets no threshold for it: give one of them")
        if config.f0 is None and config.nu0 is None:
            raise DomainError("need either a test-function label or nu0 for path draws")
        if config.f0 is not None and config.seeds is not None:
            raise DomainError(f"the catalog function {config.f0!r} is not drawn, so it reads "
                              f"no seeds, got {config.seeds!r}")
    elif command == "convergence":
        check_integer("probe_count", config.probe_count, 1, 512)
        n = max(config.schedule or _CONVERGENCE_SCHEDULE)
        if n > 513:
            raise DomainError(f"convergence needs at most 513 design points, got {n}")


def _orders(command, config):
    """The smoothness ``nu0`` that the experiment ``command`` draws its paths
    at (None when it draws none) and those of the kernels it fits, the
    command's defaults in place of the settings left unset."""
    if command == "variance-decay":
        return None, config.nu_grid or (0.5, 1.0, 2.0)
    if command == "logdet-growth":
        nu0 = config.nu0 if config.nu0 is not None else 1.0
        return nu0, config.nu_grid or tuple(sorted({0.5, nu0, 2.0}))
    if command == "convergence":
        nu0 = config.nu0 if config.nu0 is not None else 1.5
        return nu0, config.nu_model or (2.0 * nu0, nu0, 0.5 * nu0)
    return config.nu0, ()


@dataclass(frozen=True)
class ExperimentResult:
    """Rows plus summary of one experiment run; ``ok`` is None when the
    experiment carries no pass/fail assertion."""

    header: tuple
    rows: list
    summary: str
    ok: bool = None


def _matern(config, nu, d):
    """Matern parameters of smoothness ``nu`` at the configured sigma and lambda."""
    return MaternParams(nu, config.estimator.sigma, config.estimator.lambda_, d)


def _grid_prefix(box, size):
    """The prefix of ``size`` points of the smallest ``2**k + 1`` per axis
    :func:`~maternsmooth.designs.uniform_grid` that holds them."""
    k = 1
    while (2**k + 1) ** box.d < size:
        k += 1
    return uniform_grid(box, 2**k + 1).prefix(size)


# The design generators a configuration may name: each gives the first
# ``size`` points of its sequence on a box.
_DESIGNS = {"van_der_corput": van_der_corput, "uniform_grid": _grid_prefix}


def _generator(name, d):
    """The generator of the design ``name`` in dimension ``d``, None being
    van der Corput in one dimension and the grid in more;
    :class:`DomainError` for a name that :data:`_DESIGNS` lacks."""
    if name is None:
        return van_der_corput if d == 1 else _grid_prefix
    if name not in _DESIGNS:
        raise DomainError(f"unknown design generator {name!r}")
    return _DESIGNS[name]


def make_design(name, d, size):
    """The first ``size`` points of a design of :data:`_DESIGNS` on the unit
    box (:func:`_generator`)."""
    return _generator(name, d)(Box.unit(d), size)


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------

def _jittered_grid(d, n, seed):
    """Random design with protected separation: a grid with bounded jitter.

    Plain i.i.d. uniform points have arbitrarily close pairs, which makes
    noiseless kernel matrices numerically singular regardless of the
    algorithm; bounded jitter keeps the randomness while keeping the
    identities testable in double precision.
    """
    rng = np.random.Generator(np.random.Philox(int(seed)))
    if d == 1:
        base = (np.arange(n) + 0.1 + 0.8 * rng.random(n)) / n
        return Design(np.sort(base), Box.unit(1))
    m = int(math.ceil(n ** (1.0 / d)))
    axes = [(np.arange(m) + 0.5) / m for _ in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    jitter = (rng.random(mesh.shape) - 0.5) * (0.8 / m)
    pts = mesh + jitter
    order = rng.permutation(mesh.shape[0])[:n]
    return Design(pts[order], Box.unit(d))


def _identity_design(kind, d, n, seed):
    if kind == "quasi-uniform":
        if d == 1:
            return van_der_corput(Box.unit(1), n)
        m = max(2, int(math.ceil(math.sqrt(n))))
        full = uniform_grid(Box.unit(2), m)
        return full.prefix(n)
    return _jittered_grid(d, n, seed)


def _naive_refits(kernel, design, y, subset):
    """Per point ``i``, the residual and variance at ``x_i`` of a refit on
    the points ``subset(i)``: the slow oracle of the fast identities."""
    residuals = []
    variances = []
    for i in range(design.n):
        keep = subset(i)
        post = condition(kernel, Design(design.points[keep], design.box), y[keep])
        mean, var, _ = _moments(post, design.points[i:i + 1])
        residuals.append(y[i] - mean[0])
        variances.append(var[0])
    return np.asarray(residuals), np.asarray(variances)


def _naive_sequential(kernel, design, y):
    """Per-prefix refits, on the points before each one."""
    return _naive_refits(kernel, design, y, lambda i: np.arange(i))


def _naive_loo(kernel, design, y):
    """Leave-one-out refits, on every point but each one."""
    return _naive_refits(kernel, design, y, lambda i: np.delete(np.arange(design.n), i))


def run_identity_suite(kernel_fault=None):
    """Exact algebraic identities on a (d, nu, n, design) grid.

    Per cell: the log-determinant against the naive sum of log prefix
    variances, the quadratic form against the naive sum of squared
    prefix residuals over prefix variances, the quadratic form against
    the recomputed squared norm of the interpolant, and the fast
    leave-one-out path against per-point refits.  The length-scale
    is tied to the point spacing so that every cell is far from the
    double-precision conditioning cliff; the identities themselves hold
    for any parameters.

    ``kernel_fault`` is a test hook: a callable applied to each kernel
    matrix entry evaluator to inject a controlled defect.
    """
    sigma = 1.2
    rows = []
    worst = {"logdet": 0.0, "expansion": 0.0, "norm": 0.0, "loo": 0.0}
    for d in (1, 2):
        for nu in (0.5, 1.5, 2.5, 4.0):
            for n in (1, 2, 8, 32, 64):
                spacing = n ** (-1.0 / d)
                lam = 0.5 * math.sqrt(2.0 * nu) * spacing
                for kind_id, kind in enumerate(("quasi-uniform", "random")):
                    seed = int(1_000_000 * d + 10_000 * nu + 10 * n + kind_id)
                    design = _identity_design(kind, d, n, seed)
                    kernel = MaternParams(nu, sigma, lam, d)
                    if kernel_fault is not None:
                        kernel = kernel_fault(kernel)
                    y = np.random.Generator(np.random.Philox(seed + 7)).standard_normal(n)

                    post = condition(kernel, design, y)
                    ld = log_det(post)
                    qf = quadratic_form(post)

                    nres, nvar = _naive_sequential(kernel, design, y)
                    r_logdet = abs(ld - float(np.sum(np.log(nvar)))) / abs(ld)
                    r_exp = abs(qf - float(np.sum(nres**2 / nvar))) / abs(qf) if qf else 0.0

                    K = kernel_matrix(kernel, design)
                    norm_sq = float(post.weights @ K @ post.weights)
                    r_norm = abs(qf - norm_sq) / abs(qf) if qf else 0.0

                    r_loo = 0.0
                    if n >= 2:
                        fast = loo(post)
                        lres, lvar = _naive_loo(kernel, design, y)
                        r_loo = max(
                            float(np.max(np.abs(fast.residuals - lres))),
                            float(np.max(np.abs(fast.variances - lvar))),
                        )

                    worst["logdet"] = max(worst["logdet"], r_logdet)
                    worst["expansion"] = max(worst["expansion"], r_exp)
                    worst["norm"] = max(worst["norm"], r_norm)
                    worst["loo"] = max(worst["loo"], r_loo)
                    status = "ok" if max(r_logdet, r_exp, r_norm, r_loo) <= IDENTITY_TOL else "FAIL"
                    rows.append([d, kind, nu, n, lam, r_logdet, r_exp, r_norm, r_loo, status])

    ok = all(v <= IDENTITY_TOL for v in worst.values())
    summary = (
        "identity residuals (max over grid): "
        f"logdet={worst['logdet']:.3e} expansion={worst['expansion']:.3e} "
        f"norm={worst['norm']:.3e} loo={worst['loo']:.3e} "
        f"tolerance={IDENTITY_TOL:g} -> {'PASS' if ok else 'FAIL'}"
    )
    header = ("d", "design", "nu", "n", "lambda", "logdet_residual",
              "expansion_residual", "norm_residual", "loo_max_abs", "status")
    return ExperimentResult(header=header, rows=rows, summary=summary, ok=ok)


# ----------------------------------------------------------------------
# per-prefix cells of one smoothness
# ----------------------------------------------------------------------

def _prefix_cells(kernel, design, y, schedule, read):
    """``read(post)`` of each prefix of ``schedule``, all conditioned by one
    factorization, or the note ``conditioning: ...`` of the
    :class:`ConditioningError` that took the posterior's place or that
    ``read`` raised."""
    cells = []
    for post in condition_prefixes(kernel, design, y, schedule):
        try:
            if isinstance(post, ConditioningError):
                raise post
            cells.append(read(post))
        except ConditioningError as err:
            cells.append(f"conditioning: {err}")
    return cells


# ----------------------------------------------------------------------
# variance decay
# ----------------------------------------------------------------------

def run_variance_decay(config):
    """Decay rate of the worst leave-one-out variance along a schedule."""
    _check_command("variance-decay", config)
    _, nus = _orders("variance-decay", config)
    schedule = config.schedule or ((16, 32, 64, 128, 256, 512, 1024) if config.d == 1
                                   else (9, 25, 81, 289, 1089))
    design = make_design(config.design, config.d, max(schedule))

    def read(post):
        return float(np.max(loo_variances(post))), float(incremental_variances(post)[-1]), ""

    rows = []
    slopes = {}
    for nu in nus:
        kernel = _matern(config, nu, config.d)
        cells = [(math.nan, math.nan, cell) if isinstance(cell, str) else cell
                 for cell in _prefix_cells(kernel, design, np.zeros(design.n), schedule, read)]
        fit = [(n, v) for n, (v, _, _) in zip(schedule, cells) if math.isfinite(v)]
        slopes[nu] = fit_rate(*zip(*fit)) if len(fit) >= 3 else math.nan
        rows += [[config.d, nu, n, v, last, slopes[nu], note]
                 for n, (v, last, note) in zip(schedule, cells)]

    lines = [
        f"d={config.d} nu={nu}: fitted slope {slopes[nu]:+.3f} (theory {-2*nu/config.d:+.3f})"
        for nu in nus
    ]
    header = ("d", "nu", "n", "max_loo_variance", "last_sequential_variance",
              "fitted_slope", "notes")
    return ExperimentResult(header=header, rows=rows, summary="\n".join(lines))


# ----------------------------------------------------------------------
# non-undersmoothing sweeps
# ----------------------------------------------------------------------

def _draw_or_evaluate(config, design):
    """Column labels and the ``(n, s)`` data: the catalog function's values
    under the label None, or one path per seed, all drawn from one
    factorization."""
    if config.f0 is not None:
        f0 = builtin_test_functions()[config.f0]
        return [None], f0(design.points[:, 0])[:, None]
    seeds = config.seeds or DEFAULT_SEEDS
    return list(seeds), sample_gp_path(_matern(config, config.nu0, design.d), design, seeds)


def _tail_min(values):
    """Smallest of the tail estimates, NaN if any of them is not finite.

    Python's ``min`` skips a NaN that is not first in line, which would let
    a failed estimate pass the threshold comparison.
    """
    values = list(values)
    return min(values) if all(math.isfinite(v) for v in values) else math.nan


def run_non_undersmoothing(config):
    """Smoothness estimates on growing prefixes, per seed.

    All seeds share the design, so their paths are drawn from one
    factorization and swept together as the columns of one matrix: each
    coarse cell is conditioned once for every seed.  With a generating
    smoothness ``nu0``, the summary counts the seeds whose tail estimates
    stay above ``nu0 - d/2 - 0.1`` (the sample-path lower bound with
    slack); a failed (non-finite) tail estimate counts as below it.  For
    catalog functions the sweep is reported as-is, with upper-bracket
    saturation flags for the smooth entries.  A catalog function with a
    ``nu0`` is a :class:`DomainError`: the threshold bounds paths drawn at
    ``nu0``, and says nothing of a fixed function.
    """
    _check_command("non-undersmoothing", config)
    schedule = config.schedule or (16, 32, 64, 128, 256, 512)
    design = make_design(config.design, config.d, max(schedule))
    seeds, paths = _draw_or_evaluate(config, design)
    records = sweep_prefixes(
        design, paths, schedule, config.estimator,
        experiment=config.experiment or "non-undersmoothing", seed=seeds)
    k = len(schedule)
    all_records = [records[j * k:(j + 1) * k] for j in range(len(seeds))]
    for j in range(len(seeds)):
        if np.all(paths[:, j] == 0.0):
            all_records[j] = [
                replace(r, notes=(r.notes + ";degenerate_zero_data").strip(";"))
                for r in all_records[j]]
    rows = [r.as_row() for recs in all_records for r in recs]

    lines = []
    ok = None
    tail_k = 3
    if config.nu0 is not None:
        threshold = config.nu0 - config.d / 2.0 - 0.1
        passes_ml = passes_cv = 0
        for seed, recs in zip(seeds, all_records):
            tail = recs[-tail_k:]
            tmin_ml = _tail_min(r.nu_hat_ml for r in tail)
            tmin_cv = _tail_min(r.nu_hat_cv for r in tail)
            p_ml = tmin_ml >= threshold
            p_cv = tmin_cv >= threshold
            passes_ml += p_ml
            passes_cv += p_cv
            lines.append(
                f"seed={seed}: tail min ml={tmin_ml:.3f} cv={tmin_cv:.3f} "
                f"(threshold {threshold:.3f}) "
                f"{'ok' if p_ml and p_cv else 'below'}"
            )
        need = math.ceil(0.8 * len(seeds))
        ok = passes_ml >= need and passes_cv >= need
        lines.append(
            f"tail >= {threshold:.3f}: ml {passes_ml}/{len(seeds)}, "
            f"cv {passes_cv}/{len(seeds)} (need {need}) -> {'PASS' if ok else 'FAIL'}"
        )
    else:
        for recs in all_records:
            late = [r for r in recs if r.n >= 256] or recs
            sat = all(r.hit_upper_ml for r in late)
            lines.append(
                f"f0={config.f0}: upper-bracket saturation over "
                f"n in {sorted(r.n for r in late)}: {sat}"
            )
    return ExperimentResult(header=SweepRecord.FIELDS, rows=rows,
                            summary="\n".join(lines), ok=ok)


# ----------------------------------------------------------------------
# log-determinant growth
# ----------------------------------------------------------------------

def run_logdet_growth(config):
    """Log-determinant against its predicted super-linear trend.

    Tabulates ``log det`` against ``-(2 nu / d) n log n`` per smoothness,
    and, for a path drawn at ``nu0``, records the maximum-likelihood
    estimate per prefix as an exploratory probe of where the estimate
    settles relative to ``nu0 + d/2`` (no pass/fail: the limit is an
    open conjecture).
    """
    _check_command("logdet-growth", config)
    nu0, nus = _orders("logdet-growth", config)
    schedule = config.schedule or (16, 32, 64, 128, 256, 512)
    design = make_design(config.design, config.d, max(schedule))
    (seed,) = config.seeds or DEFAULT_SEEDS[:1]
    # One factorization of K(nu0) draws the path (that of sample_gp_path)
    # and gives the log-determinants at nu0.
    post = condition(_matern(config, nu0, config.d), design, np.zeros(design.n))
    (y,) = _draw(post.chol, [seed])
    logdets0 = [log_det(post.prefix(n)) for n in schedule]
    records = sweep_prefixes(design, y, schedule, config.estimator,
                             experiment="logdet-growth", seed=seed)
    nu_hat = {r.n: r.nu_hat_ml for r in records}

    rows = []
    ratio_at_max = {}
    for nu in nus:
        kernel = _matern(config, nu, config.d)
        logdets = (logdets0 if nu == nu0
                   else _prefix_cells(kernel, design, y, schedule, log_det))
        for n, ld in zip(schedule, logdets):
            note, ld = (ld, math.nan) if isinstance(ld, str) else ("", ld)
            trend = -(2.0 * nu / config.d) * n * math.log(n)
            ratio = ld / (n * math.log(n)) if n > 1 and math.isfinite(ld) else math.nan
            rows.append([nu, n, ld, trend, ratio, nu_hat.get(n, math.nan), note])
            if n == max(schedule) and math.isfinite(ratio):
                ratio_at_max[nu] = ratio

    tail = [r.nu_hat_ml for r in records[-3:]]
    med = float(np.median(tail)) if tail else math.nan
    target = nu0 + config.d / 2.0
    lines = [
        f"nu={nu}: logdet/(n log n) at n={max(schedule)} is "
        f"{ratio_at_max.get(nu, math.nan):+.3f} (trend {-2*nu/config.d:+.3f})"
        for nu in nus
    ]
    lines.append(
        f"conjecture probe (exploratory): median tail nu_hat_ml={med:.3f}, "
        f"distance to nu0 + d/2 = {target:.3f} is {abs(med - target):.3f}"
    )
    header = ("nu", "n", "logdet", "trend", "logdet_over_nlogn", "nu_hat_ml", "notes")
    return ExperimentResult(header=header, rows=rows, summary="\n".join(lines))


# ----------------------------------------------------------------------
# convergence of the conditional mean
# ----------------------------------------------------------------------

def _convergence_probes(count):
    """``count`` probe points off the dyadic lattice, ``1 <= count <= 512``:
    odd multiples of 1/1024, spread evenly over [0, 1].

    The first 513 van der Corput points lie on the lattice of 1/512.
    """
    return (2 * (np.arange(count) * 512 // count) + 1) / 1024.0


def run_convergence(config):
    """Sup-error decay of the conditional mean for a drawn response.

    Oversmoothed models are fitted for their error rate; the undersmoothed
    model is tracked through the ratio of the sup error to the posterior
    standard deviation, which should stay bounded.

    Every seed shares the design and the probes, so the seeds' joint paths
    (design points, then probes) are drawn from one factorization, and each
    model is factored once for all of them, with the seeds' data as the
    columns of one array; each prefix's mean and variance at the probes are
    evaluated once, from one cross-covariance build.  A seed's rows are
    those of that seed run alone, bit for bit.  Rows run seed by seed, then
    model, then prefix size.
    """
    _check_command("convergence", config)
    nu0, models = _orders("convergence", config)
    schedule = config.schedule or _CONVERGENCE_SCHEDULE
    design = make_design("van_der_corput", 1, max(schedule))
    probes = _convergence_probes(config.probe_count)
    joint = Design(np.concatenate([design.points[:, 0], probes]), design.box)
    seeds = config.seeds or DEFAULT_SEEDS
    paths = sample_gp_path(_matern(config, nu0, 1), joint, seeds)
    y, f0_probe = paths[:design.n], paths[design.n:]

    def read(post):
        mean, var, _ = _moments(post, probes)
        err, positive = np.abs(mean - f0_probe), var > 0.0
        if not positive.any():  # rounding leaves no probe a positive variance
            return [(float(np.max(e)), math.nan, "no_positive_variance") for e in err.T]
        return [(float(np.max(e)), float(np.max(e[positive] / np.sqrt(var[positive]))), "")
                for e in err.T]

    cells = {}  # (model, n) -> per-seed (sup error, error / sd ratio, note)
    for nu_model in models:
        kernel = _matern(config, nu_model, 1)
        for n, cell in zip(schedule, _prefix_cells(kernel, design, y, schedule, read)):
            cells[nu_model, n] = ([(math.nan, math.nan, cell)] * len(seeds)
                                  if isinstance(cell, str) else cell)
    rows = [[seed, nu_model, n, *cells[nu_model, n][j]]
            for j, seed in enumerate(seeds) for nu_model in models for n in schedule]

    lines = []
    for nu_model in models:
        errors = {n: [e for e, _, _ in cells[nu_model, n]] for n in schedule}
        ns = [n for n in schedule if all(map(math.isfinite, errors[n]))]
        if len(ns) >= 3:
            slope = fit_rate(ns, [float(np.exp(np.mean(np.log(errors[n])))) for n in ns])
            lines.append(f"nu_model={nu_model:g}: sup-error slope {slope:+.3f} "
                         f"(oversmoothed theory {-nu0:+.3f})")
    under = min(models)
    ratios = [[r for _, r, _ in cells[under, n] if math.isfinite(r)] for n in schedule]
    means = [float(np.mean(r)) for r in ratios if r]
    if len(means) >= 3:
        third = max(1, len(means) // 3)
        first, last = float(np.mean(means[:third])), float(np.mean(means[-third:]))
        lines.append(
            f"undersmoothed nu_model={under:g}: error/sd ratio first-third mean "
            f"{first:.3f}, last-third mean {last:.3f} "
            f"({'bounded' if last <= 1.5 * first else 'growing'})"
        )
    header = ("seed", "nu_model", "n", "sup_error", "max_err_over_sd", "notes")
    return ExperimentResult(header=header, rows=rows, summary="\n".join(lines))
