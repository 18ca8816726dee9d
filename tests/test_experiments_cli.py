"""Experiment engines and the command-line front end."""

import csv
import importlib.util
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from maternsmooth import analysis, cli, experiments, gp
from maternsmooth.analysis import builtin_test_functions
from maternsmooth.cli import _build_config, _build_parser, main, parse_config_file, write_csv
from maternsmooth.errors import DomainError, EstimationError
from maternsmooth.estimators import EstimatorConfig, bracketed_minimize
from maternsmooth.gp import condition
from maternsmooth.kernels import GaussianKernel, GaussParams
from maternsmooth.objectives import ell_cv_from, ell_ml_from
from maternsmooth.experiments import (
    IDENTITY_TOL,
    ExperimentConfig,
    ExperimentResult,
    run_convergence,
    run_gaussian_scale_probe,
    run_identity_suite,
    run_logdet_growth,
    run_non_undersmoothing,
    run_variance_decay,
)

TEN_SEEDS = ",".join(str(seed) for seed in range(101, 111))

# The rows of a sweep over the first 512 van der Corput points, each moved
# by at most a quarter of the finest spacing, of the catalog's gauss_bump,
# written as CSV to the path given as the first argument.
_SATURATION_SWEEP = """
import sys
import numpy as np
from maternsmooth.analysis import builtin_test_functions
from maternsmooth.cli import write_csv
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth.estimators import EstimatorConfig, SweepRecord, sweep_prefixes
base = van_der_corput(Box.unit(1), 512).points[:, 0]
spacing = float(np.min(np.diff(np.sort(base))))
jitter = (2.0 * np.random.Generator(np.random.Philox(0)).random(512) - 1.0) * 0.25 * spacing
points = np.clip(base + jitter, 0.0, 1.0)
records = sweep_prefixes(Design(points, Box.unit(1)),
                         builtin_test_functions()["gauss_bump"](points), (64, 128, 256, 512),
                         EstimatorConfig(nu_max=300.0, lambda_=0.05), seed=0)
write_csv(sys.argv[1], SweepRecord.FIELDS, [r.as_row() for r in records])
"""

# The hex of the 25 catalog norms that tests/test_analysis.py pins, one a
# line, written to the path given as the first argument.
_NORMS = """
import math
import sys
from maternsmooth.analysis import (builtin_test_functions, gaussian_rkhs_norm_sq,
                                  matern_rkhs_norm_sq)
from maternsmooth.kernels import STANDARD_SCALING, MaternParams
catalog = builtin_test_functions()
values = [matern_rkhs_norm_sq(catalog[label], MaternParams(nu, 1.0, lam, STANDARD_SCALING))
          for label in ("cauchy_like", "gauss_bump") for nu in (0.5, 1.5, 4.0, 16.0, 64.0)
          for lam in (0.5, math.sqrt(2.0))]
values += [gaussian_rkhs_norm_sq(catalog["gauss_bump"], lam).value
           for lam in (0.25, 0.5, 1.0, math.sqrt(2.0), 1.9)]
with open(sys.argv[1], "w") as fh:
    fh.write("".join(value.hex() + "\\n" for value in values))
"""


def _written_at_blas_threads(tmp_path, args):
    """The bytes that ``python *args OUT`` writes to the file OUT, run at one
    and at two OpenBLAS threads, each in a fresh process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, *args, str(out)], env=env, capture_output=True,
                       check=True)
        written.append(out.read_bytes())
    return written


class _DriftingKernel:
    """Fault-injection hook: answers drift slightly between calls, so the
    full matrix and the prefix refits see inconsistent kernels."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = 0

    def __call__(self, r):
        self.calls += 1
        return self.kernel(r) * (1.0 + 1e-5 * (self.calls % 3))

    @property
    def variance(self):
        return self.kernel.variance


class TestIdentitySuite:
    def test_passes_on_default_grid(self, identity_result):
        result, _ = identity_result
        assert result.ok
        assert len(result.rows) == 80
        assert all(row[-1] == "ok" for row in result.rows)

    def test_injected_fault_is_detected(self):
        # The leave-one-out check alone would catch the drift: ask that the
        # log-determinant, expansion or norm identity catches it as well.
        result = run_identity_suite(kernel_fault=_DriftingKernel)
        assert not result.ok
        assert any(max(row[5:8]) > IDENTITY_TOL for row in result.rows)

    def test_single_point_cells_included(self, identity_result):
        result, _ = identity_result
        assert any(row[3] == 1 for row in result.rows)


# The settings each command reads, and a value other than the default for
# each of the 17 settings (fields of ExperimentConfig and EstimatorConfig).
_ESTIMATOR_SETTINGS = ("nu_min", "nu_max", "coarse_grid", "sigma", "profile_sigma", "lambda_")
_READS = {
    "verify-identities": (),
    "variance-decay": ("d", "design", "nu_grid", "schedule", "sigma", "lambda_"),
    "non-undersmoothing": ("d", "design", "nu0", "f0", "schedule", "seeds",
                           *_ESTIMATOR_SETTINGS),
    "logdet-growth": ("d", "design", "nu0", "nu_grid", "schedule", "seeds",
                      *_ESTIMATOR_SETTINGS),
    "convergence": ("nu0", "nu_model", "schedule", "seeds", "probe_count", "sigma", "lambda_"),
    "gaussian-scale-probe": ("f0", "schedule", "lambda_min", "lambda_max", "sigma",
                             "coarse_grid"),
}
_SETTING_VALUES = dict(d=2, design="uniform_grid", nu0=1.5, nu_grid=(1.0,), nu_model=(1.0,),
                       schedule=(16, 32), seeds=(1,), lambda_min=0.1, lambda_max=1.0,
                       f0="gauss_bump", probe_count=128, nu_min=0.1, nu_max=10.0,
                       coarse_grid=30, sigma=2.0, profile_sigma=True, lambda_=0.5)
_RUNNERS = {"variance-decay": run_variance_decay, "non-undersmoothing": run_non_undersmoothing,
            "logdet-growth": run_logdet_growth, "convergence": run_convergence,
            "gaussian-scale-probe": run_gaussian_scale_probe}


def _config(experiment, **settings):
    """An ExperimentConfig of the given settings, those of EstimatorConfig
    among them."""
    estimator = EstimatorConfig(**{k: settings.pop(k) for k in _ESTIMATOR_SETTINGS
                                   if k in settings})
    return ExperimentConfig(experiment=experiment, estimator=estimator, **settings)


class TestEngines:
    def test_variance_decay_rows_and_slope(self):
        cfg = ExperimentConfig(experiment="variance-decay", nu_grid=(1.0,),
                               schedule=(16, 32, 64, 128))
        result = run_variance_decay(cfg)
        assert result.header[0] == "d"
        slope = result.rows[0][5]
        assert slope == pytest.approx(-2.0, abs=0.3)
        assert all(row[5] == slope for row in result.rows)

    def test_non_undersmoothing_pass_counting(self):
        cfg = ExperimentConfig(experiment="non-undersmoothing", nu0=1.5,
                               schedule=(16, 32, 64), seeds=(101, 102))
        result = run_non_undersmoothing(cfg)
        assert result.ok is not None
        assert len(result.rows) == 6

    def test_2d_grid_paths_are_drawn_on_the_swept_points(self, monkeypatch):
        # A 9 x 9 grid covers a schedule to 64: the paths are drawn on its
        # first 64 points, not on all 81.
        drawn = []
        draw = experiments.sample_gp_path

        def recording(params, design, seed):
            drawn.append(draw(params, design, seed))
            return drawn[-1]

        monkeypatch.setattr(experiments, "sample_gp_path", recording)
        cfg = ExperimentConfig(experiment="x", nu0=1.5, d=2, design="uniform_grid",
                               schedule=(16, 32, 64), seeds=(101, 102))
        assert len(run_non_undersmoothing(cfg).rows) == 6
        assert [paths.shape for paths in drawn] == [(64, 2)]

    def test_logdet_growth_draws_on_the_swept_points(self, monkeypatch, tmp_path, capsys):
        # make_design returns the points asked for, so a 2-d path is drawn on
        # the 64 points swept, not on all 81 of the 9 x 9 grid.
        sizes, draw = [], experiments._draw

        def recording(chol, seeds):
            sizes.append(chol.shape[0])
            return draw(chol, seeds)

        monkeypatch.setattr(experiments, "_draw", recording)
        code = main(["logdet-growth", "--d", "2", "--design", "uniform_grid",
                     "--schedule", "16,32,64", "--out", str(tmp_path / "out.csv")])
        assert code == 0 and sizes == [64]
        assert experiments.make_design("uniform_grid", 2, 64).n == 64

    def test_logdet_growth_factors_the_generating_kernel_once(self, monkeypatch):
        # One factorization of K(nu0) on the 512 points draws the path and
        # gives the nu = nu0 log-determinants of every prefix; the sweep's
        # cells and the two other smoothnesses of the grid make the rest.
        factored, factor = [], gp._factor

        def counting(kernel, design, buffer=None):
            factored.append((kernel.params.nu, design.n))
            return factor(kernel, design, buffer)

        monkeypatch.setattr(gp, "_factor", counting)
        run_logdet_growth(ExperimentConfig(experiment="logdet-growth", nu0=1.0))
        assert len(factored) == 38
        assert factored.count((1.0, 512)) == 1 and factored[0] == (1.0, 512)

    def test_failed_tail_estimate_counts_below_threshold(self, monkeypatch):
        # Python's min skips a NaN that is not first, so a failed estimate
        # in the middle of a tail must not let its seed pass.
        cfg = ExperimentConfig(experiment="x", nu0=1.5, schedule=(16, 32, 64),
                               seeds=(101, 102))
        assert run_non_undersmoothing(cfg).ok
        sweep = experiments.sweep_prefixes

        def failed_middle(*args, **kwargs):
            records = sweep(*args, **kwargs)  # seed 101's three records first
            middle = records[1]
            records[1] = replace(middle, nu_hat_ml=math.nan, notes="ml_error=injected")
            return records

        monkeypatch.setattr(experiments, "sweep_prefixes", failed_middle)
        result = run_non_undersmoothing(cfg)
        assert not result.ok
        assert "seed=101: tail min ml=nan" in result.summary
        assert "ml 1/2" in result.summary

    def test_convergence_rows_do_not_depend_on_other_seeds(self):
        base = ExperimentConfig(experiment="x", nu0=1.5, nu_model=(3.0, 0.75),
                                schedule=(32, 64, 128, 256, 512), seeds=(11, 12, 13))
        together = run_convergence(base).rows
        alone = run_convergence(replace(base, seeds=(12,))).rows
        assert len(together) == 30 and len(alone) == 10
        assert [row for row in together if row[0] == 12] == alone
        # seed, then model, then prefix size
        assert [row[:3] for row in together[:10]] == [
            [11, nu, n] for nu in (3.0, 0.75) for n in (32, 64, 128, 256, 512)]

    def test_one_factorization_serves_every_seed(self, monkeypatch):
        # The default convergence run factors the joint kernel once for its
        # ten seeds' paths and each of its three models once, and builds the
        # probes' cross-covariances once per conditioned (model, prefix); the
        # C07 sweep draws its ten paths from one factorization.
        calls = {"joint": 0, "models": 0, "cross": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(analysis, "condition", counting("joint", analysis.condition))
        monkeypatch.setattr(experiments, "condition_prefixes",
                            counting("models", experiments.condition_prefixes))
        monkeypatch.setattr(gp, "_cross_covariances", counting("cross", gp._cross_covariances))
        result = run_convergence(ExperimentConfig(experiment="convergence"))
        assert len(result.rows) == 10 * 3 * 5
        conditioned = {(row[1], row[2]) for row in result.rows if not row[5]}
        assert len(conditioned) >= 12
        assert calls == {"joint": 1, "models": 3, "cross": len(conditioned)}
        calls.update(joint=0, models=0, cross=0)
        c07 = ExperimentConfig(experiment="non-undersmoothing", nu0=1.5, schedule=(16, 32))
        assert len(run_non_undersmoothing(c07).rows) == 10 * 2
        assert calls == {"joint": 1, "models": 0, "cross": 0}

    def test_convergence_probes_avoid_design_points(self):
        # Odd multiples of 1/1024 stay off the design's lattice of 1/512, and
        # for any count they reach the top of [0, 1]: the largest probe lies
        # less than one probe step, 2 * ceil(512 / count) / 1024, below 1.
        cfg = ExperimentConfig(experiment="x", nu0=1.5, schedule=(16, 32, 64),
                               seeds=(1,), probe_count=300)
        assert len(run_convergence(cfg).rows) == 9
        for count in range(1, 513):
            numerators = experiments._convergence_probes(count) * 1024.0
            assert len(set(numerators)) == count
            assert all(k % 2 == 1 for k in numerators) and numerators.max() < 1024
            assert numerators.max() / 1024 > 1 - 2 * math.ceil(512 / count) / 1024, count

    @pytest.mark.parametrize("kwargs", [dict(probe_count=0), dict(probe_count=513),
                                        dict(schedule=(16, 514)), dict(probe_count=300.5),
                                        dict(probe_count=True)])
    def test_convergence_probe_domain(self, kwargs):
        cfg = ExperimentConfig(experiment="x", nu0=1.5, seeds=(1,),
                               **{"schedule": (16, 32, 64), **kwargs})
        with pytest.raises(DomainError):
            run_convergence(cfg)

    @pytest.mark.parametrize("command,runner,kwargs", [
        ("non-undersmoothing", run_non_undersmoothing, {}),
        ("non-undersmoothing", run_non_undersmoothing, dict(f0="gauss_bump", nu0=1.5)),
        ("non-undersmoothing", run_non_undersmoothing,
         dict(nu0=1.5, d=2, design="van_der_corput")),
        ("logdet-growth", run_logdet_growth, dict(d=2, design="van_der_corput")),
        ("convergence", run_convergence, dict(d=2)),
        ("convergence", run_convergence, dict(schedule=(16, 600))),
        ("gaussian-scale-probe", run_gaussian_scale_probe, dict(d=2)),
        ("gaussian-scale-probe", run_gaussian_scale_probe, dict(nu_grid=(1.0, 2.0))),
        ("non-undersmoothing", run_non_undersmoothing,
         dict(f0="gauss_bump", d=2, design="uniform_grid")),
    ])
    def test_command_rules_are_checked_when_built_and_when_run(self, command, runner, kwargs):
        # A configuration named after its command fails when it is built;
        # one built under another name fails when the runner is called.
        with pytest.raises(DomainError):
            ExperimentConfig(experiment=command, **kwargs)
        config = ExperimentConfig(experiment="x", **kwargs)
        with pytest.raises(DomainError):
            runner(config)

    @pytest.mark.parametrize("command", _READS)
    @pytest.mark.parametrize("setting", _SETTING_VALUES)
    def test_each_command_refuses_the_settings_it_does_not_read(self, command, setting):
        # A setting the command reads is accepted; any other, given a value
        # other than its default, is refused when the configuration is built
        # under the command's name and when the runner is called under
        # another.  verify-identities' runner takes no configuration.
        base = {} if command != "non-undersmoothing" or setting in ("nu0", "f0") else {
            "nu0": 1.5}
        kwargs = {**base, setting: _SETTING_VALUES[setting]}
        if setting in _READS[command]:
            assert _config(command, **kwargs).experiment == command
            return
        _config(command, **base)
        with pytest.raises(DomainError, match=f"^{command} does not read {setting}, got "):
            _config(command, **kwargs)
        if command != "verify-identities":
            with pytest.raises(DomainError, match=f"^{command} does not read {setting}, got "):
                _RUNNERS[command](_config("x", **kwargs))

    def test_the_read_sets_accept_43_pairs_of_102(self):
        settings = {f.name for config in (ExperimentConfig, EstimatorConfig)
                    for f in fields(config)} - {"experiment", "estimator", "output_path"}
        assert set(_SETTING_VALUES) == settings
        assert len(_SETTING_VALUES) * len(_READS) == 102
        assert sum(len(reads) for reads in _READS.values()) == 43
        assert _READS == experiments._READS

    def test_catalog_function_with_nu0_is_rejected_before_drawing(self, monkeypatch):
        # The threshold nu0 - d/2 - 0.1 bounds paths drawn at nu0: with a
        # catalog function it would judge data that nu0 did not generate.
        factored, factor = [], gp._factor
        monkeypatch.setattr(gp, "_factor", lambda *args: factored.append(args) or factor(*args))
        cfg = ExperimentConfig(experiment="x", f0="gauss_bump", nu0=1.5, schedule=(16, 32, 64))
        with pytest.raises(DomainError, match="gauss_bump"):
            run_non_undersmoothing(cfg)
        assert not factored

    def test_zero_function_degenerate_flag(self):
        cfg = ExperimentConfig(experiment="x", f0="zero", schedule=(8, 16))
        result = run_non_undersmoothing(cfg)
        assert all("degenerate_zero_data" in row[-1] for row in result.rows)

    def test_logdet_growth_tracks_trend(self):
        cfg = ExperimentConfig(experiment="logdet-growth", nu0=1.0,
                               nu_grid=(0.5, 1.0), schedule=(16, 32, 64, 128, 256, 512))
        result = run_logdet_growth(cfg)
        # ratio log det / (n log n) within 30% of -2 nu / d at the last size
        for nu in (0.5, 1.0):
            last = [r for r in result.rows if r[0] == nu][-1]
            assert last[4] == pytest.approx(-2.0 * nu, rel=0.30)
        assert "conjecture probe" in result.summary

    def test_gaussian_probe_records_failures(self):
        cfg = ExperimentConfig(experiment="x", f0="gauss_bump", schedule=(8, 16, 64))
        result = run_gaussian_scale_probe(cfg)
        assert "no assertion" in result.summary
        # by n=64 the Gaussian matrices are numerically rank-deficient
        last = result.rows[-1]
        assert math.isnan(last[1]) or "failures" in last[3]

    def test_degenerate_lambda_bracket_returns_that_lambda(self):
        cfg = ExperimentConfig(experiment="x", f0="gauss_bump", schedule=(8,),
                               lambda_min=0.8, lambda_max=0.8)
        result = run_gaussian_scale_probe(cfg)
        assert result.rows[0][1] == pytest.approx(0.8)

    def test_config_validation(self):
        for schedule in ((32, 16), (0, 16), (-16,), (16, 16), (16, 32.5), (True, 16)):
            with pytest.raises(DomainError, match="schedule"):
                ExperimentConfig(schedule=schedule)
        with pytest.raises(DomainError):
            ExperimentConfig(d=3)
        with pytest.raises(DomainError):
            ExperimentConfig(f0="nonexistent")
        with pytest.raises(DomainError):
            ExperimentConfig(lambda_min=1.0, lambda_max=0.5)
        with pytest.raises(DomainError):
            ExperimentConfig(seeds=())
        for seeds in ((1.5, 2.5), (True,), (101, -1), (np.bool_(True),), (2.0,), ("3",)):
            with pytest.raises(DomainError, match="must be a non-negative integer"):
                ExperimentConfig(seeds=seeds)
        assert ExperimentConfig(seeds=(0, np.int64(7))).seeds == (0, 7)
        for bad in (dict(nu0=-1.0), dict(nu0=0.0), dict(nu0=math.inf), dict(nu0=math.nan),
                    dict(nu0=True), dict(nu0="1.5"), dict(nu_grid=(0.5, -1.0)),
                    dict(nu_grid=(math.nan,)), dict(nu_model=(3.0, 0.0)),
                    dict(nu_model=(math.inf,)), dict(nu_model=(False,))):
            with pytest.raises(DomainError, match="must be positive and finite"):
                ExperimentConfig(**bad)
        for bad, name in ((dict(lambda_max=math.inf), "lambda_max"),
                          (dict(lambda_min=math.inf, lambda_max=math.inf), "lambda_min"),
                          (dict(lambda_max=math.nan), "lambda_max")):
            with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
                ExperimentConfig(**bad)
        # True would run as 1; a string would raise a bare TypeError.
        for bad, message in (
                (dict(lambda_min=True), "lambda_min must be positive and finite, got True"),
                (dict(lambda_max=True), "lambda_max must be positive and finite, got True"),
                (dict(lambda_min="low"), "lambda_min must be positive and finite, got 'low'"),
                (dict(lambda_max="2"), "lambda_max must be positive and finite, got '2'"),
                (dict(lambda_min=1.0, lambda_max=0.5),
                 "need lambda_min <= lambda_max, got lambda_min=1.0, lambda_max=0.5")):
            with pytest.raises(DomainError) as caught:
                ExperimentConfig(**bad)
            assert str(caught.value) == message
        for d in (True, 1.0, 2.0, "1"):
            with pytest.raises(DomainError, match="only d in"):
                ExperimentConfig(d=d)
        assert ExperimentConfig(d=np.int64(2)).d == 2

    @pytest.mark.parametrize("kwargs", [dict(nu_grid=(1.0, 2.0, 1.0)), dict(nu_model=(1, 1.0))])
    def test_repeated_smoothness_is_rejected(self, kwargs):
        # Each entry names its rows and summary lines; a repeat would write
        # them twice.  Repeated seeds stay allowed.
        with pytest.raises(DomainError, match="repeats an entry"):
            ExperimentConfig(**kwargs)
        assert ExperimentConfig(seeds=(1, 1)).seeds == (1, 1)

    def test_variance_decay_notes_failed_prefixes(self):
        # nu = 6 fails at pivot 22: its 16-point prefix is conditioned, the
        # larger ones are NaN with the note, and its slope has too few sizes.
        cfg = ExperimentConfig(experiment="variance-decay", nu_grid=(0.5, 6),
                               schedule=(16, 64, 256, 512))
        rows = run_variance_decay(cfg).rows
        assert [row[1:3] for row in rows] == [[nu, n] for nu in (0.5, 6)
                                               for n in (16, 64, 256, 512)]
        assert all(math.isfinite(row[3]) and math.isfinite(row[5]) and not row[6]
                   for row in rows[:4])
        assert math.isfinite(rows[4][3]) and math.isfinite(rows[4][4]) and not rows[4][6]
        for row in rows[5:]:
            assert math.isnan(row[3]) and math.isnan(row[4]) and math.isnan(row[5])
            assert row[6].startswith("conditioning: pivot 22 = ")
            assert row[6].endswith("below relative floor 1.000e-14")

    def test_logdet_growth_notes_failed_prefixes(self):
        cfg = ExperimentConfig(experiment="logdet-growth", nu_grid=(6,), schedule=(16, 64, 256))
        result = run_logdet_growth(cfg)
        first, *failed = result.rows
        assert math.isfinite(first[2]) and math.isfinite(first[4]) and not first[6]
        assert [row[1] for row in failed] == [64, 256]
        for row in failed:
            assert math.isnan(row[2]) and math.isnan(row[4]) and math.isfinite(row[5])
            assert row[6].startswith("conditioning: pivot 22 = ")
            assert row[6].endswith("below relative floor 1.000e-14")
        assert "nu=6: logdet/(n log n) at n=256 is +nan" in result.summary

    def test_convergence_notes_failed_prefixes(self):
        # Every nu_model = 8 prefix fails, so the summary fits the sup-error
        # slope of nu_model = 1.5 alone.
        cfg = ExperimentConfig(experiment="convergence", nu_model=(8, 1.5),
                               schedule=(16, 64, 256), seeds=(1, 2))
        result = run_convergence(cfg)
        assert len(result.rows) == 12
        for row in result.rows:
            if row[1] == 8:
                assert math.isnan(row[3]) and math.isnan(row[4])
                assert row[5].startswith("conditioning: pivot ")
                assert row[5].endswith("below relative floor 1.000e-14")
            else:
                assert math.isfinite(row[3]) and math.isfinite(row[4]) and not row[5]
        lines = result.summary.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "nu_model=1.5", "undersmoothed nu_model=1.5"]


def _reference_probe(config):
    """The Gaussian scale probe's searches as they ran on their own: per
    prefix and objective, :func:`bracketed_minimize` over a closure that
    conditions the prefix anew at each length-scale.  A dict mapping
    ``(n, objective)`` to the :class:`NuEstimate` or the
    :class:`EstimationError` that ended the search."""
    schedule = config.schedule or (8, 16, 32, 64, 128)
    design = experiments.make_design("van_der_corput", 1, max(schedule))
    y = builtin_test_functions()["gauss_bump"](design.points[:, 0])
    found = {}
    for n in schedule:
        prefix = design.prefix(n)
        for name, ell in (("ml", ell_ml_from), ("cv", ell_cv_from)):
            def fn(lam):
                kernel = GaussianKernel(GaussParams(config.estimator.sigma, lam), d=1,
                                        unit_amplitude=True)
                return ell(condition(kernel, prefix, y[:n])).total

            try:
                found[n, name] = bracketed_minimize(fn, config.lambda_min, config.lambda_max,
                                                    config.estimator.coarse_grid)
            except EstimationError as err:
                found[n, name] = err
    return found


def _probe_failures(notes, name):
    """The failing cells a probe row's notes give for one objective: the
    count of its ``*_failures=`` note or of its error, else 0."""
    for note in notes.split(";"):
        if note.startswith(f"{name}_failures="):
            return int(note.split("=")[1])
        if note.startswith(f"{name}_error="):
            return int(note.rsplit("(", 1)[1].split()[0])
    return 0


class TestGaussianScaleProbe:
    """The probe runs the estimator's search on the length-scale."""

    @pytest.mark.parametrize("config", [
        ExperimentConfig(experiment="x"),
        ExperimentConfig(experiment="x", schedule=(8, 16, 32),
                         estimator=EstimatorConfig(sigma=2.0)),
    ])
    def test_estimates_equal_the_searches_on_their_own(self, config):
        result = run_gaussian_scale_probe(config)
        reference = _reference_probe(config)
        assert [row[0] for row in result.rows] == sorted({n for n, _ in reference})
        for n, lam_ml, lam_cv, _, _, notes in result.rows:
            for name, lam in (("ml", lam_ml), ("cv", lam_cv)):
                ref = reference[n, name]
                if isinstance(ref, EstimationError):
                    assert math.isnan(lam) and f"{name}_error={ref}" in notes
                    failures = int(str(ref).rsplit("(", 1)[1].split()[0])
                else:
                    assert lam == ref.nu_hat
                    failures = len(ref.failures)
                assert _probe_failures(notes, name) == failures

    def test_error_row_reports_its_failures_once(self):
        result = run_gaussian_scale_probe(ExperimentConfig(experiment="x"))
        (notes,) = [row[-1] for row in result.rows if row[0] == 64]
        assert notes.split(";") == [
            f"{name}_error=no candidate in [0.05, 2] could be evaluated (60 failures)"
            for name in ("ml", "cv")]

    def test_saturated_estimates_are_flagged(self):
        config = ExperimentConfig(experiment="x")
        result = run_gaussian_scale_probe(config)
        reference = _reference_probe(config)
        assert result.header[3:] == ("hit_upper_ml", "hit_upper_cv", "notes")
        saturated = [row for row in result.rows if row[0] in (8, 16, 32)]
        assert len(saturated) == 3
        for n, lam_ml, lam_cv, hit_ml, hit_cv, _ in saturated:
            assert hit_ml is True and hit_cv is True
            assert lam_ml == reference[n, "ml"].searchable_upper
            assert lam_cv == reference[n, "cv"].searchable_upper
            assert (f"n={n}: lambda_hat_ml={lam_ml:.4f} (saturates the searchable bracket) "
                    f"lambda_hat_cv={lam_cv:.4f} (saturates the searchable bracket)"
                    in result.summary)

    @pytest.mark.parametrize("bracket, factorizations", [((0.05, 2.0), 60), ((0.8, 0.8), 1)])
    def test_one_factorization_per_distinct_cell(self, monkeypatch, bracket, factorizations):
        # Every prefix and both objectives read one factor per lambda cell,
        # on the largest prefix; the default run refines no search.
        factor, calls = gp._factor, [0]

        def counting(*args):
            calls[0] += 1
            return factor(*args)

        monkeypatch.setattr(gp, "_factor", counting)
        lo, hi = bracket
        run_gaussian_scale_probe(ExperimentConfig(experiment="x", lambda_min=lo, lambda_max=hi))
        assert calls[0] == factorizations


class TestCsv:
    def test_round_trip_floats_exact(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [[1, math.pi, "plain"], [2, 1e-17, "with,comma"]]
        write_csv(path, ("a", "b", "c"), rows)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            back = list(reader)
        assert header == ["a", "b", "c"]
        assert float(back[0][1]) == math.pi
        assert float(back[1][1]) == 1e-17
        assert back[1][2] == "with,comma"

    def test_quotes_only_when_needed(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ("a", "b"), [[1.5, "note;ok"]])
        text = path.read_text()
        assert '"' not in text


class TestConfigFile:
    def test_parse_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "nu0 = 1.5\n"
            "schedule = 16,32,64\n"
            "seeds=1,2\n"
            "design = van_der_corput\n"
            "profile_sigma = true\n"
        )
        values = parse_config_file(cfg)
        assert values["nu0"] == 1.5
        assert values["schedule"] == (16, 32, 64)
        assert values["seeds"] == (1, 2)
        assert values["profile_sigma"] is True

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a pair\n")
        with pytest.raises(DomainError):
            parse_config_file(cfg)

    def test_lambda_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 1.0\nsigma = 2.0\n")
        args = _build_parser().parse_args(
            ["variance-decay", "--config", str(cfg), "--lambda", "0.25"])
        config = _build_config(args)
        assert config.estimator.lambda_ == 0.25
        assert config.estimator.sigma == 2.0


    @pytest.mark.parametrize("command,flags,lines", [
        ("variance-decay", ["--nu-grid", "1,2", "--sigma", "2"], "nu_grid = 1, 2\nsigma = 2\n"),
        ("logdet-growth", ["--nu0", "1", "--nu-grid", "1,2", "--lambda", "1"],
         "nu0 = 1\nnu_grid = 1, 2\nlambda = 1\n"),
    ])
    def test_file_reads_whole_numbers_of_real_settings_as_its_flags_do(
            self, command, flags, lines, tmp_path, monkeypatch, capsys):
        # Whole numbers in the file are floats, as the flags read them, so
        # the summary prints nu=1.0 both ways.
        (tmp_path / "run.cfg").write_text(lines)
        written = []
        for source, extra in (("flag", flags), ("file", ["--config", str(tmp_path / "run.cfg")])):
            (tmp_path / source).mkdir()
            monkeypatch.chdir(tmp_path / source)
            assert main([command, "--schedule", "16,32,64", *extra, "--out", "out.csv"]) == 0
            written.append((Path("out.csv").read_bytes(), capsys.readouterr().out))
        assert written[0] == written[1]
        assert "nu=1.0:" in written[0][1]


class TestCli:
    def test_verify_identities_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "ids.csv"
        code = main(["verify-identities", "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "PASS" in captured.out

    def test_usage_error_exit_two(self):
        assert main(["no-such-command"]) == 2

    def test_unknown_config_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery_knob = 3\n")
        code = main(["variance-decay", "--config", str(cfg)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_objective_key_exit_two(self, tmp_path, capsys):
        # Every command runs both objectives, so no command reads the key.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("objective = cv\n")
        assert main(["logdet-growth", "--config", str(cfg)]) == 2
        assert "unknown configuration keys: ['objective']" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["refine_tol = 1e-8", "pivot_rtol = 1e-4",
                                      "design_size = 1024"])
    def test_fixed_setting_keys_exit_two(self, line, tmp_path, capsys):
        # The search precision, the pivot floor and the design size are
        # fixed, so no configuration key sets them.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["non-undersmoothing", "--nu0", "1.5", "--config", str(cfg)]) == 2
        key = line.split(" ")[0]
        assert f"unknown configuration keys: ['{key}']" in capsys.readouterr().err

    def test_runners_are_looked_up_when_called(self, monkeypatch, capsys):
        # A wrapper on the module's binding of a runner sees the CLI's call.
        calls = []

        def runner(config):
            calls.append(config.experiment)
            return ExperimentResult(header=("x",), rows=[], summary="stubbed")

        monkeypatch.setattr(cli, "run_non_undersmoothing", runner)
        assert main(["non-undersmoothing", "--nu0", "1.5"]) == 0
        assert calls == ["non-undersmoothing"]
        assert capsys.readouterr().out == "stubbed\n"

    @pytest.mark.parametrize("command,runner,ok,check,code", [
        ("verify-identities", "run_identity_suite", False, False, 1),
        ("verify-identities", "run_identity_suite", True, False, 0),
        ("verify-identities", "run_identity_suite", None, False, 0),
        ("non-undersmoothing", "run_non_undersmoothing", False, True, 1),
        ("non-undersmoothing", "run_non_undersmoothing", False, False, 0),
        ("non-undersmoothing", "run_non_undersmoothing", True, True, 0),
        ("non-undersmoothing", "run_non_undersmoothing", None, True, 0),
        ("variance-decay", "run_variance_decay", None, True, 0),
        ("convergence", "run_convergence", False, False, 0),
    ])
    def test_exit_code_rule(self, command, runner, ok, check, code, monkeypatch, tmp_path):
        # 1 exactly when the verdict is False and the command asserts it:
        # verify-identities always, any other command under --check.
        result = ExperimentResult(header=("x",), rows=[[1.0]], summary="", ok=ok)
        monkeypatch.setattr(cli, runner, lambda *args: result)
        out = tmp_path / "out.csv"
        argv = [command, "--out", str(out)] + (["--check"] if check else [])
        if command == "non-undersmoothing":
            argv += ["--nu0", "1.5"]  # the command needs nu0 or f0
        assert main(argv) == code
        assert out.read_text() == "x\n1\n"

    def test_empty_seed_list_exit_two(self, tmp_path, capsys):
        assert main(["non-undersmoothing", "--nu0", "1.5", "--seed-list", ","]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seeds =\n")
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert "need at least one seed" in capsys.readouterr().err
        assert main(["convergence", "--seed-list", "-1"]) == 2
        assert "configuration error: seed -1 must be a non-negative integer" in (
            capsys.readouterr().err)

    def test_non_positive_scale_exit_two(self, capsys):
        assert main(["logdet-growth", "--lambda", "-1"]) == 2
        assert main(["non-undersmoothing", "--sigma", "0"]) == 2
        assert main(["non-undersmoothing", "--nu0", "-1"]) == 2
        assert main(["logdet-growth", "--nu-grid", "0.5,inf"]) == 2
        assert main(["convergence", "--nu-model", "3,0"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: lambda_ must be positive" in err
        assert "configuration error: sigma must be positive" in err
        assert "configuration error: nu0 must be positive and finite, got -1.0" in err
        assert "configuration error: each entry of nu_grid must be positive and finite" in err
        assert "configuration error: each entry of nu_model must be positive and finite" in err

    def test_bad_thread_count_exit_two(self, tmp_path, capsys):
        assert main(["variance-decay", "--threads", "0"]) == 2
        assert main(["gaussian-scale-probe", "--threads", "-4"]) == 2
        assert main(["convergence", "--threads", "x"]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 2.5\n")
        assert main(["variance-decay", "--config", str(cfg)]) == 2
        assert ("configuration error: unknown configuration keys: ['threads']"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["non-undersmoothing", "--nu0", "1.5", "--schedule", "0,16"],
        ["logdet-growth", "--schedule", "0,16"],
        ["non-undersmoothing", "--nu0", "1.5", "--schedule", "16,16"],
    ])
    def test_bad_schedule_exit_two(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert "configuration error: schedule (" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("line,message", [
        ("nu_max = inf", "nu_max must be positive and finite, got inf"),
        ("nu_min = 3.5\nnu_max = 2.5", "need nu_min < nu_max, got nu_min=3.5, nu_max=2.5"),
        ("nu_min = low", "nu_min must be positive and finite, got 'low'"),
        ("profile_sigma = no", "profile_sigma must be a bool, got 'no'"),
        ("coarse_grid = 10.5", "coarse_grid must be an integer"),
        ("coarse_grid = true", "coarse_grid must be an integer"),
        ("lambda_max = inf", "lambda_max must be positive and finite, got inf"),
        ("lambda_min = true", "lambda_min must be positive and finite, got True"),
        ("lambda_max = true", "lambda_max must be positive and finite, got True"),
        ("lambda_min = low", "lambda_min must be positive and finite, got 'low'"),
        ("lambda_min = 1.5\nlambda_max = 0.5",
         "need lambda_min <= lambda_max, got lambda_min=1.5, lambda_max=0.5"),
        ("seeds = 1.5, 2.5", "seed 1.5 must be a non-negative integer"),
        ("seeds = true", "seed True must be a non-negative integer"),
        ("nu0 = nan", "nu0 must be positive and finite"),
        ("d = true", "only d in {1, 2} is supported by the experiments, got True"),
    ])
    def test_bad_bracket_config_exit_two(self, line, message, tmp_path, capsys):
        # Every setting in the file is checked when the configuration is
        # built, the brackets of nu and lambda among them.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = ["non-undersmoothing", "--schedule", "16", "--config", str(cfg)]
        assert main(argv) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_c07_csv_does_not_depend_on_threads(self, tmp_path):
        # The ten-seed C07 configuration with and without --threads, which
        # is accepted and ignored.
        argv = ["non-undersmoothing", "--nu0", "1.5", "--d", "1", "--design",
                "van_der_corput", "--lambda", "1", "--schedule", "16,32,64,128,256,512",
                "--check"]
        one, every = tmp_path / "one.csv", tmp_path / "every.csv"
        assert main(argv + ["--threads", "1", "--out", str(one)]) == 0
        assert main(argv + ["--out", str(every)]) == 0
        assert one.read_bytes() == every.read_bytes()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_missing_output_directory_exit_two_before_the_run(self, source, tmp_path,
                                                             monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_variance_decay", calls.append)
        out = tmp_path / "missing" / "x.csv"
        argv = ["variance-decay", "--schedule", "16,32,64"]
        if source == "flag":
            argv += ["--out", str(out)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"output_path = {out}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert not calls
        assert (f"configuration error: output directory '{out.parent}' does not exist"
                in capsys.readouterr().err)

    def test_failed_write_exit_one(self, tmp_path, monkeypatch, capsys):
        # The directory exists, but the path names it: the write fails.
        result = ExperimentResult(header=("x",), rows=[[1.0]], summary="done")
        monkeypatch.setattr(cli, "run_variance_decay", lambda config: result)
        assert main(["variance-decay", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_missing_config_file_exit_two(self, capsys):
        assert main(["variance-decay", "--config", "/nonexistent/run.cfg"]) == 2

    def test_variance_decay_deterministic_output(self, tmp_path):
        args = ["variance-decay", "--nu-grid", "0.5", "--schedule", "16,32,64"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_non_undersmoothing_check_flag(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "non-undersmoothing", "--nu0", "1.5", "--schedule", "16,32,64",
            "--seed-list", "101,102", "--out", str(out), "--check",
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "experiment"
        assert len(rows) == 7

    def test_smooth_f0_via_cli(self, capsys):
        code = main(["non-undersmoothing", "--f0", "gauss_bump",
                     "--schedule", "8,16"])
        assert code == 0

    def test_catalog_function_with_nu0_via_cli_exit_two_without_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["non-undersmoothing", "--f0", "gauss_bump", "--nu0", "1.5",
                     "--schedule", "16,32,64", "--check", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and not out.exists()
        assert captured.err.startswith("configuration error: ") and "PASS" not in captured.out

    @pytest.mark.parametrize("argv,message", [
        (["non-undersmoothing"], "need either a test-function label or nu0"),
        (["non-undersmoothing", "--nu0", "1.5", "--d", "2", "--design", "van_der_corput"],
         "van der Corput designs are one-dimensional"),
        (["logdet-growth", "--d", "2", "--design", "van_der_corput"],
         "van der Corput designs are one-dimensional"),
        (["convergence", "--d", "2"], "convergence does not read d, got 2"),
        (["convergence", "--schedule", "16,600"], "convergence needs an integer 1 <= "
                                                  "probe_count <= 512 and at most 513 design "
                                                  "points, got 256 probes and 600 points"),
        (["gaussian-scale-probe", "--d", "2"], "gaussian-scale-probe does not read d, got 2"),
        (["gaussian-scale-probe", "--nu-grid", "1,2"],
         "gaussian-scale-probe does not read nu_grid, got (1.0, 2.0)"),
        (["non-undersmoothing", "--f0", "gauss_bump", "--d", "2", "--design", "uniform_grid",
          "--schedule", "16,32"], "the catalog function 'gauss_bump' is one-dimensional"),
        (["convergence", "--f0", "gauss_bump"], "convergence does not read f0, got 'gauss_bump'"),
        (["variance-decay", "--f0", "gauss_bump"],
         "variance-decay does not read f0, got 'gauss_bump'"),
        (["variance-decay", "--d", "2", "--design", "van_der_corput"],
         "van der Corput designs are one-dimensional"),
        (["convergence", "--design", "uniform_grid"],
         "convergence does not read design, got 'uniform_grid'"),
        (["logdet-growth", "--seed-list", "1,2"],
         "logdet-growth draws one path: give one seed, got (1, 2)"),
        (["non-undersmoothing", "--f0", "gauss_bump", "--seed-list", "1,2"],
         "the catalog function 'gauss_bump' is not drawn, so it reads no seeds, got (1, 2)"),
        # The ten seeds that an unset seed list stands for are a list like any other.
        (["logdet-growth", "--seed-list", TEN_SEEDS],
         f"logdet-growth draws one path: give one seed, got ({TEN_SEEDS.replace(',', ', ')})"),
        (["variance-decay", "--seed-list", TEN_SEEDS],
         f"variance-decay does not read seeds, got ({TEN_SEEDS.replace(',', ', ')})"),
    ])
    def test_command_rules_exit_two_without_csv(self, argv, message, tmp_path, capsys):
        # A setting that the command cannot use is a configuration error,
        # raised when the configuration is built, before anything runs (as
        # for --f0 with --nu0, above).
        out = tmp_path / "out.csv"
        assert main(argv + ["--check", "--out", str(out)]) == 2
        assert not out.exists()
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--nu-model", "--nu-grid"])
    def test_repeated_smoothness_exit_two_without_csv(self, flag, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = ["convergence", flag, "1,1", "--seed-list", "1", "--schedule", "16,32,64"]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "configuration error: " in capsys.readouterr().err

    def test_sweep_csv_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The benchmark's two-seed sweep, run at one and at two OpenBLAS
        # threads in fresh processes, writes the same bytes.
        one, two = _written_at_blas_threads(tmp_path, [
            "-m", "maternsmooth.cli", "non-undersmoothing", "--nu0", "1.5",
            "--seed-list", "101,102", "--schedule", "16,32,64,128,256,512", "--out"])
        assert one == two

    def test_saturation_rows_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The benchmark's saturation sweep (smooth data, nu_max = 300, on a
        # jittered design): Bessel orders above 16, the uniform expansion
        # and late pivot-floor failures, at one and at two OpenBLAS threads.
        one, two = _written_at_blas_threads(tmp_path, ["-c", _SATURATION_SWEEP])
        assert one == two and one.count(b"\n") == 5

    def test_norms_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The 25 pinned catalog norms, at one and at two OpenBLAS threads:
        # their quadrature sums do not depend on how BLAS splits a sum.
        one, two = _written_at_blas_threads(tmp_path, ["-c", _NORMS])
        assert one == two and one.count(b"\n") == 25

    def test_gaussian_probe_via_cli(self, capsys):
        code = main(["gaussian-scale-probe", "--schedule", "8,16"])
        assert code == 0
        assert "exploratory" in capsys.readouterr().out

    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            "nu_grid = 1.0\nschedule = 16,32,64\nlambda = 1.0\n"
            f"output_path = {out}\n"
        )
        assert main(["variance-decay", "--config", str(cfg)]) == 0
        assert out.exists()


def test_digest_comparison_names_the_notes_entries_that_moved():
    # ``tools/cli_digests.py --against`` lists, for ``notes``, the keys of
    # the entries whose values differ; a bare entry is its own key.
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = (b"n,nu_hat_ml,notes\n16,1.5,ml_failures=33;ml_irregular=3;cv_failures=33\n"
           b'32,1.25,"ml_non_unimodal;cv_error=nu=2, n=32: pivot 3"\n')
    new = (b"n,nu_hat_ml,notes\n16,1.5,ml_failures=8;cv_failures=33\n"
           b'32,1.25,"cv_error=nu=2, n=32: pivot 3"\n')
    assert tool.column_changes(old, new) == [
        "notes: 2 of 2 rows differ (ml_failures, ml_irregular, ml_non_unimodal)"]
    assert tool.column_changes(old, old) == ["identical"]
