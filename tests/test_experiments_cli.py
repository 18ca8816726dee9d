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
from maternsmooth.designs import Box, van_der_corput
from maternsmooth.errors import DomainError
from maternsmooth.estimators import EstimatorConfig
from maternsmooth.experiments import (
    IDENTITY_TOL,
    ExperimentConfig,
    ExperimentResult,
    run_convergence,
    run_identity_suite,
    run_logdet_growth,
    run_non_undersmoothing,
    run_variance_decay,
)
from maternsmooth.kernels import MaternParams

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
from maternsmooth.kernels import MaternParams
catalog = builtin_test_functions()
values = [matern_rkhs_norm_sq(catalog[label], MaternParams(nu, 1.0, lam))
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
# each of the 15 settings (fields of ExperimentConfig and EstimatorConfig).
_ESTIMATOR_SETTINGS = ("nu_min", "nu_max", "coarse_grid", "sigma", "profile_sigma", "lambda_")
_READS = {
    "verify-identities": (),
    "variance-decay": ("d", "design", "nu_grid", "schedule", "sigma", "lambda_"),
    "non-undersmoothing": ("d", "design", "nu0", "f0", "schedule", "seeds",
                           *_ESTIMATOR_SETTINGS),
    "logdet-growth": ("d", "design", "nu0", "nu_grid", "schedule", "seeds",
                      *_ESTIMATOR_SETTINGS),
    "convergence": ("nu0", "nu_model", "schedule", "seeds", "probe_count", "sigma", "lambda_"),
}
_SETTING_VALUES = dict(d=2, design="uniform_grid", nu0=1.5, nu_grid=(1.0,), nu_model=(1.0,),
                       schedule=(16, 32), seeds=(1,), f0="gauss_bump", probe_count=128,
                       nu_min=0.1, nu_max=10.0, coarse_grid=30, sigma=2.0, profile_sigma=True,
                       lambda_=0.5)
_RUNNERS = {"variance-decay": run_variance_decay, "non-undersmoothing": run_non_undersmoothing,
            "logdet-growth": run_logdet_growth, "convergence": run_convergence}


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
        # The command reads the ML estimates alone, so its sweep runs no CV
        # search and nothing is inverted.
        factored, inverted, factor, invert = [], [], gp._factor, gp._invert

        def counting(kernel, design, buffer=None):
            factored.append((kernel.nu, design.n))
            return factor(kernel, design, buffer)

        monkeypatch.setattr(gp, "_factor", counting)
        monkeypatch.setattr(gp, "_invert", lambda *args: inverted.append(args) or invert(*args))
        run_logdet_growth(ExperimentConfig(experiment="logdet-growth", nu0=1.0))
        assert len(factored) == 44 and not inverted
        assert factored.count((1.0, 512)) == 1 and factored[0] == (1.0, 512)

    def test_readers_of_the_factor_alone_solve_nothing(self, monkeypatch):
        # A path draw and variance-decay read the factor, the pivots and the
        # inverse, never a data term: they condition on no data columns, so
        # neither a forward solve nor a dpotrs runs.
        solved, solve, lapack_call = [], gp._solve_lower, gp._lapack_call

        def counted_lapack(name, *args, **kwargs):
            if name == "dpotrs":
                solved.append(name)
            return lapack_call(name, *args, **kwargs)

        monkeypatch.setattr(gp, "_solve_lower", lambda *args: solved.append(args) or solve(*args))
        monkeypatch.setattr(gp, "_lapack_call", counted_lapack)
        path = analysis.sample_gp_path(MaternParams(1.5), van_der_corput(Box.unit(1), 64), 3)
        assert path.shape == (64,)
        result = run_variance_decay(ExperimentConfig(experiment="variance-decay",
                                                     schedule=(16, 32, 64)))
        assert result.rows and solved == []

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

    def test_the_read_sets_accept_37_pairs_of_75(self):
        settings = {f.name for config in (ExperimentConfig, EstimatorConfig)
                    for f in fields(config)} - {"experiment", "estimator", "output_path"}
        assert set(_SETTING_VALUES) == settings
        assert len(_SETTING_VALUES) * len(_READS) == 75
        assert sum(len(reads) for reads in _READS.values()) == 37
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

    def test_config_validation(self):
        for schedule in ((32, 16), (0, 16), (-16,), (16, 16), (16, 32.5), (True, 16)):
            with pytest.raises(DomainError, match="schedule"):
                ExperimentConfig(schedule=schedule)
        with pytest.raises(DomainError):
            ExperimentConfig(d=3)
        with pytest.raises(DomainError):
            ExperimentConfig(f0="nonexistent")
        with pytest.raises(DomainError):
            ExperimentConfig(seeds=())
        for seeds in ((1.5, 2.5), (True,), (101, -1), (np.bool_(True),), (2.0,), ("3",)):
            with pytest.raises(DomainError, match="seed must be an integer >= 0"):
                ExperimentConfig(seeds=seeds)
        assert ExperimentConfig(seeds=(0, np.int64(7))).seeds == (0, 7)
        for bad in (dict(nu0=-1.0), dict(nu0=0.0), dict(nu0=math.inf), dict(nu0=math.nan),
                    dict(nu0=True), dict(nu0="1.5"), dict(nu_grid=(0.5, -1.0)),
                    dict(nu_grid=(math.nan,)), dict(nu_model=(3.0, 0.0)),
                    dict(nu_model=(math.inf,)), dict(nu_model=(False,))):
            with pytest.raises(DomainError, match="must be positive and finite"):
                ExperimentConfig(**bad)
        for d in (True, 1.0, 2.0, "1"):
            with pytest.raises(DomainError, match=r"d must be an integer in \[1, 2\]"):
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


# Per setting flag: its setting, a command that reads it, the arguments the
# command needs besides, and texts to give it, valid and not.
_FLAG_TEXTS = [
    ("--seed-list", "seeds", "non-undersmoothing", ["--nu0", "1.5"],
     ["1,2", "7", "1.5", "-1", "x", "true", ","]),
    ("--d", "d", "non-undersmoothing", ["--nu0", "1.5"], ["1", "2", "x", "3", "1.0", "true"]),
    ("--nu0", "nu0", "non-undersmoothing", [], ["1.5", "2", "-1", "nan", "abc", "true"]),
    ("--schedule", "schedule", "non-undersmoothing", ["--nu0", "1.5"],
     ["16,32", "16", "16,16", "0,16", "16.5", "x"]),
    ("--f0", "f0", "non-undersmoothing", [], ["gauss_bump", "foo", "true", "1"]),
    ("--nu-grid", "nu_grid", "logdet-growth", [], ["0.5,1", "2", "1,1", "0,1", "x"]),
    ("--nu-model", "nu_model", "convergence", [], ["1,3", "2", "0", "x"]),
    ("--sigma", "sigma", "non-undersmoothing", ["--nu0", "1.5"], ["2", "0.5", "0", "true", "x"]),
    ("--lambda", "lambda_", "non-undersmoothing", ["--nu0", "1.5"], ["1", "0.3", "-1", "x"]),
    ("--design", "design", "non-undersmoothing", ["--nu0", "1.5"],
     ["van_der_corput", "uniform_grid", "foo", "3"]),
]


class TestFlagsParseAsFileLines:
    def test_every_command_takes_the_ten_setting_flags_and_four_others(self):
        commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
        want = {"-h": "help", "--config": "config", "--out": "output_path",
                "--threads": "threads", "--check": "check",
                **{flag: key for flag, key, _, _, _ in _FLAG_TEXTS}}
        for name, sub in commands.items():
            assert {a.option_strings[0]: a.dest for a in sub._actions} == want, name

    @pytest.mark.parametrize("flag,key,command,needs,text", [
        pytest.param(flag, key, command, needs, text, id=f"{flag} {text}")
        for flag, key, command, needs, texts in _FLAG_TEXTS for text in texts])
    def test_flag_text_builds_what_its_file_line_builds(
            self, flag, key, command, needs, text, tmp_path, monkeypatch, capsys):
        # ``--flag TEXT`` and the file line ``key = TEXT`` give the same
        # configuration, or the same configuration error with exit 2.
        built = []

        def runner(config):
            built.append(config)
            return ExperimentResult(header=("x",), rows=[], summary="stubbed")

        for name in ("run_non_undersmoothing", "run_logdet_growth", "run_convergence"):
            monkeypatch.setattr(cli, name, runner)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        outcomes = []
        for given in ([flag, text], ["--config", str(cfg)]):
            code = main([command, *needs, *given])
            err = capsys.readouterr().err
            outcomes.append((code, repr(built.pop()) if code == 0 else err))
        assert outcomes[0] == outcomes[1]
        code, outcome = outcomes[0]
        assert code == 0 or (code == 2 and outcome.startswith("configuration error: "))


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
        assert "configuration error: seed must be an integer >= 0, got -1" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command,extra", [("variance-decay", []),
                                               ("non-undersmoothing", ["--nu0", "1.5"])])
    def test_sigma_whose_square_overflows_exit_two(self, command, extra, tmp_path, capsys):
        # sigma = 1e200 is finite, but its square is not: the settings refuse
        # it, before any work is done and before the CSV is written.
        out = tmp_path / "out.csv"
        assert main([command, "--sigma", "1e200", "--out", str(out)] + extra) == 2
        assert not out.exists()
        assert ("configuration error: sigma**2 must be positive and finite, got inf"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, name", [
        (["variance-decay", "--nu-grid", "1,2e6"], "each entry of nu_grid"),
        (["convergence", "--nu-model", "2e6"], "each entry of nu_model"),
        (["non-undersmoothing", "--nu0", "2e6"], "nu0"),
    ])
    def test_order_above_the_bessel_ceiling_exit_two(self, argv, name, tmp_path, capsys):
        # An order the kernel refuses is refused with the settings, before
        # any work is done and before the CSV is written.
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert (f"configuration error: {name} must be at most 1e+06, got 2000000.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, nu, lambda_", [
        (["variance-decay", "--lambda", "1e-310"], "2.0", "1e-310"),
        (["non-undersmoothing", "--nu0", "1.5", "--lambda", "1e-310"], "15.0", "1e-310"),
        (["variance-decay", "--nu-grid", "0.5,1e5", "--lambda", "1e-306"], "100000.0", "1e-306"),
        (["logdet-growth", "--nu0", "1e5", "--lambda", "1e-306"], "100000.0", "1e-306"),
        (["convergence", "--nu0", "1e4", "--lambda", "1e-306"], "20000.0", "1e-306"),
        (["non-undersmoothing", "--nu0", "1e5", "--lambda", "1e-306"], "100000.0", "1e-306"),
    ])
    def test_distance_scale_that_overflows_exit_two(self, argv, nu, lambda_, tmp_path, capsys):
        # lambda_ is positive and finite, but sqrt(2 nu) / lambda_ is not at
        # the largest smoothness the run would use: the command's own
        # orders, defaults included (convergence fits 2 nu0 by default),
        # or the estimator's nu_max where the command searches.  The
        # settings refuse it, before any work is done and before the CSV is
        # written.
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert (f"configuration error: sqrt(2 nu) / lambda_ (nu={nu}, lambda_={lambda_}) "
                "must be positive and finite, got inf\n" in capsys.readouterr().err)

    def test_distance_scale_is_checked_at_the_orders_used(self):
        # At lambda_ = 2e-308 the scale is finite up to nu = 2, the largest
        # order of variance-decay's default grid, and infinite at nu_max =
        # 15, which only the commands that search read.
        _config("variance-decay", lambda_=2e-308)
        with pytest.raises(DomainError, match=r"\(nu=15.0, lambda_=2e-308\)"):
            _config("logdet-growth", lambda_=2e-308)

    @pytest.mark.parametrize("line", ["schedule = ,", "schedule =", "nu_grid = ,"])
    def test_empty_list_in_a_file_exit_two_without_csv(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert main(["variance-decay", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "configuration error: need at least one " in capsys.readouterr().err

    def test_scaled_distances_past_scipys_bessel_range_run(self, capsys):
        # At lambda = 1e-300 every scaled distance is past 2**30, where
        # SciPy's kve is NaN: the kernel still reads each entry.
        assert main(["non-undersmoothing", "--nu0", "1.5", "--lambda", "1e-300",
                     "--schedule", "16,32", "--seed-list", "1"]) == 0
        assert "-> PASS" in capsys.readouterr().out

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
        # --threads is ignored, but its value is checked as every integer
        # setting is, with the same configuration error line.
        assert main(["variance-decay", "--threads", "0"]) == 2
        assert main(["logdet-growth", "--threads", "-4"]) == 2
        assert main(["convergence", "--threads", "x"]) == 2
        assert main(["convergence", "--threads", "2.0"]) == 2
        err = capsys.readouterr().err
        for text in ("0", "-4", "'x'", "2.0"):
            assert f"configuration error: threads must be an integer >= 1, got {text}\n" in err
        assert "_thread_count" not in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 2.5\n")
        assert main(["variance-decay", "--config", str(cfg)]) == 2
        assert ("configuration error: unknown configuration keys: ['threads']"
                in capsys.readouterr().err)

    def test_the_length_scale_probe_and_its_bracket_are_gone(self, tmp_path, capsys):
        # The smoothness is the one scanned parameter: no command scans the
        # Gaussian length-scale, and its bracket is no setting.
        assert main(["gaussian-scale-probe"]) == 2
        assert "invalid choice: 'gaussian-scale-probe'" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_min = 0.1\n")
        assert main(["logdet-growth", "--config", str(cfg)]) == 2
        assert (capsys.readouterr().err
                == "configuration error: unknown configuration keys: ['lambda_min']\n")

    @pytest.mark.parametrize("command", ["verify-identities", *_RUNNERS])
    @pytest.mark.parametrize("key", ["lambda_min", "lambda_max"])
    def test_the_length_scale_bracket_is_an_unknown_key(self, command, key, tmp_path, capsys):
        # The bracket's keys are refused as any unknown key is, by every
        # command, before anything runs.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0.5\n")
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: unknown configuration keys: ['{key}']\n"

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
        ("seeds = 1.5, 2.5", "seed must be an integer >= 0, got 1.5"),
        ("seeds = true", "seed must be an integer >= 0, got True"),
        ("nu0 = nan", "nu0 must be positive and finite"),
        ("d = true", "d must be an integer in [1, 2], got True"),
    ])
    def test_bad_bracket_config_exit_two(self, line, message, tmp_path, capsys):
        # Every setting in the file is checked when the configuration is
        # built, the bracket of nu among them.
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

    def test_van_der_corput_dimension_rule_is_the_generators(self, capsys):
        # The configuration reads the rule from the generator: one message.
        with pytest.raises(DomainError) as caught:
            van_der_corput(Box.unit(2), 4)
        assert main(["non-undersmoothing", "--nu0", "1.5", "--d", "2",
                     "--design", "van_der_corput"]) == 2
        assert capsys.readouterr().err == f"configuration error: {caught.value}\n"

    @pytest.mark.parametrize("argv,message", [
        (["non-undersmoothing"], "need either a test-function label or nu0"),
        (["non-undersmoothing", "--nu0", "1.5", "--d", "2", "--design", "van_der_corput"],
         "van der Corput designs are one-dimensional"),
        (["logdet-growth", "--d", "2", "--design", "van_der_corput"],
         "van der Corput designs are one-dimensional"),
        (["convergence", "--d", "2"], "convergence does not read d, got 2"),
        (["convergence", "--schedule", "16,600"],
         "convergence needs at most 513 design points, got 600"),
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
        # An empty list is refused, as an empty seed list is, and does not
        # stand for the default.
        (["non-undersmoothing", "--nu0", "1.5", "--schedule", ","],
         "need at least one size in schedule, or leave it unset"),
        (["variance-decay", "--nu-grid", ","],
         "need at least one smoothness in nu_grid, or leave it unset"),
        (["logdet-growth", "--nu-grid", ","],
         "need at least one smoothness in nu_grid, or leave it unset"),
        (["convergence", "--nu-model", ",", "--schedule", "32,64", "--seed-list", "1"],
         "need at least one smoothness in nu_model, or leave it unset"),
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

    @pytest.mark.parametrize("probes", [1, 2, 4, 16])
    def test_convergence_without_a_positive_probe_variance_notes_it(self, probes, tmp_path):
        # A few probes, at each of which the posterior variance of
        # nu_model = 3 on 64 points is clamped to zero: the error-to-sd ratio
        # is NaN, with a note, and the run exits 0 (the larger prefixes fail
        # to factor).
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg.write_text(f"probe_count = {probes}\n")
        assert main(["convergence", "--nu-model", "3", "--lambda", "3", "--schedule",
                     "64,128,256,512", "--seed-list", "1", "--config", str(cfg),
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "nu_model", "n", "sup_error", "max_err_over_sd", "notes"]
        assert rows[1][:3] == ["1", "3", "64"] and math.isfinite(float(rows[1][3]))
        assert rows[1][4:] == ["nan", "no_positive_variance"]

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

    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            "nu_grid = 1.0\nschedule = 16,32,64\nlambda = 1.0\n"
            f"output_path = {out}\n"
        )
        assert main(["variance-decay", "--config", str(cfg)]) == 0
        assert out.exists()


def _digest_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_comparison_names_the_notes_entries_that_moved():
    # ``tools/cli_digests.py --against`` lists, for ``notes``, the keys of
    # the entries whose values differ; a bare entry is its own key.
    tool = _digest_tool()
    old = (b"n,nu_hat_ml,notes\n16,1.5,ml_failures=33;ml_irregular=3;cv_failures=33\n"
           b'32,1.25,"ml_non_unimodal;cv_error=nu=2, n=32: pivot 3"\n')
    new = (b"n,nu_hat_ml,notes\n16,1.5,ml_failures=8;cv_failures=33\n"
           b'32,1.25,"cv_error=nu=2, n=32: pivot 3"\n')
    assert tool.column_changes(old, new) == [
        "notes: 2 of 2 rows differ (ml_failures, ml_irregular, ml_non_unimodal)"]
    assert tool.column_changes(old, old) == ["identical"]


def test_digest_comparison_reports_a_removed_configuration(tmp_path, monkeypatch, capsys):
    # A name saved by an earlier ``--keep`` run that the list no longer
    # holds prints one ``removed`` line and counts as a difference, whether
    # its CSV or only its summary was saved.
    tool = _digest_tool()
    table, summary = b"n\n16\n", b"done\n"
    monkeypatch.setattr(tool, "CONFIGURATIONS", (("kept", ["verify-identities"], None),))
    monkeypatch.setattr(tool, "run", lambda *args: (0, table, summary, 0.0, 0.0))
    for name in ("kept", "dropped"):
        (tmp_path / f"{name}.csv").write_bytes(table)
        (tmp_path / f"{name}.summary").write_bytes(summary)
    (tmp_path / "failed.summary").write_bytes(summary)
    assert tool.main(["--against", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines if "removed" in line] == [
        ["dropped", "removed"], ["failed", "removed"]]
    for name in ("dropped", "failed"):
        (tmp_path / f"{name}.summary").unlink()
    (tmp_path / "dropped.csv").unlink()
    assert tool.main(["--against", str(tmp_path)]) == 0
    assert "removed" not in capsys.readouterr().out


_DIGEST_CONFIGURATIONS = _digest_tool().CONFIGURATIONS


@pytest.mark.parametrize("name,argv,lines", _DIGEST_CONFIGURATIONS,
                         ids=[name for name, *_ in _DIGEST_CONFIGURATIONS])
def test_each_digest_configuration_is_a_valid_command_line(name, argv, lines, tmp_path,
                                                           monkeypatch, capsys):
    # Every configuration of ``tools/cli_digests.py`` names a command and
    # settings that the CLI accepts, so that none digests a configuration
    # error.  The runner is replaced: only the command line is checked.
    seen = []

    def runner(config):
        seen.append(config)
        return ExperimentResult(header=("n",), rows=[], summary="checked", ok=True)

    monkeypatch.setitem(cli._COMMANDS, argv[0], runner)
    if lines is not None:
        cfg = tmp_path / "config.txt"
        cfg.write_text("\n".join(lines) + "\n")
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 0, capsys.readouterr().err
    assert [config.experiment for config in seen] == [argv[0]]
