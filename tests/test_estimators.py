"""Bracketed smoothness estimation: scan, refinement, sweeps, profiling."""

import math

import numpy as np
import pytest

from maternsmooth.analysis import builtin_test_functions, sample_gp_path
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth import estimators
from maternsmooth.errors import ConditioningError, DomainError, EstimationError
from maternsmooth.estimators import (
    EstimatorConfig,
    bracketed_minimize,
    estimate_nu,
    _profiled,
    sweep_prefixes,
)
from maternsmooth.gp import condition, condition_prefixes
from maternsmooth.kernels import MaternKernel, matern
from maternsmooth.objectives import ell_cv_from, ell_ml_from
from maternsmooth.specfun import thread_limit

UNIT = Box.unit(1)


def ml_objective(params, design, y):
    return ell_ml_from(condition(MaternKernel(params), design, y))


def cv_objective(params, design, y):
    return ell_cv_from(condition(MaternKernel(params), design, y))


@pytest.fixture(scope="module")
def sample_instance():
    design = van_der_corput(UNIT, 128)
    y = sample_gp_path(matern(1.5, 1.0, 1.0, d=1), design, seed=202)
    return design, y


class TestConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.nu_min == 0.05 and cfg.nu_max == 15.0
        assert cfg.coarse_grid == 60 and cfg.objective == "ml"

    @pytest.mark.parametrize("kwargs", [
        dict(nu_min=0.0), dict(nu_min=2.0, nu_max=1.0), dict(coarse_grid=4),
        dict(refine_tol=0.0), dict(objective="map"),
        dict(sigma=0.0), dict(sigma=math.inf), dict(lambda_=-1.0), dict(lambda_=math.nan),
        dict(pivot_rtol=-1.0), dict(pivot_rtol=1.0), dict(pivot_rtol=math.nan),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            EstimatorConfig(**kwargs)


class TestBracketedMinimize:
    def test_quadratic_in_log_space(self):
        fn = lambda t: (math.log(t) - math.log(3.0)) ** 2
        scan = bracketed_minimize(fn, 0.5, 20.0, 30, 1e-5)
        assert scan.nu_hat == pytest.approx(3.0, abs=1e-4)
        assert not scan.hit_upper_bracket and not scan.non_unimodal

    def test_tie_breaks_toward_larger(self):
        scan = bracketed_minimize(lambda t: 1.0, 1.0, 2.0, 9, 1e-3)
        assert scan.nu_hat == pytest.approx(2.0)
        assert scan.hit_upper_bracket

    def test_all_failures_raise(self):
        def fn(t):
            raise ConditioningError("synthetic", 0, -1.0)

        with pytest.raises(EstimationError):
            bracketed_minimize(fn, 0.1, 1.0, 10, 1e-3)

    def test_failures_shrink_effective_bracket(self):
        def fn(t):
            if t > 5.0:
                raise ConditioningError("synthetic", 0, -1.0)
            return -t  # decreasing: minimum at the effective top

        scan = bracketed_minimize(fn, 0.5, 20.0, 20, 1e-3)
        assert scan.nu_hat <= 5.0
        assert scan.hit_upper_bracket
        assert len(scan.failures) > 0


class TestEstimateNu:
    def test_zero_data_minimises_log_det(self, sample_instance):
        design, _ = sample_instance
        cfg = EstimatorConfig(nu_min=0.1, nu_max=1.5, coarse_grid=24, lambda_=0.2)
        est = estimate_nu(design.prefix(32), np.zeros(32), cfg)
        # fine-grid oracle at 10x the coarse resolution
        fine = np.geomspace(cfg.nu_min, cfg.nu_max, 10 * cfg.coarse_grid)
        vals = [ml_objective(matern(nu, 1.0, 0.2, d=1), design.prefix(32), np.zeros(32)).total
                for nu in fine]
        assert est.objective_at_min <= min(vals) + 1e-6

    def test_refinement_beats_every_coarse_cell(self, sample_instance):
        design, y = sample_instance
        cfg = EstimatorConfig(coarse_grid=16, lambda_=1.0)
        est = estimate_nu(design, y, cfg)
        for nu in np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid):
            try:
                value = ml_objective(matern(float(nu), 1.0, 1.0, d=1), design, y).total
            except ConditioningError:
                continue
            assert est.objective_at_min <= value + 1e-9

    def test_bracket_honesty(self, sample_instance):
        design, y = sample_instance
        cfg = EstimatorConfig(nu_min=0.3, nu_max=0.9, coarse_grid=12, lambda_=1.0)
        est = estimate_nu(design, y, cfg)
        assert 0.3 <= est.nu_hat <= 0.9
        assert est.hit_upper_bracket  # truth is above this bracket

    def test_interior_estimate_does_not_flag_bracket(self, sample_instance):
        design, y = sample_instance
        est = estimate_nu(design, y, EstimatorConfig(lambda_=1.0))
        assert 1.0 < est.nu_hat < 2.5
        assert not est.hit_upper_bracket

    def test_failures_recorded_at_large_smoothness(self, sample_instance):
        design, y = sample_instance
        est = estimate_nu(design, y, EstimatorConfig(lambda_=1.0))
        assert est.failures
        assert all(nu > est.nu_hat for nu, _ in est.failures)

    def test_determinism(self, sample_instance):
        design, y = sample_instance
        cfg = EstimatorConfig(lambda_=1.0)
        a = estimate_nu(design, y, cfg)
        b = estimate_nu(design, y, cfg)
        assert a == b

    def test_cv_objective(self, sample_instance):
        design, y = sample_instance
        est = estimate_nu(design, y, EstimatorConfig(objective="cv", lambda_=1.0))
        assert 1.0 < est.nu_hat < 2.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_raises(self, sample_instance, bad):
        design, y = sample_instance
        y = y[:32].copy()
        y[5] = bad
        with pytest.raises(DomainError, match="finite"):
            estimate_nu(design.prefix(32), y, EstimatorConfig(lambda_=1.0))

    def test_preconditions(self):
        design = Design([[0.5]], UNIT)
        with pytest.raises(DomainError):
            estimate_nu(design, [1.0], EstimatorConfig(objective="cv"))
        with pytest.raises(DomainError):
            estimate_nu(Design(np.zeros((0, 1)), UNIT), [], EstimatorConfig())


class TestProfileSigma:
    """The closed form ``_profiled`` that profiled estimates apply per cell."""

    def test_zero_data_degenerate(self, sample_instance):
        design, _ = sample_instance
        value = ml_objective(matern(1.5, 1.0, 1.0, d=1), design.prefix(16), np.zeros(16))
        assert value.data_term == 0.0
        with pytest.raises(EstimationError, match="degenerate"):
            _profiled(value, 16)

    def test_single_point_unit_kernel(self):
        # sigma^2 = y^2 for one point of unit prior variance
        design = Design([[0.5]], UNIT)
        value = _profiled(ml_objective(matern(1.0, 1.0, 1.0, d=1), design, [1.7]), 1)
        assert value.data_term == 1.0
        assert value.total == pytest.approx(1.0 + math.log(1.7**2), rel=1e-12)

    def test_matches_scalar_minimisation(self, sample_instance):
        # the closed form minimises both objectives over the magnitude
        design, y = sample_instance
        prefix, yn = design.prefix(48), y[:48]
        nu, lam = 1.2, 0.8
        for objective in (ml_objective, cv_objective):
            unit = objective(matern(nu, 1.0, lam, d=1), prefix, yn)
            s2_hat = unit.data_term / prefix.n
            grid = np.geomspace(math.sqrt(s2_hat) / 3.0, math.sqrt(s2_hat) * 3.0, 4001)
            vals = [objective(matern(nu, float(s), lam, d=1), prefix, yn).total for s in grid]
            best = float(grid[int(np.argmin(vals))])
            assert best**2 == pytest.approx(s2_hat, rel=1e-3)
            profiled = _profiled(unit, prefix.n).total
            assert profiled <= min(vals) + 1e-6
            direct = objective(matern(nu, math.sqrt(s2_hat), lam, d=1), prefix, yn).total
            assert profiled == pytest.approx(direct, rel=1e-10)

    def test_profiled_estimation_runs(self, sample_instance):
        design, y = sample_instance
        cfg = EstimatorConfig(lambda_=1.0, profile_sigma=True)
        est = estimate_nu(design, y, cfg)
        assert 0.8 < est.nu_hat < 3.0

    def test_profiled_zero_data_raises(self, sample_instance):
        design, _ = sample_instance
        cfg = EstimatorConfig(lambda_=1.0, profile_sigma=True)
        with pytest.raises(EstimationError):
            estimate_nu(design.prefix(16), np.zeros(16), cfg)


class TestSweeps:
    @pytest.mark.parametrize("objective,profiled", [
        ("ml", False), ("ml", True), ("cv", False), ("cv", True),
    ])
    def test_singleton_schedule_reduces_to_estimate(self, sample_instance, objective,
                                                    profiled):
        design, y = sample_instance
        cfg = EstimatorConfig(lambda_=1.0, objective=objective, profile_sigma=profiled)
        records = sweep_prefixes(design, y, [48], cfg)
        est = estimate_nu(design.prefix(48), y[:48], cfg)
        assert len(records) == 1
        assert getattr(records[0], f"nu_hat_{objective}") == est.nu_hat
        assert getattr(records[0], f"ell_{objective}_min") == est.objective_at_min

    def test_running_tail_minimum_is_monotone(self, sample_instance):
        # liminf proxy: the running minimum over the tail never decreases
        design, y = sample_instance
        records = sweep_prefixes(design, y, [16, 32, 64, 128],
                                 EstimatorConfig(lambda_=1.0))
        hats = [r.nu_hat_ml for r in records]
        tail_minima = [min(hats[i:]) for i in range(len(hats))]
        assert all(b >= a - 1e-12 for a, b in zip(tail_minima, tail_minima[1:]))

    def test_ratio_diagnostic_present_with_nu0(self, sample_instance):
        design, y = sample_instance
        records = sweep_prefixes(design, y, [16, 64], EstimatorConfig(lambda_=1.0),
                                 nu0=1.5, seed=202)
        assert all(math.isfinite(r.max_loo_var_ratio) for r in records)
        assert all(r.seed == 202 for r in records)

    def test_smooth_function_saturates_bracket(self):
        design = van_der_corput(UNIT, 64)
        gb = builtin_test_functions()["gauss_bump"]
        y = gb(design.points[:, 0])
        records = sweep_prefixes(design, y, [16, 64], EstimatorConfig(lambda_=1.0))
        assert all(r.hit_upper_ml and r.hit_upper_cv for r in records)

    def test_schedule_validation(self, sample_instance):
        design, y = sample_instance
        with pytest.raises(DomainError):
            sweep_prefixes(design, y, [32, 16], EstimatorConfig())
        with pytest.raises(DomainError):
            sweep_prefixes(design, y, [4096], EstimatorConfig())
        with pytest.raises(DomainError):
            sweep_prefixes(design, y[:10], [16], EstimatorConfig())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_raises(self, sample_instance, bad):
        design, y = sample_instance
        y = y.copy()
        y[100] = bad  # beyond the only prefix: all of y_full must be finite
        with pytest.raises(DomainError, match="finite"):
            sweep_prefixes(design, y, [16], EstimatorConfig(lambda_=1.0))

    def test_columns_swept_together_match_single_sweeps(self, sample_instance):
        design, y = sample_instance
        second = sample_gp_path(matern(0.8, 1.0, 1.0, d=1), design, seed=7)
        cfg = EstimatorConfig(lambda_=1.0, coarse_grid=24)
        together = sweep_prefixes(design, np.stack([y, second], axis=1), [16, 64], cfg,
                                  nu0=1.5, seed=(202, 7))
        assert len(together) == 4  # column after column, in schedule order
        for seed, column, records in zip((202, 7), (y, second),
                                         (together[:2], together[2:])):
            alone = sweep_prefixes(design, column, [16, 64], cfg, nu0=1.5, seed=seed)
            assert [r.seed for r in records] == [seed, seed]
            for a, b in zip(records, alone):
                assert (a.n, a.fill, a.notes) == (b.n, b.fill, b.notes)
                assert (a.hit_upper_ml, a.hit_upper_cv) == (b.hit_upper_ml, b.hit_upper_cv)
                for field in ("nu_hat_ml", "nu_hat_cv"):
                    assert abs(getattr(a, field) - getattr(b, field)) <= cfg.refine_tol
                for field in ("ell_ml_min", "ell_cv_min", "max_loo_var_ratio"):
                    assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9)

    @pytest.mark.parametrize("seed", [None, 7, (1,), (1, 2, 3)])
    def test_columns_need_one_label_each(self, sample_instance, seed):
        design, y = sample_instance
        with pytest.raises(DomainError, match="seed"):
            sweep_prefixes(design, np.stack([y, y], axis=1), [16],
                           EstimatorConfig(lambda_=1.0), seed=seed)

    @pytest.mark.parametrize("columns", [1, 2])
    def test_no_cell_is_conditioned_twice(self, sample_instance, monkeypatch, columns):
        # A coarse cell is factored once for the whole sweep, on its largest
        # prefix; a refinement cell once per prefix and column, shared by the
        # ML and CV searches of the column.
        design, y = sample_instance
        if columns == 1:
            data, seed, nu0 = y, 202, 1.5
        else:
            second = sample_gp_path(matern(0.8, 1.0, 1.0, d=1), design, seed=7)
            data, seed, nu0 = np.stack([y, second], axis=1), (202, 7), None
        factored = []

        def counting(kernel, prefix, values, sizes, pivot_rtol):
            values = np.asarray(values)
            factored.append((kernel.params.nu, prefix.n, tuple(sizes), values.shape,
                             values.tobytes()))
            return condition_prefixes(kernel, prefix, values, sizes, pivot_rtol)

        monkeypatch.setattr(estimators, "condition_prefixes", counting)
        cfg = EstimatorConfig(lambda_=1.0)
        records = sweep_prefixes(design, data, [16, 32, 64], cfg, nu0=nu0, seed=seed)
        assert len(records) == 3 * columns
        grid = [float(nu) for nu in np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid)]
        sizes = (16, 32, 64)
        coarse = [f[:4] for f in factored if f[2] == sizes]
        assert coarse == [(nu, 64, sizes, (64, columns)) for nu in grid] + (
            [] if nu0 is None else [(nu0, 64, sizes, (64,))])  # the variances at nu0
        refined = [f for f in factored if f[2] != sizes]
        assert {(n, ns) for _, n, ns, _, _ in refined} == {(n, (n,)) for n in sizes}
        assert len(set(refined)) == len(refined)


class TestPrefixRule:
    """A coarse cell that fails on one prefix is not conditioned on larger ones."""

    SCHEDULE = (16, 32, 64)

    @pytest.fixture(scope="class")
    def smooth_instance(self):
        # Jittered van der Corput points on [0, 1/2]: dense enough for
        # lambda = 0.05 that the high-order cells first fail on the prefix
        # of 32 points, not only on the full design.
        box = Box((0.0,), (0.5,))
        base = van_der_corput(box, 64).points[:, 0]
        spacing = float(np.min(np.diff(np.sort(base))))
        rng = np.random.Generator(np.random.Philox(0))
        points = np.clip(base + (2.0 * rng.random(64) - 1.0) * 0.25 * spacing, 0.0, 0.5)
        y = builtin_test_functions()["gauss_bump"](points)
        return Design(points, box), y, EstimatorConfig(nu_max=300.0, lambda_=0.05)

    def test_records_equal_each_prefix_swept_alone(self, smooth_instance):
        design, y, cfg = smooth_instance
        records = sweep_prefixes(design, y, self.SCHEDULE, cfg)
        assert "ml_failures=" in records[1].notes and "ml_failures=" in records[2].notes
        for record, n in zip(records, self.SCHEDULE):
            assert repr(record) == repr(sweep_prefixes(design, y, [n], cfg)[0])

    def test_failed_coarse_cells_are_not_conditioned_again(self, smooth_instance,
                                                           monkeypatch):
        # Every coarse cell is factored once, on the largest prefix, failed or
        # not; refinement conditions no coarse cell.
        design, y, cfg = smooth_instance
        factored = []

        def counting(kernel, top, data, sizes, pivot_rtol):
            posts = condition_prefixes(kernel, top, data, sizes, pivot_rtol)
            factored.append((kernel.params.nu, top.n, tuple(sizes),
                             [isinstance(p, ConditioningError) for p in posts]))
            return posts

        monkeypatch.setattr(estimators, "condition_prefixes", counting)
        sweep_prefixes(design, y, self.SCHEDULE, cfg)
        grid = [float(nu) for nu in np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid)]
        coarse = [f for f in factored if f[2] == self.SCHEDULE]
        assert [(nu, n) for nu, n, _, _ in coarse] == [(nu, 64) for nu in grid]
        assert not {nu for nu, _, sizes, _ in factored if sizes != self.SCHEDULE} & set(grid)
        assert [False, True, True] in [failed for *_, failed in coarse]


    def test_inherited_failure_names_the_first_prefix(self, smooth_instance, monkeypatch):
        design, y, cfg = smooth_instance
        found = []

        def recording(fn, *args):
            scan = bracketed_minimize(fn, *args)
            found.append(scan)
            return scan

        monkeypatch.setattr(estimators, "bracketed_minimize", recording)
        sweep_prefixes(design, y, self.SCHEDULE, cfg)
        # one ML and one CV search per prefix, in schedule order
        assert len(found) == 2 * len(self.SCHEDULE)
        scans = list(zip((n for n in self.SCHEDULE for _ in ("ml", "cv")), found))
        at_32 = {nu: msg for n, scan in scans if n == 32 for nu, msg in scan.failures}
        inherited = [(nu, msg) for n, scan in scans if n == 64 for nu, msg in scan.failures
                     if "failed on prefix" in msg]
        assert inherited
        for nu, msg in inherited:
            assert msg.startswith(f"nu={nu:g}, n=64: failed on prefix n=32: pivot ")
            pivot = msg.split("failed on prefix n=32: ")[1]
            assert at_32[nu].startswith(f"nu={nu:g}, n=32: ") and pivot in at_32[nu]


def test_sweep_does_not_depend_on_threads():
    # Jittered van der Corput points with distinct distances, two data
    # columns: the panel of points 129..256 evaluates kve on 24k distances.
    base = van_der_corput(UNIT, 256).points[:, 0]
    spacing = float(np.min(np.diff(np.sort(base))))
    rng = np.random.Generator(np.random.Philox(3))
    points = np.clip(base + (2.0 * rng.random(256) - 1.0) * 0.25 * spacing, 0.0, 1.0)
    design = Design(points, UNIT)
    f = builtin_test_functions()["gauss_bump"](points)
    y = np.column_stack([f, np.sin(5.0 * points)])
    cfg = EstimatorConfig(nu_max=60.0, lambda_=0.1)
    with thread_limit(1):
        one = sweep_prefixes(design, y, (64, 256), cfg, seed=(1, 2))
    every = sweep_prefixes(design, y, (64, 256), cfg, seed=(1, 2))
    assert repr(one) == repr(every)
