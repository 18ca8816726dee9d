"""Bracketed smoothness estimation: scan, refinement, sweeps, profiling."""

import collections
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from maternsmooth.analysis import builtin_test_functions, sample_gp_path
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth import estimators, gp, objectives
from maternsmooth.errors import ConditioningError, DomainError, EstimationError
from maternsmooth.estimators import (
    EstimatorConfig,
    SweepRecord,
    bracketed_minimize,
    estimate_nu,
    _profiled,
    sweep_prefixes,
)
from maternsmooth.experiments import ExperimentConfig, make_design, run_non_undersmoothing
from maternsmooth.gp import condition
from maternsmooth.kernels import MaternParams
from maternsmooth.objectives import ell_cv_from, ell_ml_from

UNIT = Box.unit(1)


def ml_objective(params, design, y):
    return ell_ml_from(condition(params, design, y))


def cv_objective(params, design, y):
    return ell_cv_from(condition(params, design, y))


def recording_plans(monkeypatch):
    """Wrap ``estimators.bracketed_minimize``: the list returned gets, per
    search started, a dict of the cells it asks ``fn`` for (``"asked"``), the
    outcomes ``fn`` gives, a value or a :class:`ConditioningError` (``"sent"``)
    and, once it returns, its estimate (``"found"``)."""
    plans, search = [], estimators.bracketed_minimize

    def recording(fn, *args):
        record = {"asked": [], "sent": []}
        plans.append(record)

        def reading(theta):
            record["asked"].append(theta)
            try:
                outcome = fn(theta)
            except ConditioningError as err:
                record["sent"].append(err)
                raise
            record["sent"].append(outcome)
            return outcome

        record["found"] = search(reading, *args)
        return record["found"]

    monkeypatch.setattr(estimators, "bracketed_minimize", recording)
    return plans


def largest_prefix_rule(factored, schedule):
    """Check the rule by which a sweep factors its cells, given ``(nu,
    prefix size, sizes served, ...)`` per factorization of a cell, in call
    order, and count the factorizations per prefix size.

    The sizes run from the largest, so the prefixes factored on never grow;
    each cell is factored once, and serves every size up to its prefix.
    """
    assert len({nu for nu, *_ in factored}) == len(factored)
    assert [n for _, n, *_ in factored] == sorted((n for _, n, *_ in factored), reverse=True)
    for nu, n, sizes, *_ in factored:
        assert sizes == tuple(m for m in schedule if m <= n), nu
    return dict(collections.Counter(n for _, n, *_ in factored))


@pytest.fixture(scope="module")
def sample_instance():
    design = van_der_corput(UNIT, 128)
    y = sample_gp_path(MaternParams(1.5, 1.0, 1.0, d=1), design, seed=202)
    return design, y


class TestConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.nu_min == 0.05 and cfg.nu_max == 15.0
        assert cfg.coarse_grid == 60 and cfg.sigma == cfg.lambda_ == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(nu_min=0.0), dict(nu_min=2.0, nu_max=1.0), dict(coarse_grid=4),
        dict(nu_max=math.inf), dict(nu_min=1.0, nu_max=math.nan),
        dict(coarse_grid=10.5), dict(coarse_grid=60.0), dict(coarse_grid=True),
        dict(coarse_grid="60"),
        dict(sigma=True),
        dict(sigma=0.0), dict(sigma=math.inf), dict(lambda_=-1.0), dict(lambda_=math.nan),
        dict(sigma=1e200), dict(sigma=1e-200), dict(nu_max=1e7),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        # A string is truthy, so "no" would profile; 1 is not a bool either.
        (dict(profile_sigma="no"), "profile_sigma must be a bool, got 'no'"),
        (dict(profile_sigma=1), "profile_sigma must be a bool, got 1"),
        # True would run as 1; a string would raise a bare TypeError.
        (dict(nu_min=True), "nu_min must be positive and finite, got True"),
        (dict(nu_min="0.1"), "nu_min must be positive and finite, got '0.1'"),
        (dict(nu_max=True), "nu_max must be positive and finite, got True"),
        (dict(nu_max="15"), "nu_max must be positive and finite, got '15'"),
    ])
    def test_typed_errors(self, kwargs, message):
        with pytest.raises(DomainError) as caught:
            EstimatorConfig(**kwargs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("lambda_, nu", [(2e-308, "15.0"), (1e-310, "15.0"),
                                             (1e308, "1e-300")])
    def test_search_refuses_a_distance_scale_out_of_range(self, lambda_, nu, monkeypatch):
        # The configuration holds any positive lambda_, since a command that
        # does not search reads neither bound; the search checks
        # sqrt(2 nu) / lambda_ at both bounds before it factors a cell.
        cfg = EstimatorConfig(nu_min=1e-300, lambda_=lambda_)
        monkeypatch.setattr(estimators, "_cells", None)
        design = van_der_corput(Box.unit(1), 8)
        with pytest.raises(DomainError, match=rf"^sqrt\(2 nu\) / lambda_ \(nu={nu}, "):
            estimate_nu(design, np.ones(8), cfg)


# Bounds and coarse counts that bracketed_minimize refuses, each with its
# message.
BRACKETS = [
    (2.0, 1.0, 10, "need lo <= hi, got lo=2.0, hi=1.0"),
    (1.0, math.inf, 10, "hi must be positive and finite, got inf"),
    (1.0, math.nan, 10, "hi must be positive and finite, got nan"),
    (math.nan, 4.0, 10, "lo must be positive and finite, got nan"),
    (0.0, 4.0, 10, "lo must be positive and finite, got 0.0"),
    (-1.0, 4.0, 10, "lo must be positive and finite, got -1.0"),
    ("0.5", 3.0, 8, "lo must be positive and finite, got '0.5'"),
    (0.5, "3", 8, "hi must be positive and finite, got '3'"),
    (True, 3.0, 8, "lo must be positive and finite, got True"),
    (0.5, np.True_, 8, "hi must be positive and finite, got np.True_"),
    (1.0, 4.0, True, "n_coarse must be an integer >= 1, got True"),
    (1.0, 4.0, 0, "n_coarse must be an integer >= 1, got 0"),
    (1.0, 4.0, -3, "n_coarse must be an integer >= 1, got -3"),
    (1.0, 4.0, 2.5, "n_coarse must be an integer >= 1, got 2.5"),
    (1.0, 4.0, 10.0, "n_coarse must be an integer >= 1, got 10.0")]


class TestBracketedMinimize:
    def test_quadratic_in_log_space(self):
        fn = lambda t: (math.log(t) - math.log(3.0)) ** 2
        scan = bracketed_minimize(fn, 0.5, 20.0, 30)
        assert scan.nu_hat == pytest.approx(3.0, abs=1e-4)
        assert not scan.hit_upper_bracket and not scan.non_unimodal

    def test_tie_breaks_toward_larger(self):
        scan = bracketed_minimize(lambda t: 1.0, 1.0, 2.0, 9)
        assert scan.nu_hat == pytest.approx(2.0)
        assert scan.hit_upper_bracket

    def test_all_failures_raise(self):
        def fn(t):
            raise ConditioningError("synthetic", 0, -1.0)

        with pytest.raises(EstimationError):
            bracketed_minimize(fn, 0.1, 1.0, 10)

    @pytest.mark.parametrize("lo, hi, n_coarse, message", BRACKETS,
                             ids=["-".join(map(repr, case[:3])) for case in BRACKETS])
    def test_bracket_is_checked(self, lo, hi, n_coarse, message):
        # Each bound is one real value of errors.check_real, text and bools
        # refused, before the two are compared.
        calls = []
        with pytest.raises(DomainError) as caught:
            bracketed_minimize(lambda t: calls.append(t) or t, lo, hi, n_coarse)
        assert str(caught.value) == message
        assert not calls

    @pytest.mark.parametrize("fails", [False, True])
    def test_one_value_bracket_reads_its_cell_once(self, fails):
        # lo == hi: every coarse cell is the same value, read once.  The
        # estimate, its flags and its searchable bracket are those of the
        # full scan, which ties toward its top cell.
        asked = []

        def fn(t):
            asked.append(t)
            if fails:
                raise ConditioningError("synthetic", 0, -1.0)
            return 1.0

        if fails:
            with pytest.raises(EstimationError, match=r"could be evaluated \(1 failures\)$"):
                bracketed_minimize(fn, 0.8, 0.8, 60)
        else:
            scan = bracketed_minimize(fn, 0.8, 0.8, 60)
            assert (scan.nu_hat, scan.searchable_upper, scan.hit_upper_bracket) == (0.8, 0.8,
                                                                                   True)
            assert (scan.evaluations, scan.failures, scan.irregular_failures) == (1, (), 0)
        assert asked == [0.8]

    def test_failures_shrink_effective_bracket(self):
        def fn(t):
            if t > 5.0:
                raise ConditioningError("synthetic", 0, -1.0)
            return -t  # decreasing: minimum at the effective top

        scan = bracketed_minimize(fn, 0.5, 20.0, 20)
        assert scan.nu_hat <= 5.0
        assert scan.hit_upper_bracket
        assert len(scan.failures) > 0

    def test_two_dips_in_the_bracket_return_the_best_node(self):
        # Two dips either side of the coarse minimum at 2: the node values
        # fall, rise and fall again, so no polynomial is trusted.  The plan
        # reads cells 0 and 8, walks from 0 up to the minimum at 4 and its
        # neighbour 5, then reads the six interior nodes.
        c = math.log(2.0)

        def fn(t):
            u = math.log(t) - c
            return min((u + 0.2) ** 2, (u - 0.2) ** 2 + 1e-3) + 0.5 * u * u

        asked = []
        scan = bracketed_minimize(lambda t: fn(asked.append(t) or t), 0.5, 8.0, 9)
        grid = np.geomspace(0.5, 8.0, 9)
        inside = sorted(t for t in asked if grid[3] <= t <= grid[5])
        assert len(asked) == scan.evaluations == 7 + 6 and len(inside) == 9
        values = [fn(t) for t in inside]
        assert not all(b >= a for a, b in zip(values[values.index(min(values)):], values[1:]))
        assert scan.non_unimodal and not scan.failures
        assert (scan.nu_hat, scan.objective_at_min) == (inside[values.index(min(values))],
                                                        min(values))
        assert scan.nu_hat < 2.0  # the lower dip is the deeper one

    @pytest.mark.parametrize("bad", ["raise", "nan"])
    def test_failing_node_is_not_interpolated(self, bad):
        # The second new node of the bracket cannot be evaluated: it is
        # recorded, and the best of the other nodes and cells is returned.
        calls, nodes = [], []
        grid = np.geomspace(0.5, 20.0, 30)

        def bowl(t):
            return (math.log(t) - math.log(3.0)) ** 2

        def fn(t):
            calls.append(t)
            if t not in grid:
                nodes.append(t)
                if len(nodes) == 2:
                    if bad == "raise":
                        raise ConditioningError("injected", 0, -1.0)
                    return math.nan
            return bowl(t)

        scan = bracketed_minimize(fn, 0.5, 20.0, 30)
        assert [nu for nu, _ in scan.failures] == [nodes[1]]
        assert len(nodes) == 6 and calls[-6:] == nodes
        assert scan.non_unimodal and scan.evaluations == len(calls) == len(set(calls))
        best = min((t for t in calls if t != nodes[1]), key=bowl)
        assert (scan.nu_hat, scan.objective_at_min) == (best, bowl(best))

    def test_searchable_bracket_is_the_run_from_below(self):
        # Cells above the first failure that evaluate again are ignored: the
        # estimate saturates the top of the contiguous run.
        grid = np.geomspace(0.5, 20.0, 30)

        def fn(t):
            if grid[10] < t < grid[20] or t == grid[25]:
                raise ConditioningError("synthetic", 0, -1.0)
            return -math.log(t)  # decreasing: the best cell is the highest

        asked = []
        scan = bracketed_minimize(lambda t: fn(asked.append(t) or t), 0.5, 20.0, 30)
        assert scan.searchable_upper == scan.nu_hat == grid[10]
        assert scan.hit_upper_bracket and not scan.non_unimodal
        # The failures and the cells above the run that evaluate again are
        # counted among the cells read.
        failed = [nu for nu, _ in scan.failures]
        assert sorted(failed) == sorted(t for t in asked
                                        if grid[10] < t < grid[20] or t == grid[25])
        assert grid[11] in failed
        assert scan.irregular_failures == len([t for t in asked
                                               if t >= grid[20] and t != grid[25]]) > 0
        assert scan.evaluations == len(asked) < 30


    def test_refined_minimum_below_the_top_is_not_saturated(self):
        # The minimum lies in the last bracket, less than 1e-3 below the top
        # cell: the interpolant finds it, and it is not a saturated bracket.
        # The objective rises steeply above its minimum, so the coarse
        # minimum is the cell below the top.
        grid = np.geomspace(1.0, 1.01, 9)
        m = math.sqrt(grid[7] * grid[8])

        def fn(t):
            u = 1000.0 * math.log(t / m)
            return math.exp(u) - u

        scan = bracketed_minimize(fn, 1.0, 1.01, 9)
        assert scan.searchable_upper == grid[8]
        assert scan.nu_hat == pytest.approx(m, rel=1e-7)
        assert 0 < scan.searchable_upper - scan.nu_hat < 1e-3
        assert not scan.hit_upper_bracket and not scan.non_unimodal

    def test_best_node_below_the_top_is_not_saturated(self):
        # Node values that dip again at the highest interior node, less than
        # 1e-3 below the top cell: that node is returned, and it is not a
        # saturated bracket.
        grid = np.geomspace(1.0, 1.01, 9)
        calls, nodes = [], []

        def fn(t):
            calls.append(t)
            value = (math.log(t) - math.log(grid[7])) ** 2
            if t not in grid:
                nodes.append(t)
                return value - 1.0 if len(nodes) == 6 else value
            return value

        scan = bracketed_minimize(fn, 1.0, 1.01, 9)
        assert nodes[-1] == max(nodes) == calls[-1]
        assert scan.non_unimodal and scan.nu_hat == calls[-1]
        assert 0 < scan.searchable_upper - scan.nu_hat < 1e-3
        assert not scan.hit_upper_bracket

    @pytest.mark.parametrize("failure", ["conditioning", "profiling"])
    def test_reading_a_failed_cell_does_not_grow_its_traceback(self, sample_instance,
                                                               monkeypatch, failure):
        # A sweep's searches read a failing cell's stored error as it is: the
        # one conditioning error of every column and objective, or a
        # column's profiling error, which ends its search.  None is raised,
        # so none holds a traceback that could grow with each read.
        design, y = sample_instance
        design, profile = design.prefix(64), failure == "profiling"
        columns = np.stack([y[:64], np.zeros(64), y[:64]], axis=1)
        cfg = EstimatorConfig(lambda_=1.0, profile_sigma=profile)
        cells, compute = [], estimators._cells

        def recording(*args, **kwargs):
            out = compute(*args, **kwargs)
            cells.extend(out)
            return out

        monkeypatch.setattr(estimators, "_cells", recording)
        plans = recording_plans(monkeypatch)
        found = estimators._searches(design, columns, [16, 32, 64], cfg)
        stored = [v for cell in cells for v in cell.values() if isinstance(v, Exception)]
        stored += [v for cell in cells for values in cell.values()
                   if not isinstance(values, Exception) for v in values
                   if isinstance(v, Exception)]
        if failure == "conditioning":
            reads = {}
            for plan in plans:
                for v in plan["sent"]:
                    if isinstance(v, ConditioningError):
                        reads[id(v)] = reads.get(id(v), 0) + 1
            assert max(reads.values()) == 2 * columns.shape[1]
        else:
            ended = [by_column[1][name] for by_column in found for name in ("ml", "cv")]
            assert all(isinstance(err, EstimationError) for err in ended)
            assert all(any(err is v for v in stored) for err in ended)
        assert stored and all(err.__traceback__ is None for err in stored)


class TestEstimateNu:
    def test_zero_data_minimises_log_det(self, sample_instance):
        design, _ = sample_instance
        cfg = EstimatorConfig(nu_min=0.1, nu_max=1.5, coarse_grid=24, lambda_=0.2)
        est = estimate_nu(design.prefix(32), np.zeros(32), cfg)["ml"]
        # fine-grid oracle at 10x the coarse resolution
        fine = np.geomspace(cfg.nu_min, cfg.nu_max, 10 * cfg.coarse_grid)
        vals = [ml_objective(MaternParams(nu, 1.0, 0.2, d=1), design.prefix(32), np.zeros(32)).total
                for nu in fine]
        assert est.objective_at_min <= min(vals) + 1e-6

    def test_refinement_beats_every_coarse_cell(self, sample_instance):
        design, y = sample_instance
        cfg = EstimatorConfig(coarse_grid=16, lambda_=1.0)
        est = estimate_nu(design, y, cfg)["ml"]
        for nu in np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid):
            try:
                value = ml_objective(MaternParams(float(nu), 1.0, 1.0, d=1), design, y).total
            except ConditioningError:
                continue
            assert est.objective_at_min <= value + 1e-9

    def test_bracket_honesty(self, sample_instance):
        design, y = sample_instance
        cfg = EstimatorConfig(nu_min=0.3, nu_max=0.9, coarse_grid=12, lambda_=1.0)
        est = estimate_nu(design, y, cfg)["ml"]
        assert 0.3 <= est.nu_hat <= 0.9
        assert est.hit_upper_bracket  # truth is above this bracket

    def test_interior_estimate_does_not_flag_bracket(self, sample_instance):
        design, y = sample_instance
        est = estimate_nu(design, y, EstimatorConfig(lambda_=1.0))["ml"]
        assert 1.0 < est.nu_hat < 2.5
        assert not est.hit_upper_bracket

    def test_failures_recorded_at_large_smoothness(self, sample_instance):
        design, y = sample_instance
        est = estimate_nu(design, y, EstimatorConfig(lambda_=1.0))["ml"]
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
        est = estimate_nu(design, y, EstimatorConfig(lambda_=1.0))["cv"]
        assert 1.0 < est.nu_hat < 2.5

    def test_failed_cv_search_raises(self, sample_instance, monkeypatch):
        # Every cell fails for cross-validation alone: the ML search ends
        # well, and the CV search's error is raised.
        design, y = sample_instance

        def failing(post):
            raise ConditioningError("injected", pivot_index=0)

        monkeypatch.setattr(objectives, "loo", failing)
        with pytest.raises(EstimationError, match="could be evaluated"):
            estimate_nu(design.prefix(32), y[:32], EstimatorConfig(lambda_=1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_raises(self, sample_instance, bad):
        design, y = sample_instance
        y = y[:32].copy()
        y[5] = bad
        with pytest.raises(DomainError, match="finite"):
            estimate_nu(design.prefix(32), y, EstimatorConfig(lambda_=1.0))

    def test_irregular_failures_leave_the_searchable_run(self):
        # Two points 1e-15 apart: large orders fail, but not all of them.
        design = Design([[0.1], [0.4], [0.7], [0.7 + 1e-15]], UNIT)
        y = [1.0, -0.5, 0.3, 0.3]
        cfg = EstimatorConfig(lambda_=1.0)
        grid = np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid)
        pattern = ""
        for nu in grid:
            try:
                ml_objective(MaternParams(float(nu), 1.0, 1.0, d=1), design, y)
                pattern += "."
            except ConditioningError:
                pattern += "x"
        assert pattern == "." * 24 + "x" * 12 + "." + "x" * 3 + "." + "x" * 16 + "." + "x" * 2
        for est in estimate_nu(design, y, cfg).values():
            # The search reads every twelfth cell and the top one, then
            # bisects the gap above the run's top (cells 18, 21, 22 and 23):
            # its failures are the failing cells among them, and cell 36,
            # which evaluates again, is its irregular one.
            failed = sorted(list(grid).index(nu) for nu, _ in est.failures)
            assert failed == [24, 48, 59]
            assert est.searchable_upper == grid[23] and est.irregular_failures == 1
            assert est.nu_hat <= est.searchable_upper and est.hit_upper_bracket
        (record,) = sweep_prefixes(design, y, [4], cfg)
        assert record.notes == "ml_failures=3;ml_irregular=1;cv_failures=3;cv_irregular=1"
        assert record.searchable_upper_ml == record.searchable_upper_cv == grid[23]
        assert record.nu_hat_ml == record.searchable_upper_ml

    def test_preconditions(self):
        # Cross-validation needs two points: one point gets the ML estimate alone.
        design = Design([[0.5]], UNIT)
        assert set(estimate_nu(design, [1.0], EstimatorConfig())) == {"ml"}
        with pytest.raises(DomainError):
            estimate_nu(Design(np.zeros((0, 1)), UNIT), [], EstimatorConfig())


class TestProfileSigma:
    """The closed form ``_profiled`` that profiled estimates apply per cell."""

    def test_zero_data_degenerate(self, sample_instance):
        design, _ = sample_instance
        value = ml_objective(MaternParams(1.5, 1.0, 1.0, d=1), design.prefix(16), np.zeros(16))
        assert value.data_term == 0.0
        err = _profiled(value.data_term, value.complexity_term, 16)
        assert isinstance(err, EstimationError) and "degenerate" in str(err)

    def test_single_point_unit_kernel(self):
        # sigma^2 = y^2 for one point of unit prior variance
        design = Design([[0.5]], UNIT)
        value = ml_objective(MaternParams(1.0, 1.0, 1.0, d=1), design, [1.7])
        total = _profiled(value.data_term, value.complexity_term, 1)
        # the data term becomes n = 1, the complexity term gains n log sigma^2
        assert total == 1.0 + (math.log(value.data_term) + value.complexity_term)
        assert total == pytest.approx(1.0 + math.log(1.7**2), rel=1e-12)

    def test_matches_scalar_minimisation(self, sample_instance):
        # the closed form minimises both objectives over the magnitude
        design, y = sample_instance
        prefix, yn = design.prefix(48), y[:48]
        nu, lam = 1.2, 0.8
        for objective in (ml_objective, cv_objective):
            unit = objective(MaternParams(nu, 1.0, lam, d=1), prefix, yn)
            s2_hat = unit.data_term / prefix.n
            grid = np.geomspace(math.sqrt(s2_hat) / 3.0, math.sqrt(s2_hat) * 3.0, 4001)
            vals = [objective(MaternParams(nu, float(s), lam, d=1), prefix, yn).total for s in grid]
            best = float(grid[int(np.argmin(vals))])
            assert best**2 == pytest.approx(s2_hat, rel=1e-3)
            profiled = _profiled(unit.data_term, unit.complexity_term, prefix.n)
            assert profiled <= min(vals) + 1e-6
            direct = objective(MaternParams(nu, math.sqrt(s2_hat), lam, d=1), prefix, yn).total
            assert profiled == pytest.approx(direct, rel=1e-10)

    def test_profiled_estimation_runs(self, sample_instance):
        design, y = sample_instance
        cfg = EstimatorConfig(lambda_=1.0, profile_sigma=True)
        est = estimate_nu(design, y, cfg)["ml"]
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
        cfg = EstimatorConfig(lambda_=1.0, profile_sigma=profiled)
        records = sweep_prefixes(design, y, [48], cfg)
        est = estimate_nu(design.prefix(48), y[:48], cfg)[objective]
        assert len(records) == 1
        assert getattr(records[0], f"nu_hat_{objective}") == est.nu_hat
        assert getattr(records[0], f"ell_{objective}_min") == est.objective_at_min

    def test_record_of_one_point(self, sample_instance):
        # Cross-validation is undefined on one point: its columns are NaN
        # and unsaturated, and the note says why.  ML saturates the bracket.
        design, y = sample_instance
        (record,) = sweep_prefixes(design, y, [1], EstimatorConfig(), experiment="x",
                                   seed=202)
        assert repr(record.as_row()) == (
            "['x', 202, 1, 1.0, 15.0, nan, 0.5428874610640392, nan, True, False, 15.0, nan, "
            "'cv_undefined_n<2']")

    def test_ml_only_sweep_inverts_nothing(self, sample_instance, monkeypatch):
        # A sweep that runs ML alone gives the ML columns and notes of the
        # sweep of both, bit for bit, and NaN CV columns with no CV notes
        # (not even the one-point note); without CV no factor is inverted.
        design, y = sample_instance
        cfg, schedule = EstimatorConfig(lambda_=1.0), [1, 16, 64]
        both = sweep_prefixes(design, y, schedule, cfg, seed=202)
        inverted, invert = [], gp._invert
        monkeypatch.setattr(gp, "_invert", lambda *args: inverted.append(args) or invert(*args))
        alone = sweep_prefixes(design, y, schedule, cfg, seed=202, objectives=("ml",))
        assert not inverted
        for a, b in zip(alone, both):
            assert repr([a.nu_hat_ml, a.ell_ml_min, a.hit_upper_ml, a.searchable_upper_ml]) == (
                repr([b.nu_hat_ml, b.ell_ml_min, b.hit_upper_ml, b.searchable_upper_ml]))
            assert a.notes == ";".join(e for e in b.notes.split(";") if e.startswith("ml_"))
            assert math.isnan(a.nu_hat_cv) and math.isnan(a.ell_cv_min)
            assert math.isnan(a.searchable_upper_cv) and not a.hit_upper_cv
        assert "cv_undefined_n<2" in both[0].notes

    @pytest.mark.parametrize("chosen", [(), ("ml", "loo"), "ml"])
    def test_objectives_must_name_ml_cv_or_both(self, sample_instance, chosen):
        design, y = sample_instance
        with pytest.raises(DomainError, match="objectives must name 'ml', 'cv' or both"):
            sweep_prefixes(design, y, [16], EstimatorConfig(), objectives=chosen)

    def test_running_tail_minimum_is_monotone(self, sample_instance):
        # liminf proxy: the running minimum over the tail never decreases
        design, y = sample_instance
        records = sweep_prefixes(design, y, [16, 32, 64, 128],
                                 EstimatorConfig(lambda_=1.0))
        hats = [r.nu_hat_ml for r in records]
        tail_minima = [min(hats[i:]) for i in range(len(hats))]
        assert all(b >= a - 1e-12 for a, b in zip(tail_minima, tail_minima[1:]))

    def test_experiment_sweeps_with_the_estimator_sigma_and_lambda(self):
        # The paths are drawn, and the estimates computed, with the
        # magnitude and length-scale of the experiment's estimator.
        est = EstimatorConfig(sigma=1.3, lambda_=0.7)
        cfg = ExperimentConfig(nu0=1.5, schedule=(16, 64), seeds=(101,), estimator=est)
        design = make_design(cfg.design, cfg.d, max(cfg.schedule))
        y = sample_gp_path(MaternParams(1.5, 1.3, 0.7, d=1), design, 101)
        for row in run_non_undersmoothing(cfg).rows:
            record = SweepRecord(*row)
            prefix = design.prefix(record.n)
            assert record.nu_hat_ml == estimate_nu(prefix, y[:record.n], est)["ml"].nu_hat

    def test_ten_seed_sweep_factor_budget(self, monkeypatch):
        # The C07 configuration: ten seeds, n up to 512.  The coarse-to-fine
        # plan and shared nodes keep it to 49 factorizations: 48 search
        # cells and the path draw (84 search cells when the search read
        # every coarse cell).
        factor, calls = gp._factor, [0]

        def counting(*args):
            calls[0] += 1
            return factor(*args)

        monkeypatch.setattr(gp, "_factor", counting)
        result = run_non_undersmoothing(ExperimentConfig(nu0=1.5))
        assert len(result.rows) == 60 and calls[0] == 49

    def test_ten_seed_sweep_factors_the_generating_kernel_once(self, monkeypatch):
        # The C07 configuration factors K(nu0) for the path draw alone, on
        # all 512 points, and no search cell or node is nu0 itself.
        factor, factored = gp._factor, []

        def recording(kernel, design, buffer=None):
            factored.append((kernel.nu, design.n))
            return factor(kernel, design, buffer)

        monkeypatch.setattr(gp, "_factor", recording)
        run_non_undersmoothing(ExperimentConfig(nu0=1.5))
        assert [cell for cell in factored if cell[0] == 1.5] == [(1.5, 512)]

    def test_two_seed_sweep_factor_budget(self, monkeypatch):
        # The benchmark's sweep-1d configuration: seeds 101 and 102, n up to
        # 512.  35 factorizations, the path draw and 34 search cells, 16 of
        # them of all 512 points that succeed.
        factor, calls = gp._factor, []

        def counting(kernel, design, buffer=None):
            out = factor(kernel, design, buffer)
            calls.append(design.n == 512 and out[1] is None)
            return out

        monkeypatch.setattr(gp, "_factor", counting)
        result = run_non_undersmoothing(ExperimentConfig(nu0=1.5, seeds=(101, 102)))
        assert len(result.rows) == 12 and (len(calls), sum(calls)) == (35, 16)

    def test_two_dimensional_sweep_factors_no_cell_twice(self, monkeypatch):
        # Two seeds on the 2-d uniform grid, n = 16, 32 and 64: 47 cells, no
        # smoothness factored twice (54 when the searches of all sizes ran
        # in rounds, and five cells the 32-point searches read first were
        # factored again on 64 points).
        factored, compute = [], estimators._cells

        def recording(prefix, values, kernel, profile, sizes, *rest):
            factored.append(kernel.nu)
            return compute(prefix, values, kernel, profile, sizes, *rest)

        monkeypatch.setattr(estimators, "_cells", recording)
        result = run_non_undersmoothing(ExperimentConfig(
            nu0=1.5, d=2, design="uniform_grid", seeds=(101, 102), schedule=(16, 32, 64)))
        assert len(result.rows) == 6
        assert len(factored) == len(set(factored)) == 47

    def test_saturated_sweep_factor_budget(self, monkeypatch):
        # The benchmark's saturation-scattered configuration: the smooth bump
        # on 512 jittered van der Corput points, nu_max = 300, lambda = 0.05,
        # n from 64 to 512.  Every estimate saturates a run that ends where
        # the factorization first fails, so bisection finds each run's top:
        # 18 factorizations (20 from every eighth cell, 28 when the gaps of
        # every fourth cell were read whole).  Each is made on the largest
        # prefix whose searches ask for it, so the cells only smaller
        # prefixes read are factored on them, where 4 more succeed than on
        # all 512 points.
        base = van_der_corput(UNIT, 512).points[:, 0]
        spacing = float(np.min(np.diff(np.sort(base))))
        rng = np.random.Generator(np.random.Philox(0))
        points = np.clip(base + (2.0 * rng.random(512) - 1.0) * 0.25 * spacing, 0.0, 1.0)
        y = builtin_test_functions()["gauss_bump"](points)
        factor, calls = gp._factor, []

        def counting(kernel, design, buffer=None):
            out = factor(kernel, design, buffer)
            calls.append((design.n, out[1] is None))
            return out

        monkeypatch.setattr(gp, "_factor", counting)
        records = sweep_prefixes(Design(points, UNIT), y, (64, 128, 256, 512),
                                 EstimatorConfig(nu_max=300.0, lambda_=0.05))
        assert all(r.hit_upper_ml and r.hit_upper_cv for r in records)
        assert collections.Counter(n for n, _ in calls) == {512: 10, 256: 1, 128: 4, 64: 3}
        assert sum(ok for _, ok in calls) == 9  # 5 of them on 512 points

    def test_smooth_function_saturates_bracket(self):
        design = van_der_corput(UNIT, 64)
        gb = builtin_test_functions()["gauss_bump"]
        y = gb(design.points[:, 0])
        records = sweep_prefixes(design, y, [16, 64], EstimatorConfig(lambda_=1.0))
        assert all(r.hit_upper_ml and r.hit_upper_cv for r in records)
        # A saturated estimate is the top of its searchable bracket.
        assert all(r.nu_hat_ml == r.searchable_upper_ml and r.nu_hat_cv == r.searchable_upper_cv
                   for r in records)
        assert SweepRecord.FIELDS[-3:] == ("searchable_upper_ml", "searchable_upper_cv", "notes")

    def test_schedule_validation(self, sample_instance):
        design, y = sample_instance
        for schedule in ([32, 16], [0, 16], [16, 16], [16, 32.5]):
            with pytest.raises(DomainError, match="schedule"):
                sweep_prefixes(design, y, schedule, EstimatorConfig())
        with pytest.raises(DomainError):
            sweep_prefixes(design, y, [4096], EstimatorConfig())
        with pytest.raises(DomainError, match=re.escape(
                "y_full has shape (10,), expected (128,) or (128, s)")):
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
        second = sample_gp_path(MaternParams(0.8, 1.0, 1.0, d=1), design, seed=7)
        cfg = EstimatorConfig(lambda_=1.0, coarse_grid=24)
        together = sweep_prefixes(design, np.stack([y, second], axis=1), [16, 64], cfg,
                                  seed=(202, 7))
        assert len(together) == 4  # column after column, in schedule order
        for seed, column, records in zip((202, 7), (y, second),
                                         (together[:2], together[2:])):
            alone = sweep_prefixes(design, column, [16, 64], cfg, seed=seed)
            assert [r.seed for r in records] == [seed, seed]
            for a, b in zip(records, alone):
                assert (a.n, a.fill, a.notes) == (b.n, b.fill, b.notes)
                assert (a.hit_upper_ml, a.hit_upper_cv) == (b.hit_upper_ml, b.hit_upper_cv)
                for field in ("nu_hat_ml", "nu_hat_cv"):
                    assert abs(getattr(a, field) - getattr(b, field)) <= 1e-3
                for field in ("ell_ml_min", "ell_cv_min"):
                    assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9)

    @pytest.mark.parametrize("seed", [None, 7, (1,), (1, 2, 3)])
    def test_columns_need_one_label_each(self, sample_instance, seed):
        design, y = sample_instance
        with pytest.raises(DomainError, match="seed"):
            sweep_prefixes(design, np.stack([y, y], axis=1), [16],
                           EstimatorConfig(lambda_=1.0), seed=seed)

    @pytest.mark.parametrize("nu0", [-1.0, 0.0, math.nan, math.inf, True, "1.5"])
    def test_nu0_is_checked_before_searching(self, nu0):
        # The sweep takes no nu0: the experiment's configuration checks it
        # when it is built, before anything is drawn or searched.
        with pytest.raises(DomainError, match="nu0"):
            run_non_undersmoothing(ExperimentConfig(nu0=nu0, schedule=(16, 64), seeds=(1,)))

    def test_each_search_runs_its_plan_once(self, sample_instance, monkeypatch):
        # A two-column sweep starts one plan per size, objective and column,
        # its records carry the estimates those plans return, and a search
        # that refines its bracket interpolates its nodes once.
        design, y = sample_instance
        second = sample_gp_path(MaternParams(0.8, 1.0, 1.0, d=1), design, seed=7)
        interpolated, interpolate = [], estimators._interpolant_minimum

        def counting(values):
            interpolated.append(values)
            return interpolate(values)

        monkeypatch.setattr(estimators, "_interpolant_minimum", counting)
        plans = recording_plans(monkeypatch)
        cfg = EstimatorConfig(lambda_=1.0)
        records = sweep_prefixes(design, np.stack([y, second], axis=1), [1, 16, 64], cfg,
                                 seed=(202, 7))
        assert len(plans) == 2 * (1 + 2 + 2)  # no CV search on one point
        assert sorted(plan["found"].nu_hat for plan in plans) == sorted(
            nu for r in records for nu in (r.nu_hat_ml, r.nu_hat_cv) if not math.isnan(nu))
        grid = set(np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid).tolist())
        refined = [plan for plan in plans if set(plan["asked"]) - grid]
        assert refined and len(interpolated) == len(refined)

    @pytest.mark.parametrize("columns", [1, 2])
    def test_no_cell_is_conditioned_twice(self, sample_instance, monkeypatch, columns):
        # The sizes run from the largest, so every cell, coarse or node, is
        # factored once for every column and objective, on the prefix of the
        # largest size whose searches ask for it, and serves every size up
        # to that one.  Its factor is inverted once, for leave-one-out.
        design, y = sample_instance
        if columns == 1:
            data, seed = y, 202
        else:
            second = sample_gp_path(MaternParams(0.8, 1.0, 1.0, d=1), design, seed=7)
            data, seed = np.stack([y, second], axis=1), (202, 7)
        factored, failed, inverted = [], [], []

        def conditioning(kernel, prefix, values, sizes, workspace=None):
            values = np.asarray(values)
            factored.append((kernel.nu, prefix.n, tuple(sizes), values.shape))
            posts = gp._prefix_posteriors(kernel, prefix, values, sizes, workspace)
            failed.append([isinstance(post, ConditioningError) for post in posts])
            return posts

        def inverting(post):
            inverted.append((post.kernel.nu, post.n))
            return gp.loo(post)

        monkeypatch.setattr(estimators, "_prefix_posteriors", conditioning)
        monkeypatch.setattr(objectives, "loo", inverting)
        plans = recording_plans(monkeypatch)
        cfg = EstimatorConfig(lambda_=1.0)
        sizes = (16, 32, 64)
        records = sweep_prefixes(design, data, sizes, cfg, seed=seed)
        searches = [plan["asked"] for plan in plans]
        assert len(records) == 3 * columns
        grid = [float(nu) for nu in np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid)]
        assert all(shape == (n, columns) for _, n, _, shape in factored)
        # Factorizations per prefix size, of the coarse cells and of all.
        coarse = [f for f in factored if f[0] in grid]
        prefixes = {64: 13, 32: 4, 16: 2} if columns == 1 else {64: 19, 32: 5, 16: 3}
        assert largest_prefix_rule(coarse, sizes) == prefixes
        largest_prefix_rule(factored, sizes)
        cells = {nu for nu, *_ in coarse}
        assert cells == {nu for asked in searches for nu in asked if nu in grid}
        assert len(cells) < len(grid)
        assert len(set(inverted)) == len(inverted)
        assert {nu for nu, _ in inverted} <= {nu for nu, *_ in factored}

        # Each search asks for coarse cells, then for the nodes of its
        # bracket, each once.  The sizes run from the largest, and per size
        # the ML searches of every column run first, then the CV searches.
        asked, largest = {"ml": set(), "cv": set()}, {}
        for k, n in enumerate(reversed(sizes)):
            for i, read in enumerate(searches[2 * columns * k:2 * columns * (k + 1)]):
                refined = [nu for nu in read if nu not in grid]
                assert len(set(read)) == len(read) and read[len(read) - len(refined):] == refined
                asked["ml" if i < columns else "cv"] |= {(nu, n) for nu in refined}
                for nu in read:
                    largest.setdefault(nu, n)
        # Each cell is factored on the largest size whose searches ask for it.
        assert {nu: n for nu, n, *_ in factored} == largest
        nodes = [f for f in factored if f[0] not in grid]
        assert {nu for nu, *_ in nodes} == {nu for nu, _ in asked["ml"] | asked["cv"]}
        assert len(nodes) < len(asked["ml"] | asked["cv"])  # some node serves several sizes
        # Every node that factors is inverted, ML-only ones too.
        assert {nu for nu, _ in inverted if nu not in grid} == {nu for nu, *_ in nodes}
        if columns == 2:
            assert {nu for nu, _ in asked["ml"]} - {nu for nu, _ in asked["cv"]}

    @pytest.mark.parametrize("sizes", [(16, 64), (16, 24, 32, 48, 64, 96, 128)])
    def test_each_factor_is_inverted_once(self, sample_instance, monkeypatch, sizes):
        # Every cell, coarse or node, inverts its factor once, up to the
        # largest prefix it serves, for the leave-one-out of every prefix up
        # to the one it is factored on, and nothing else is inverted.
        design, y = sample_instance
        cfg = EstimatorConfig(lambda_=1.0)
        inverted, cells = [], []
        invert, compute = gp._invert, estimators._cells

        def inverting(chol, m, buffer=None):
            inverted.append(m)
            return invert(chol, m, buffer)

        def counting(prefix, values, kernel, profile, schedule, *rest):
            nu, before = kernel.nu, len(inverted)
            out = compute(prefix, values, kernel, profile, schedule, *rest)
            served = [n for n, cell in zip(schedule, out)
                      if not isinstance(cell["ml"], ConditioningError)]
            cells.append((nu, prefix.n, tuple(schedule), served, inverted[before:], out))
            return out

        monkeypatch.setattr(gp, "_invert", inverting)
        monkeypatch.setattr(estimators, "_cells", counting)
        sweep_prefixes(design, y, sizes, cfg, seed=1)
        grid = set(np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid).tolist())
        coarse = [cell for cell in cells if cell[0] in grid]
        assert len({cell[0] for cell in coarse}) == len(coarse) < cfg.coarse_grid
        # Each cell is handed every size up to its prefix, and a failure at
        # some size reaches the larger ones.
        assert largest_prefix_rule(coarse, sizes) == (
            {64: 13, 16: 5} if len(sizes) == 2 else {128: 13, 64: 1, 48: 1, 32: 3, 16: 2})
        for _, n, handed, served, inversions, out in cells:
            assert handed[-1] == n and len(out) == len(handed)
            assert served == list(handed[:len(served)])
            assert inversions == served[-1:]
        assert any(0 < len(served) < len(handed) for _, _, handed, served, *_ in coarse)
        assert [cell for cell in cells if cell[0] not in grid]  # some nodes
        assert len(inverted) == sum(len(cell[4]) for cell in cells)

    def test_each_served_view_reads_its_objectives_once(self, sample_instance, monkeypatch):
        # The searches read every objective through the estimators' bindings
        # of ``ell_ml_from`` and ``ell_cv_from``, once per cell and size the
        # cell's factorization serves: ML on every such size, CV from two
        # points.  A wrapper of these bindings (the benchmark's tracer) so
        # sees every objective.
        design, y = sample_instance
        second = sample_gp_path(MaternParams(0.8, 1.0, 1.0, d=1), design, seed=7)
        read, served, compute = {"ml": [], "cv": []}, {"ml": [], "cv": []}, estimators._cells

        def reading(name, ell):
            def wrapped(post):
                read[name].append((post.kernel.nu, post.n))
                return ell(post)
            return wrapped

        def counting(prefix, values, kernel, profile, sizes, *rest):
            nu, out = kernel.nu, compute(prefix, values, kernel, profile, sizes, *rest)
            for n, cell in zip(sizes, out):
                if not isinstance(cell["ml"], ConditioningError):
                    served["ml"].append((nu, n))
                    if n >= 2:
                        served["cv"].append((nu, n))
            return out

        monkeypatch.setattr(estimators, "ell_ml_from", reading("ml", ell_ml_from))
        monkeypatch.setattr(estimators, "ell_cv_from", reading("cv", ell_cv_from))
        monkeypatch.setattr(estimators, "_cells", counting)
        sweep_prefixes(design, np.stack([y, second], axis=1), [1, 16, 32, 64],
                       EstimatorConfig(lambda_=1.0), seed=(202, 7))
        for name in ("ml", "cv"):
            assert sorted(read[name]) == sorted(served[name]), name
            assert len(set(read[name])) == len(read[name]), name
        assert {n for _, n in read["ml"]} == {1, 16, 32, 64}
        assert {n for _, n in read["cv"]} == {16, 32, 64}
        assert {cell for cell in read["ml"] if cell[1] >= 2} == set(read["cv"])

    @pytest.mark.parametrize("broken", ["coarse", "refinement"])
    def test_loo_failure_fails_only_cv(self, sample_instance, monkeypatch, broken):
        # A cell whose leave-one-out inverse fails is a failure of the CV
        # search alone: the ML search still reads the cell's total.
        design, y = sample_instance
        cfg = EstimatorConfig(lambda_=1.0)
        ml = estimate_nu(design.prefix(64), y[:64], cfg)["ml"]
        (intact,) = sweep_prefixes(design, y, [64], cfg)
        grid = np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid)
        nearest = float(grid[np.argmin(np.abs(np.log(grid / ml.nu_hat)))])

        def failing(post):
            nu = post.kernel.nu
            if nu == nearest if broken == "coarse" else nu not in grid:
                raise ConditioningError(f"injected at nu={nu:g}", pivot_index=0)
            return gp.loo(post)

        monkeypatch.setattr(objectives, "loo", failing)
        (record,) = sweep_prefixes(design, y, [64], cfg)
        assert (record.nu_hat_ml, record.ell_ml_min) == (ml.nu_hat, ml.objective_at_min)

        def failures(record, name):
            notes = dict(note.split("=") for note in record.notes.split(";") if "=" in note)
            return int(notes.get(f"{name}_failures", 0))

        assert failures(record, "ml") == failures(intact, "ml") == len(ml.failures)
        assert failures(record, "cv") > failures(intact, "cv")

    def test_shared_workspace_changes_no_cell(self, sample_instance, monkeypatch):
        # Every cell of the searches writes its factor, and its inverse over
        # it, into one buffer of n**2 doubles.  A cell factored on a smaller
        # prefix after the top-size cells, and a failing cell after a
        # conditioned one, read as cells on fresh arrays, and no cell views
        # the buffer.
        design, y = sample_instance
        design, columns, cfg = design.prefix(64), y[:64, None], EstimatorConfig(lambda_=1.0)
        calls, compute = [], estimators._cells

        def recording(prefix, values, kernel, profile, sizes, workspace=None, *rest):
            out = compute(prefix, values, kernel, profile, sizes, workspace, *rest)
            calls.append((prefix.n, kernel, sizes, workspace, out))
            return out

        def exact(cell):
            return {name: str(v) if isinstance(v, Exception) else np.asarray(v).tobytes()
                    for name, v in cell.items()}

        monkeypatch.setattr(estimators, "_cells", recording)
        estimators._searches(design, columns, [16, 32, 64], cfg)
        workspace = calls[0][3]
        assert workspace.shape == (design.n**2,) and workspace.dtype == np.float64
        assert all(call[3] is workspace for call in calls)
        failed = [isinstance(call[4][-1]["ml"], ConditioningError) for call in calls]
        assert any(b and not a for a, b in zip(failed, failed[1:]))
        grid = set(np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid).tolist())
        assert any(call[0] < design.n for call in calls if call[1].nu not in grid)  # a node
        assert any(call[0] < design.n for call in calls if call[1].nu in grid)  # a coarse cell
        for n, kernel, sizes, _, out in calls:
            fresh = compute(design.prefix(n), columns[:n], kernel, cfg.profile_sigma, sizes)
            assert [exact(cell) for cell in out] == [exact(cell) for cell in fresh]
        values = [v for *_, out in calls for cell in out for v in cell.values()]
        assert any(isinstance(v, ConditioningError) for v in values)
        for value in values:
            assert not (isinstance(value, np.ndarray) and np.shares_memory(value, workspace))

    def test_each_inverse_is_written_over_its_factor(self, sample_instance, monkeypatch):
        # Each cell's leave-one-out inverse is the leading block of the
        # workspace, written over the factor, and the factor is gone.
        design, y = sample_instance
        design, columns, cfg = design.prefix(64), y[:64, None], EstimatorConfig(lambda_=1.0)
        seen, conditioning = [], gp._prefix_posteriors

        def recording(kernel, prefix, values, sizes, workspace=None):
            posts = conditioning(kernel, prefix, values, sizes, workspace)
            seen.append((posts, workspace))
            return posts

        monkeypatch.setattr(estimators, "_prefix_posteriors", recording)
        estimators._searches(design, columns, [16, 32, 64], cfg)
        workspace = seen[0][1]
        assert all(w is workspace for _, w in seen)
        # Every factorization that serves two points or more has a CV read.
        inverted = {p.factorization for posts, _ in seen for p in posts
                    if isinstance(p, gp.Posterior) and p.n >= 2}
        assert inverted
        for fact in inverted:
            assert np.shares_memory(fact.inverse(fact.top), workspace)
            with pytest.raises(DomainError, match="overwritten by its inverse"):
                fact.chol

    def test_degenerate_column_stays_in_its_column(self, sample_instance):
        # Profiling is degenerate for all-zero data: that column's searches
        # end in errors, and the other column's records are its sweep alone.
        design, y = sample_instance
        cfg = EstimatorConfig(lambda_=1.0, profile_sigma=True)
        together = sweep_prefixes(design, np.stack([y, np.zeros_like(y)], axis=1), [16, 64],
                                  cfg, seed=(202, 0))
        assert repr(together[:2]) == repr(sweep_prefixes(design, y, [16, 64], cfg, seed=202))
        for record in together[2:]:
            assert "ml_error=sigma profiling is degenerate" in record.notes
            assert "cv_error=sigma profiling is degenerate" in record.notes
            assert math.isnan(record.nu_hat_ml) and math.isnan(record.nu_hat_cv)
            assert math.isnan(record.searchable_upper_ml)
            assert math.isnan(record.searchable_upper_cv)
        # Every column of a record whose searches ended in errors: NaN
        # estimates, minima and tops, and no saturation.
        notes = ("ml_error=sigma profiling is degenerate for zero data;"
                 "cv_error=sigma profiling is degenerate for zero data")
        assert [repr(record.as_row()) for record in together[2:]] == [
            f"['', 0, {n}, {fill}, nan, nan, nan, nan, False, False, nan, nan, '{notes}']"
            for n, fill in ((16, 0.0625), (64, 0.015625))]

    def test_degenerate_column_costs_the_others_nothing(self, sample_instance, monkeypatch):
        # The all-zero column fails its own totals only: the shared coarse
        # cells still serve the healthy column, which is factored as often
        # as when it is swept alone.
        design, y = sample_instance
        cfg = EstimatorConfig(lambda_=1.0, profile_sigma=True)
        factor, calls = gp._factor, [0]

        def counting(*args):
            calls[0] += 1
            return factor(*args)

        monkeypatch.setattr(gp, "_factor", counting)
        sweep_prefixes(design, y, [16, 64], cfg, seed=202)
        alone, calls[0] = calls[0], 0
        sweep_prefixes(design, np.stack([y, np.zeros_like(y)], axis=1), [16, 64], cfg,
                       seed=(202, 0))
        assert calls[0] == alone


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
        # Every coarse cell that a search reads is factored once, on the
        # largest prefix whose searches ask for it, failed or not: 10 on all
        # 64 points, 4 that only the smaller prefixes read on 32 and one on
        # 16.  A failure reaches the larger prefixes, which never factor the
        # cell again.
        design, y, cfg = smooth_instance
        factored = []

        def counting(kernel, top, data, sizes, workspace=None):
            posts = gp._prefix_posteriors(kernel, top, data, sizes, workspace)
            factored.append((kernel.nu, top.n, tuple(sizes),
                             [isinstance(p, ConditioningError) for p in posts]))
            return posts

        monkeypatch.setattr(estimators, "_prefix_posteriors", counting)
        sweep_prefixes(design, y, self.SCHEDULE, cfg)
        grid = [float(nu) for nu in np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid)]
        coarse = [f for f in factored if f[0] in grid]
        assert largest_prefix_rule(coarse, self.SCHEDULE) == {64: 10, 32: 4, 16: 1}
        assert len({nu for nu, *_ in coarse}) == len(coarse) < len(grid)
        assert [False, True, True] in [failed for *_, failed in coarse]
        assert [False, True] in [failed for *_, failed in coarse]  # fails on 32, not 64

    def test_failure_on_a_small_prefix_reaches_the_larger_ones(self, monkeypatch):
        # Jittered van der Corput points on [0, 1], n = 64 and 128.  The
        # 128-point searches run first: a cell they read that fails before
        # pivot 64 fails on both prefixes from its one factorization, on 128
        # points, and each prefix gets an error of its own that carries the
        # factor's message and pivot.
        # The cell above the run of the 64-point searches is read by them
        # alone, so it is factored on 64 points alone.
        base = van_der_corput(UNIT, 128).points[:, 0]
        spacing = float(np.min(np.diff(np.sort(base))))
        rng = np.random.Generator(np.random.Philox(0))
        points = np.clip(base + (2.0 * rng.random(128) - 1.0) * 0.25 * spacing, 0.0, 1.0)
        design = Design(points, UNIT)
        y = builtin_test_functions()["gauss_bump"](points)
        cfg = EstimatorConfig(nu_max=300.0, lambda_=0.05)
        factored, cells, factor, compute = [], [], gp._factor, estimators._cells
        factor_errors = {}

        def factoring(kernel, design, buffer=None):
            out = factor(kernel, design, buffer)
            factored.append((kernel.nu, design.n))
            factor_errors[kernel.nu] = out[1]
            return out

        def recording(prefix, values, kernel, profile, sizes, *rest):
            out = compute(prefix, values, kernel, profile, sizes, *rest)
            cells.append((kernel.nu, prefix.n, tuple(sizes), out))
            return out

        monkeypatch.setattr(gp, "_factor", factoring)
        monkeypatch.setattr(estimators, "_cells", recording)
        first, _ = sweep_prefixes(design, y, (64, 128), cfg)
        reached = [cell for cell in cells if isinstance(cell[3][0]["ml"], ConditioningError)]
        assert len(reached) == 3
        for nu, n, sizes, (small, large) in reached[:-1]:
            assert (n, sizes) == (128, (64, 128)) and [m for v, m in factored if v == nu] == [128]
            own = factor_errors[nu]
            assert isinstance(own, ConditioningError) and own.pivot_index < 64
            for err, m in ((small["ml"], 64), (large["ml"], 128)):
                assert str(err) == f"nu={nu:g}, n={m}: {own}"
                assert (err.pivot_index, err.pivot_value) == (own.pivot_index, own.pivot_value)
            assert large["ml"] is not small["ml"]
            assert large["cv"] is large["ml"] and small["cv"] is small["ml"]
        ((nu, n, sizes, (small,)),) = reached[-1:]
        assert (n, sizes) == (64, (64,)) and [m for v, m in factored if v == nu] == [64]
        assert first.hit_upper_ml and nu > first.searchable_upper_ml
        assert str(small["ml"]).startswith(f"nu={nu:g}, n=64: ") and small["cv"] is small["ml"]
        # The record of the smaller prefix is that of its sweep alone.
        assert repr(first) == repr(sweep_prefixes(design.prefix(64), y[:64], [64], cfg)[0])

    def test_inherited_failure_names_the_first_prefix(self, smooth_instance, monkeypatch):
        # A cell that fails on 32 points fails on 64 from its one
        # factorization, on 64 points: each size's failure is the factor's
        # message headed by the order and that size, and the factor's pivot,
        # below 32, names the first prefix that fails.
        design, y, cfg = smooth_instance
        factor, factor_errors = gp._factor, {}

        def factoring(kernel, design, buffer=None):
            out = factor(kernel, design, buffer)
            factor_errors[kernel.nu] = out[1]
            return out

        monkeypatch.setattr(gp, "_factor", factoring)
        searches = estimators._searches(design, y[:, None], self.SCHEDULE, cfg)
        # one ML and one CV search per prefix, in schedule order
        scans = [(n, found[name]) for n, (found,) in zip(self.SCHEDULE, searches)
                 for name in ("ml", "cv")]
        assert all(isinstance(scan, estimators.NuEstimate) for _, scan in scans)
        at_32 = {nu: msg for n, scan in scans if n == 32 for nu, msg in scan.failures}
        inherited = [(nu, msg) for n, scan in scans if n == 64 for nu, msg in scan.failures
                     if nu in at_32]
        assert inherited
        for nu, msg in inherited:
            own = factor_errors[nu]
            assert isinstance(own, ConditioningError) and own.pivot_index < 32
            assert at_32[nu] == f"nu={nu:g}, n=32: {own}"
            assert msg == f"nu={nu:g}, n=64: {own}"


def _search_alone(design, y, n, name, config):
    """The search of one prefix and objective as it would run on its own:
    :func:`bracketed_minimize` over a closure that conditions the first
    ``n`` points anew at each smoothness.  The :class:`NuEstimate`, or the
    :class:`EstimationError` that ends the search."""
    prefix = design.prefix(n)
    sigma = 1.0 if config.profile_sigma else config.sigma
    read = {"ml": ell_ml_from, "cv": ell_cv_from}[name]

    def fn(nu):
        value = read(condition(MaternParams(nu, sigma, config.lambda_, design.d), prefix, y[:n]))
        if not config.profile_sigma:
            return value.total
        total = _profiled(value.data_term, value.complexity_term, n)
        if isinstance(total, EstimationError):
            raise total
        return total

    try:
        return bracketed_minimize(fn, config.nu_min, config.nu_max, config.coarse_grid)
    except EstimationError as err:
        return err


class TestSearches:
    """The smoothness is the one scanned parameter: ``_searches`` reads one
    table of cells for every size, objective and column."""

    SCHEDULE = (1, 2, 16, 64)

    @pytest.mark.parametrize("data,config", [
        ("path", EstimatorConfig()),
        ("path", EstimatorConfig(sigma=2.0, lambda_=0.5)),
        ("path", EstimatorConfig(nu_min=0.5, nu_max=4.0, coarse_grid=12)),
        ("path", EstimatorConfig(profile_sigma=True)),
        ("gauss_bump", EstimatorConfig(nu_max=300.0, lambda_=0.05)),
    ], ids=["default", "sigma-lambda", "narrow-bracket", "profiled", "saturating"])
    def test_estimates_equal_the_searches_on_their_own(self, sample_instance, data, config):
        design, y = sample_instance
        design = design.prefix(max(self.SCHEDULE))
        if data == "gauss_bump":
            y = builtin_test_functions()["gauss_bump"](design.points[:, 0])
        y = y[:design.n]
        searches = estimators._searches(design, y[:, None], self.SCHEDULE, config)
        for n, (found,) in zip(self.SCHEDULE, searches):
            assert sorted(found) == sorted(estimators._objective_names(n))
            for name, estimate in found.items():
                alone = _search_alone(design, y, n, name, config)
                if isinstance(alone, EstimationError):
                    assert type(estimate) is type(alone) and str(estimate) == str(alone)
                    continue
                # The failure texts name the prefix that was factored; the
                # failing smoothnesses are the same.
                assert ([nu for nu, _ in estimate.failures]
                        == [nu for nu, _ in alone.failures]), (n, name)
                assert (replace(estimate, failures=()) == replace(alone, failures=())), (n, name)
