"""Objective decomposition and oracles."""

import math

import numpy as np
import pytest

from maternsmooth.analysis import builtin_test_functions, matern_rkhs_norm_sq
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth.errors import ConditioningError, DomainError
from maternsmooth.gp import condition, condition_prefixes, incremental_variances
from maternsmooth.kernels import MaternKernel, MaternParams, STANDARD_SCALING, kernel_matrix, matern
from maternsmooth.objectives import ell_cv_from, ell_ml_from, prefix_objectives

UNIT = Box.unit(1)


def ml_objective(params, design, y):
    return ell_ml_from(condition(MaternKernel(params), design, y))


def cv_objective(params, design, y):
    return ell_cv_from(condition(MaternKernel(params), design, y))


@pytest.fixture
def instance():
    design = van_der_corput(UNIT, 12)
    y = np.random.Generator(np.random.Philox(21)).standard_normal(12)
    return design, y


class TestMlObjective:
    def test_zero_data_leaves_log_det(self, instance):
        design, _ = instance
        params = matern(1.5, sigma=1.2, lambda_=0.2)
        value = ml_objective(params, design, np.zeros(12))
        assert value.data_term == 0.0
        post = condition(MaternKernel(params), design, np.zeros(12))
        from maternsmooth.gp import log_det

        assert value.total == pytest.approx(log_det(post), rel=1e-12)

    def test_single_point(self):
        design = Design([[0.5]], UNIT)
        params = matern(1.0, sigma=1.3)
        value = ml_objective(params, design, [0.7])
        assert value.data_term == pytest.approx(0.7**2 / 1.3**2, rel=1e-12)
        assert value.complexity_term == pytest.approx(math.log(1.3**2), rel=1e-12)

    def test_dense_algebra_oracle(self, instance):
        design, y = instance
        params = matern(2.5, sigma=1.1, lambda_=0.15)
        value = ml_objective(params, design, y)
        K = kernel_matrix(MaternKernel(params), design)
        ref = float(y @ np.linalg.solve(K, y)) + float(np.linalg.slogdet(K)[1])
        assert value.total == pytest.approx(ref, rel=1e-8)

    def test_decomposition_is_exact(self, instance):
        design, y = instance
        value = ml_objective(matern(1.5, lambda_=0.2), design, y)
        assert value.total == value.data_term + value.complexity_term

    @pytest.mark.parametrize("c", [0.0, 2.0, -1.0])
    def test_data_scaling(self, instance, c):
        design, y = instance
        params = matern(1.5, lambda_=0.2)
        base = ml_objective(params, design, y)
        scaled = ml_objective(params, design, c * y)
        assert scaled.complexity_term == base.complexity_term
        assert scaled.data_term == pytest.approx(c**2 * base.data_term, rel=1e-10, abs=1e-12)


class TestCvObjective:
    def test_zero_data_leaves_log_variances(self, instance):
        design, _ = instance
        params = matern(1.5, sigma=1.2, lambda_=0.2)
        value = cv_objective(params, design, np.zeros(12))
        assert value.data_term == 0.0
        post = condition(MaternKernel(params), design, np.zeros(12))
        from maternsmooth.gp import loo

        assert value.total == pytest.approx(
            float(np.sum(np.log(loo(post).variances))), rel=1e-12)

    def test_naive_refit_oracle(self, instance):
        design, y = instance
        params = matern(1.5, sigma=1.1, lambda_=0.2)
        kernel = MaternKernel(params)
        data = complexity = 0.0
        for i in range(design.n):
            keep = [j for j in range(design.n) if j != i]
            post = condition(kernel, Design(design.points[keep], design.box), y[keep])
            from maternsmooth.gp import posterior_mean, posterior_var

            mu = float(np.atleast_1d(posterior_mean(post, design.points[i]))[0])
            var = float(np.atleast_1d(posterior_var(post, design.points[i]))[0])
            data += (y[i] - mu) ** 2 / var
            complexity += math.log(var)
        value = cv_objective(params, design, y)
        assert value.total == pytest.approx(data + complexity, abs=1e-7)

    def test_symmetric_two_point_terms_match(self):
        design = Design([[0.2], [0.8]], UNIT)
        value = cv_objective(matern(1.0, lambda_=0.5), design, [1.0, 1.0])
        # both leave-one-out terms are equal, so halving the sums recovers them
        assert value.total == pytest.approx(value.data_term + value.complexity_term)

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            cv_objective(matern(1.0), Design([[0.5]], UNIT), [1.0])
        post = condition(MaternKernel(matern(1.0)), Design([[0.5]], UNIT), [[1.0, 2.0]])
        with pytest.raises(DomainError):
            ell_cv_from(post)

    @pytest.mark.parametrize("n", [12, 64, 100])
    def test_columns_equal_each_column_alone(self, n):
        # One inverse for all columns; each value bit for bit its column's own.
        design = van_der_corput(UNIT, n)
        kernel = MaternKernel(matern(1.3, sigma=1.1, lambda_=0.3))
        y = np.random.Generator(np.random.Philox(5)).standard_normal((n, 3))
        together = ell_cv_from(condition(kernel, design, y))
        assert together.data_term.shape == (3,)
        for column, data_term in zip(y.T, together.data_term):
            alone = ell_cv_from(condition(kernel, design, column))
            assert (data_term, together.complexity_term) == (alone.data_term,
                                                             alone.complexity_term)


class TestPrefixObjectives:
    """One pass over one factor gives the objectives of every prefix."""

    SIZES = (5, 16, 32, 64, 128, 256, 512)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_each_prefix_equals_the_prefix_conditioned_alone(self, columns):
        # The C07 kernel on 512 points, whose diagonal blocks of 128 and 256
        # rows are factored and inverted by sub-panels.
        design = van_der_corput(UNIT, 512)
        kernel = MaternKernel(matern(1.5, lambda_=1.0))
        y = np.random.Generator(np.random.Philox(columns)).standard_normal((512, columns))
        for n, values in zip(self.SIZES, prefix_objectives(kernel, design, y, self.SIZES)):
            post = condition(kernel, Design(design.points[:n], UNIT), y[:n])
            for name, ell in (("ml", ell_ml_from), ("cv", ell_cv_from)):
                got, want = values[name], ell(post)
                assert np.array_equal(got.data_term, want.data_term), (name, n)
                assert got.complexity_term == want.complexity_term, (name, n)

    def test_one_vector_and_one_size_is_the_posterior_objective(self, instance):
        design, y = instance
        kernel = MaternKernel(matern(1.5, lambda_=0.3))
        (values,) = prefix_objectives(kernel, design, y, [design.n], ("ml", "cv"))
        post = condition(kernel, design, y)
        assert values == {"ml": ell_ml_from(post), "cv": ell_cv_from(post)}
        assert isinstance(values["ml"].data_term, float)

    def test_names_and_two_points_for_cross_validation(self, instance):
        design, y = instance
        kernel = MaternKernel(matern(1.5, lambda_=0.3))
        ml, cv = (prefix_objectives(kernel, design, y, [1, 2, 12], names)
                  for names in (("ml",), ("cv",)))
        assert [sorted(v) for v in ml] == [["ml"], ["ml"], ["ml"]]
        assert [sorted(v) for v in cv] == [[], ["cv"], ["cv"]]

    def test_sizes_past_a_failing_pivot_get_its_error(self):
        # Two points 1e-13 apart: the factor fails at pivot 17, and the
        # posteriors' errors are the pass's.
        points = van_der_corput(UNIT, 20).points[:, 0].copy()
        points[17] = points[3] + 1e-13
        design = Design(points, UNIT)
        kernel = MaternKernel(matern(2.5, lambda_=0.5))
        y = np.ones(design.n)
        sizes = [16, 17, 18, 20]
        got = prefix_objectives(kernel, design, y, sizes)
        posts = condition_prefixes(kernel, design, y, sizes)
        for n, values, post in zip(sizes, got, posts):
            if isinstance(post, ConditioningError):
                assert (str(values), values.pivot_index, values.pivot_value) == (
                    str(post), post.pivot_index, post.pivot_value)
            else:
                assert values == {"ml": ell_ml_from(post), "cv": ell_cv_from(post)}
        assert isinstance(got[-1], ConditioningError) and got[-1].pivot_index == 17


class TestObjectiveChainInequality:
    def test_ml_bounded_by_shifted_alternatives(self):
        # for data from a function with computable norm, the objective at the
        # generating smoothness never beats an alternative by more than the
        # squared norm plus the summed log variance ratios
        gb = builtin_test_functions()["gauss_bump"]
        nu0 = 1.5
        lam = math.sqrt(2.0)
        params0 = MaternParams(nu0, 1.0, lam, STANDARD_SCALING)
        norm_sq = matern_rkhs_norm_sq(gb, params0)
        for n in (16, 32):
            design = van_der_corput(UNIT, n)
            y = gb(design.points[:, 0])
            lhs = ml_objective(params0, design, y).total
            for nu in (0.5, 1.0):
                params = MaternParams(nu, 1.0, lam, STANDARD_SCALING)
                rhs = ml_objective(params, design, y).total + norm_sq
                v0 = incremental_variances(condition(MaternKernel(params0), design, y))
                v1 = incremental_variances(condition(MaternKernel(params), design, y))
                rhs += float(np.sum(np.log(v0 / v1)))
                assert lhs <= rhs + 1e-5
