"""Objective decomposition, oracles, and variance-ratio diagnostics."""

import math

import numpy as np
import pytest

from maternsmooth.analysis import builtin_test_functions, matern_rkhs_norm_sq
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth.errors import DomainError
from maternsmooth.gp import condition, incremental_variances
from maternsmooth.kernels import MaternKernel, MaternParams, STANDARD_SCALING, kernel_matrix, matern
from maternsmooth.objectives import ell_cv_from, ell_ml_from, variance_ratio_profile

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


class TestVarianceRatioProfile:
    def test_reference_ratio_is_one(self, instance):
        design, _ = instance
        prof = variance_ratio_profile(1.5, [1.5], design, lambda_=0.2)
        assert prof.ratios[0] == pytest.approx(1.0, abs=1e-10)

    def test_single_point_is_prior_ratio(self):
        design = Design([[0.5]], UNIT)
        prof = variance_ratio_profile(1.0, [2.0], design, sigma=1.0, lambda_=0.3)
        k0 = MaternKernel(matern(1.0, 1.0, 0.3))
        k1 = MaternKernel(matern(2.0, 1.0, 0.3))
        assert prof.ratios[0] == pytest.approx(k0(0.0) / k1(0.0), rel=1e-12)

    def test_undersmoothed_ratio_shrinks_with_n(self):
        nu0, nu = 1.5, 0.5
        des = van_der_corput(UNIT, 256)
        small = variance_ratio_profile(nu0, [nu], des.prefix(32), lambda_=1.0)
        large = variance_ratio_profile(nu0, [nu], des.prefix(256), lambda_=1.0)
        assert large.ratios[0] < small.ratios[0]

    def test_sequential_probe(self, instance):
        design, _ = instance
        prof = variance_ratio_profile(1.5, [1.5, 0.7], design, probe="sequential",
                                      lambda_=0.2)
        assert prof.ratios[0] == pytest.approx(1.0, abs=1e-10)
        k0 = MaternKernel(matern(1.5, lambda_=0.2))
        k1 = MaternKernel(matern(0.7, lambda_=0.2))
        zeros = np.zeros(design.n)
        ref = float(np.max(incremental_variances(condition(k0, design, zeros))
                           / incremental_variances(condition(k1, design, zeros))))
        assert prof.ratios[1] == pytest.approx(ref, rel=1e-10)

    def test_failures_recorded(self):
        des = van_der_corput(UNIT, 64)
        prof = variance_ratio_profile(1.0, [1.0, 12.0], des, lambda_=1.0)
        assert math.isnan(prof.ratios[1])
        assert len(prof.failures) == 1

    def test_validation(self, instance):
        design, _ = instance
        with pytest.raises(DomainError):
            variance_ratio_profile(1.0, [0.0], design)
        with pytest.raises(DomainError):
            variance_ratio_profile(1.0, [1.0], design, probe="emphatic")


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
