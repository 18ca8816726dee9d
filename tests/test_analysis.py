"""Test-function catalog, RKHS-norm quadrature, sampling, rate fits."""

import math

import numpy as np
import pytest

from maternsmooth.analysis import (
    QuadratureConfig,
    bump_function,
    builtin_test_functions,
    fit_rate,
    fourier_reconstruction,
    gaussian_rkhs_norm_sq,
    matern_rkhs_norm_sq,
    sample_gp_path,
    sobolev_norm_sq,
)
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth.errors import AccuracyError, DomainError
from maternsmooth.kernels import (
    MaternKernel,
    MaternParams,
    STANDARD_SCALING,
    log_c_scaling,
    matern,
)
from maternsmooth.specfun import log_gamma

UNIT = Box.unit(1)
SQRT2 = math.sqrt(2.0)
CATALOG = builtin_test_functions()


class TestCatalog:
    def test_cauchy_like_at_zero(self):
        assert CATALOG["cauchy_like"](0.0) == pytest.approx(4.0)

    def test_gauss_bump_at_zero(self):
        assert CATALOG["gauss_bump"](0.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)

    @pytest.mark.parametrize("label", ["cauchy_like", "gauss_bump"])
    def test_transform_matches_evaluator(self, label):
        # inverse-transform quadrature at 10 probe points
        tf = CATALOG[label]
        xs = np.linspace(-3.0, 3.0, 10)
        rec = fourier_reconstruction(tf, xs)
        np.testing.assert_allclose(rec, tf(xs), atol=1e-6)

    def test_zero_function(self):
        z = CATALOG["zero"]
        assert np.all(z(np.linspace(-1, 1, 7)) == 0.0)
        assert matern_rkhs_norm_sq(z, MaternParams(1.0, 1.0, SQRT2, STANDARD_SCALING)) == 0.0
        assert gaussian_rkhs_norm_sq(z, SQRT2).value == 0.0


class TestBump:
    def test_normalised_peak(self):
        b = bump_function(0.0, 1.0)
        assert b(0.0) == pytest.approx(1.0)

    def test_support_boundary(self):
        b = bump_function(0.25, 0.5)
        assert b(0.75) == 0.0
        assert b(0.9) == 0.0

    def test_half_radius_value(self):
        b = bump_function(0.0, 1.0)
        assert b(0.5) == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-12)

    def test_multidimensional_support(self):
        b = bump_function([0.5, 0.5], 0.25)
        vals = b(np.array([[0.5, 0.5], [0.74, 0.5], [0.8, 0.8]]))
        assert vals[0] == pytest.approx(1.0)
        assert 0.0 < vals[1] < 1.0
        assert vals[2] == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            bump_function(0.0, 0.0)


class TestMaternNorm:
    def test_gamma_lower_bound_for_cauchy_like(self):
        tf = CATALOG["cauchy_like"]
        for nu in (1.0, 2.0, 4.0):
            params = MaternParams(nu, 1.0, SQRT2, STANDARD_SCALING)
            value = matern_rkhs_norm_sq(tf, params)
            bound = (2.0 * math.sqrt(math.pi)
                     * math.exp(log_gamma(nu) + log_gamma(2.0 * nu + 2.0)
                                - log_gamma(nu + 0.5)) * nu**-nu)
            assert value >= bound

    def test_gauss_bump_norm_bounded_at_large_smoothness(self):
        tf = CATALOG["gauss_bump"]
        value = matern_rkhs_norm_sq(tf, MaternParams(64.0, 1.0, SQRT2, STANDARD_SCALING))
        assert value <= math.pi * 1.05

    def test_monotone_in_smoothness_for_cauchy_like(self):
        tf = CATALOG["cauchy_like"]
        vals = [matern_rkhs_norm_sq(tf, MaternParams(nu, 1.0, SQRT2, STANDARD_SCALING))
                for nu in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_node_doubling_stability(self):
        tf = CATALOG["gauss_bump"]
        params = MaternParams(1.5, 1.0, SQRT2, STANDARD_SCALING)
        v1 = matern_rkhs_norm_sq(tf, params, QuadratureConfig(nodes=12))
        v2 = matern_rkhs_norm_sq(tf, params, QuadratureConfig(nodes=24))
        assert v2 == pytest.approx(v1, rel=1e-6)

    def test_sobolev_sandwich(self):
        # C_nu min(1, c) ||f||_H^2 <= ||f||_nu^2 <= C_nu max(1, c) ||f||_H^2
        # with c = (2 nu / lambda^2)^(nu + 1/2)
        tf = CATALOG["gauss_bump"]
        for nu in (0.5, 1.5):
            lam = SQRT2
            params = MaternParams(nu, 1.0, lam, STANDARD_SCALING)
            c = (2.0 * nu / lam**2) ** (nu + 0.5)
            log_c_nu = (0.5 * math.log(math.pi)
                        - log_c_scaling(STANDARD_SCALING, nu)
                        - (nu - 1.0) * math.log(2.0)
                        - log_gamma(nu + 0.5)
                        + nu * math.log(lam**2 / (2.0 * nu)))
            c_nu = math.exp(log_c_nu)
            sob = sobolev_norm_sq(tf, nu + 0.5)
            val = matern_rkhs_norm_sq(tf, params)
            assert c_nu * min(1.0, c) * sob <= val <= c_nu * max(1.0, c) * sob

    def test_tail_violation_raises(self):
        tf = CATALOG["cauchy_like"]
        params = MaternParams(2.0, 1.0, SQRT2, STANDARD_SCALING)
        with pytest.raises(AccuracyError):
            matern_rkhs_norm_sq(tf, params, QuadratureConfig(truncation=6.0))

    def test_missing_transform_raises(self):
        b = bump_function(0.0, 1.0)
        with pytest.raises(DomainError):
            matern_rkhs_norm_sq(b, MaternParams(1.0, 1.0, SQRT2, STANDARD_SCALING))


class TestGaussianNorm:
    def test_membership_integral_value(self):
        res = gaussian_rkhs_norm_sq(CATALOG["gauss_bump"], SQRT2)
        assert not res.diverged
        assert res.integral == pytest.approx(math.sqrt(math.pi), abs=1e-6)
        assert res.value == pytest.approx(res.integral / math.sqrt(4.0 * math.pi))

    def test_divergence_flag_for_cauchy_like(self):
        res = gaussian_rkhs_norm_sq(CATALOG["cauchy_like"], SQRT2)
        assert res.diverged
        assert res.value is None

    def test_validation(self):
        with pytest.raises(DomainError):
            gaussian_rkhs_norm_sq(CATALOG["gauss_bump"], 0.0)


class TestSamplePaths:
    def test_deterministic(self):
        design = van_der_corput(UNIT, 32)
        params = matern(1.5, 1.0, 1.0, d=1)
        a = sample_gp_path(params, design, seed=7)
        b = sample_gp_path(params, design, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample_gp_path(params, design, seed=8)
        assert not np.array_equal(a, c)

    def test_frozen_draw_values(self):
        # counter-based generator: values are stable across platforms
        design = van_der_corput(UNIT, 4)
        params = matern(0.5, 1.0, 1.0, d=1)
        path = sample_gp_path(params, design, seed=1234)
        z = np.random.Generator(np.random.Philox(1234)).standard_normal(4)
        assert path[0] == pytest.approx(z[0], rel=1e-12)

    def test_prefix_consistency(self):
        design = van_der_corput(UNIT, 512)
        params = matern(1.5, 1.0, 1.0, d=1)
        full = sample_gp_path(params, design, seed=99)
        for n in (16, 32, 64, 128, 256):
            short = sample_gp_path(params, Design(design.points[:n], UNIT), seed=99)
            assert np.array_equal(full[:n], short), n

    def test_moments(self):
        design = Design([[0.1], [0.35], [0.8]], UNIT)
        params = matern(1.5, sigma=1.3, lambda_=0.7, d=1)
        draws = np.stack([sample_gp_path(params, design, seed=s) for s in range(10_000)])
        var1 = float(np.var(draws[:, 0]))
        assert var1 == pytest.approx(1.3**2, rel=0.05)
        cov12 = float(np.mean(draws[:, 0] * draws[:, 1]))
        kernel = MaternKernel(params)
        assert cov12 == pytest.approx(kernel(0.25), rel=0.05)


class TestFitRate:
    def test_exact_power_law(self):
        ns = [4, 8, 16, 32, 64]
        fit = fit_rate(ns, [float(n) ** -2 for n in ns])
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_values(self):
        fit = fit_rate([4, 8, 16], [3.0, 3.0, 3.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        ns = np.array([8, 16, 32, 64, 128, 256])
        vals = 3.0 * ns**-1.5 * (1.0 + 0.01 * rng.standard_normal(ns.size))
        fit = fit_rate(ns, vals)
        assert fit.slope == pytest.approx(-1.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(DomainError):
            fit_rate([2, 4], [1.0, 0.5])
        with pytest.raises(DomainError):
            fit_rate([2, 4, 8], [1.0, -0.5, 0.2])
