"""Test-function catalog, RKHS-norm quadrature, sampling, rate fits."""

import dataclasses
import math

import numpy as np
import pytest

from maternsmooth import analysis
from maternsmooth.analysis import (
    QuadratureConfig,
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
    MaternParams,
    log_c_scaling,
)
from maternsmooth.specfun import log_gamma

UNIT = Box.unit(1)
SQRT2 = math.sqrt(2.0)
CATALOG = builtin_test_functions()

# Matern norms (label, nu, lambda) and Gaussian norms (lambda) of the
# catalog as hex floats, taken on x86-64 Linux with NumPy 2.4 and SciPy
# 1.17.  The quadrature adds its terms with math.fsum, which rounds their
# exact sum once, so the bits do not depend on the BLAS thread count; the
# terms come from NumPy's exp and log, which another build may round
# differently.  The Gaussian norm at lambda = 1 is 1/sqrt(3) correctly
# rounded.
MATERN_NORMS = [
    ("cauchy_like", 0.5, 0.5, "0x1.7413482ea761dp+9"),
    ("cauchy_like", 0.5, SQRT2, "0x1.b67eb65a99535p+9"),
    ("cauchy_like", 1.5, 0.5, "0x1.423a07a8f8401p+9"),
    ("cauchy_like", 1.5, SQRT2, "0x1.10270f5c6a4b6p+11"),
    ("cauchy_like", 4.0, 0.5, "0x1.6079b478f961dp+9"),
    ("cauchy_like", 4.0, SQRT2, "0x1.04088d17c64c9p+17"),
    ("cauchy_like", 16.0, 0.5, "0x1.f961b5c59eef9p+18"),
    ("cauchy_like", 16.0, SQRT2, "0x1.28676a0f61a26p+64"),
    ("cauchy_like", 64.0, 0.5, "0x1.2ddf79c24ba3fp+154"),
    ("cauchy_like", 64.0, SQRT2, "0x1.9628b18bbc9bdp+343"),
    ("gauss_bump", 0.5, 0.5, "0x1.0bbe4d6f93c7bp+3"),
    ("gauss_bump", 0.5, SQRT2, "0x1.0b479d4af614fp+2"),
    ("gauss_bump", 1.5, 0.5, "0x1.c7386b9f4f86cp+2"),
    ("gauss_bump", 1.5, SQRT2, "0x1.b5391c7b21d34p+1"),
    ("gauss_bump", 4.0, 0.5, "0x1.ae0eee695a2f7p+2"),
    ("gauss_bump", 4.0, SQRT2, "0x1.9b30e21273345p+1"),
    ("gauss_bump", 16.0, 0.5, "0x1.a2f5da9a2eb2fp+2"),
    ("gauss_bump", 16.0, SQRT2, "0x1.931a1ecbd0c04p+1"),
    ("gauss_bump", 64.0, 0.5, "0x1.a0389e921dde2p+2"),
    ("gauss_bump", 64.0, SQRT2, "0x1.9233882e6a32cp+1"),
]
GAUSSIAN_NORMS = [
    (0.25, "0x1.02061446ffa9ap+1"),
    (0.5, "0x1.08654a2d4f6dbp+0"),
    (1.0, "0x1.279a74590331cp-1"),
    (SQRT2, "0x1.ffffffffffffep-2"),
    (1.9, "0x1.af80d40af7206p-1"),
]


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

    @pytest.mark.parametrize("label", sorted(CATALOG))
    @pytest.mark.parametrize("x, message", [
        ("0.5", "x must be integer or floating numbers, got '0.5'"),
        (True, "x must be integer or floating numbers, got True"),
        ([0.1, math.nan], "x must be finite, got [0.1, nan]"),
    ])
    def test_arguments_are_finite_reals(self, label, x, message):
        for read in (CATALOG[label], lambda x: fourier_reconstruction(CATALOG[label], x)):
            with pytest.raises(DomainError) as caught:
                read(x)
            assert str(caught.value) == message

    def test_zero_function(self):
        z = CATALOG["zero"]
        assert np.all(z(np.linspace(-1, 1, 7)) == 0.0)
        assert matern_rkhs_norm_sq(z, MaternParams(1.0, 1.0, SQRT2)) == 0.0
        assert gaussian_rkhs_norm_sq(z, SQRT2).value == 0.0


class TestMaternNorm:
    def test_gamma_lower_bound_for_cauchy_like(self):
        tf = CATALOG["cauchy_like"]
        for nu in (1.0, 2.0, 4.0):
            params = MaternParams(nu, 1.0, SQRT2)
            value = matern_rkhs_norm_sq(tf, params)
            bound = (2.0 * math.sqrt(math.pi)
                     * math.exp(log_gamma(nu) + log_gamma(2.0 * nu + 2.0)
                                - log_gamma(nu + 0.5)) * nu**-nu)
            assert value >= bound

    def test_gauss_bump_norm_bounded_at_large_smoothness(self):
        tf = CATALOG["gauss_bump"]
        value = matern_rkhs_norm_sq(tf, MaternParams(64.0, 1.0, SQRT2))
        assert value <= math.pi * 1.05

    def test_order_past_the_largest_rule_is_refused(self):
        # The default truncation 8 (nu + 1) + 80 needs 1.9e8 nodes at nu =
        # 1e6, which held more memory than the machine had.
        with pytest.raises(DomainError) as caught:
            matern_rkhs_norm_sq(CATALOG["gauss_bump"], MaternParams(1e6))
        assert str(caught.value) == ("truncation 8.00009e+06 needs 1.92002e+08 quadrature "
                                     "nodes, more than 1048576")

    def test_monotone_in_smoothness_for_cauchy_like(self):
        tf = CATALOG["cauchy_like"]
        vals = [matern_rkhs_norm_sq(tf, MaternParams(nu, 1.0, SQRT2))
                for nu in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_node_doubling_stability(self):
        tf = CATALOG["gauss_bump"]
        params = MaternParams(1.5, 1.0, SQRT2)
        v1 = matern_rkhs_norm_sq(tf, params, QuadratureConfig(nodes=12))
        v2 = matern_rkhs_norm_sq(tf, params, QuadratureConfig(nodes=24))
        assert v2 == pytest.approx(v1, rel=1e-6)

    def test_sobolev_sandwich(self):
        # C_nu min(1, c) ||f||_H^2 <= ||f||_nu^2 <= C_nu max(1, c) ||f||_H^2
        # with c = (2 nu / lambda^2)^(nu + 1/2)
        tf = CATALOG["gauss_bump"]
        for nu in (0.5, 1.5):
            lam = SQRT2
            params = MaternParams(nu, 1.0, lam)
            c = (2.0 * nu / lam**2) ** (nu + 0.5)
            log_c_nu = (0.5 * math.log(math.pi)
                        - log_c_scaling(nu, 1)
                        - (nu - 1.0) * math.log(2.0)
                        - log_gamma(nu + 0.5)
                        + nu * math.log(lam**2 / (2.0 * nu)))
            c_nu = math.exp(log_c_nu)
            sob = sobolev_norm_sq(tf, nu + 0.5)
            val = matern_rkhs_norm_sq(tf, params)
            assert c_nu * min(1.0, c) * sob <= val <= c_nu * max(1.0, c) * sob

    def test_tail_violation_raises(self):
        tf = CATALOG["cauchy_like"]
        params = MaternParams(2.0, 1.0, SQRT2)
        with pytest.raises(AccuracyError):
            matern_rkhs_norm_sq(tf, params, QuadratureConfig(truncation=6.0))

    def test_missing_transform_raises(self):
        tf = dataclasses.replace(CATALOG["gauss_bump"], fourier=None)
        with pytest.raises(DomainError):
            matern_rkhs_norm_sq(tf, MaternParams(1.0, 1.0, SQRT2))

    @pytest.mark.parametrize("d", [2, 3, np.int64(2)])
    def test_another_dimension_raises(self, d):
        # The norm's spectral weight is one-dimensional.
        with pytest.raises(DomainError, match=f"one-dimensional, got d={d}$"):
            matern_rkhs_norm_sq(CATALOG["gauss_bump"], MaternParams(1.5, 1.0, SQRT2, d))

    def test_overflowing_norm_is_infinite(self):
        # The quadrature's terms overflow as they are added: the norm is
        # infinite, not an error.
        params = MaternParams(200.0, 1.0, SQRT2)
        assert matern_rkhs_norm_sq(CATALOG["cauchy_like"], params) == math.inf

    @pytest.mark.parametrize("label, nu, lam, pinned", MATERN_NORMS)
    def test_pinned_values(self, label, nu, lam, pinned):
        params = MaternParams(nu, 1.0, lam)
        assert matern_rkhs_norm_sq(CATALOG[label], params) == float.fromhex(pinned)


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

    @pytest.mark.parametrize("lam, square", [(1e-320, "0.0"), (1e200, "inf")])
    def test_length_scale_whose_square_is_not_a_positive_double(self, lam, square):
        # lambda**2 scales the weight and the prefactor: 0 divided by zero.
        with pytest.raises(DomainError) as caught:
            gaussian_rkhs_norm_sq(CATALOG["gauss_bump"], lam)
        assert str(caught.value) == (f"lambda_**2 (lambda_={lam!r}) must be positive and "
                                     f"finite, got {square}")

    @pytest.mark.parametrize("lam", [-1.0, math.inf, math.nan, True, "1"])
    def test_bad_length_scale_is_rejected(self, lam):
        with pytest.raises(DomainError, match="length-scale"):
            gaussian_rkhs_norm_sq(CATALOG["gauss_bump"], lam)

    @pytest.mark.parametrize("lam, pinned", GAUSSIAN_NORMS)
    def test_pinned_values(self, lam, pinned):
        res = gaussian_rkhs_norm_sq(CATALOG["gauss_bump"], lam)
        assert res.value == float.fromhex(pinned)

    def test_underflowed_tail_is_zero(self):
        # The transform has underflowed to zero at the truncation: the tail
        # beyond it is zero, not the NaN of 0 / (-inf - -inf).
        assert gaussian_rkhs_norm_sq(CATALOG["gauss_bump"], SQRT2).tail_estimate == 0.0


class TestSobolevNorm:
    @pytest.mark.parametrize("alpha", [2, 60])
    def test_closed_form_for_cauchy_like(self, alpha):
        # |fhat|^2 = 4 pi^2 exp(-|xi|): the integral of (1 + xi^2)^alpha
        # against it is 8 pi^2 sum_k C(alpha, k) (2k)!, about 5.3e200 at
        # alpha = 60, where the weight alone overflows.
        exact = 8.0 * math.pi**2 * sum(math.comb(alpha, k) * math.factorial(2 * k)
                                       for k in range(alpha + 1))
        assert sobolev_norm_sq(CATALOG["cauchy_like"], alpha) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, True, "2"])
    def test_alpha_must_be_a_finite_real(self, alpha):
        with pytest.raises(DomainError, match=f"^alpha must be finite, got {alpha!r}$"):
            sobolev_norm_sq(CATALOG["gauss_bump"], alpha)

    def test_exponent_past_the_largest_rule_is_refused(self):
        # The default truncation 8 (|alpha| + 1) + 80 overflows at alpha =
        # 1e308: refused by name before a node is computed.
        with pytest.raises(DomainError) as caught:
            sobolev_norm_sq(CATALOG["gauss_bump"], 1e308)
        assert str(caught.value) == ("truncation inf needs inf quadrature nodes, "
                                     "more than 1048576")

    def test_tail_violation_raises(self):
        # The tail beyond 5 is about 931 of 2290.
        with pytest.raises(AccuracyError, match="Sobolev norm"):
            sobolev_norm_sq(CATALOG["cauchy_like"], 2, QuadratureConfig(truncation=5.0))


class TestQuadratureConfig:
    @pytest.mark.parametrize("field, value", [
        ("truncation", 0.0), ("truncation", -1.0), ("truncation", math.inf),
        ("truncation", math.nan), ("truncation", True),
        ("nodes", 1), ("nodes", 2.5), ("nodes", True), ("nodes", "12"),
        ("tail_bound", 0.0), ("tail_bound", math.inf), ("tail_bound", math.nan),
    ])
    def test_bad_field_is_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            QuadratureConfig(**{field: value})

    def test_truncation_past_the_largest_rule_is_refused(self):
        # 2 * 1e300 * 12 nodes: refused by name with the settings.
        with pytest.raises(DomainError) as caught:
            QuadratureConfig(truncation=1e300)
        assert str(caught.value) == ("truncation 1e+300 needs 2.4e+301 quadrature nodes, "
                                     "more than 1048576")

    @pytest.mark.parametrize("truncation, nodes", [(60.0, 12), (7.25, 5), (0.5, 2),
                                                   (600.0, 24)])
    def test_rule_is_the_panel_loop(self, truncation, nodes):
        # The rule, built for all panels at once, is bit for bit the
        # reference: each panel's Gauss-Legendre nodes mapped in turn, the
        # positive half mirrored.
        base_x, base_w = np.polynomial.legendre.leggauss(nodes)
        edges = np.append(np.arange(0.0, truncation, 1.0), truncation)
        panels = list(zip(edges[:-1], edges[1:]))
        x = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * base_x for a, b in panels])
        w = np.concatenate([0.5 * (b - a) * base_w for a, b in panels])
        got_x, got_w = analysis._panel_rule(truncation, nodes)
        assert got_x.tobytes() == np.concatenate([-x[::-1], x]).tobytes()
        assert got_w.tobytes() == np.concatenate([w[::-1], w]).tobytes()

    def test_largest_rule_is_held(self):
        # 2 * 43,690 panels of 12 nodes: the largest rule of at most 2**20
        # nodes; half a panel more is refused, by the settings and the rule.
        q = QuadratureConfig(truncation=43690.0)
        x, w = analysis._panel_rule(q.truncation, q.nodes)
        assert x.size == w.size == 2 * 43690 * 12
        for refuse in (lambda: QuadratureConfig(truncation=43690.5),
                       lambda: analysis._panel_rule(43690.5, 12)):
            with pytest.raises(DomainError, match="^truncation 43690.5 needs 1.04858e"):
                refuse()

    def test_numpy_values_are_accepted(self):
        q = QuadratureConfig(truncation=np.float64(20.0), nodes=np.int64(8), tail_bound=1e-6)
        assert sobolev_norm_sq(CATALOG["gauss_bump"], 1, q) > 0.0
        # Checked reals are kept as floats, as in every other setting record.
        q = QuadratureConfig(truncation=20, tail_bound=np.float32(1e-6))
        assert [type(q.truncation), type(q.tail_bound)] == [float, float]


class TestSamplePaths:
    def test_deterministic(self):
        design = van_der_corput(UNIT, 32)
        params = MaternParams(1.5, 1.0, 1.0, d=1)
        a = sample_gp_path(params, design, seed=7)
        b = sample_gp_path(params, design, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample_gp_path(params, design, seed=8)
        assert not np.array_equal(a, c)

    def test_frozen_draw_values(self):
        # counter-based generator: values are stable across platforms
        design = van_der_corput(UNIT, 4)
        params = MaternParams(0.5, 1.0, 1.0, d=1)
        path = sample_gp_path(params, design, seed=1234)
        z = np.random.Generator(np.random.Philox(1234)).standard_normal(4)
        assert path[0] == pytest.approx(z[0], rel=1e-12)

    def test_prefix_consistency(self):
        design = van_der_corput(UNIT, 512)
        params = MaternParams(1.5, 1.0, 1.0, d=1)
        full = sample_gp_path(params, design, seed=99)
        for n in (16, 32, 64, 128, 256):
            short = sample_gp_path(params, Design(design.points[:n], UNIT), seed=99)
            assert np.array_equal(full[:n], short), n

    @pytest.mark.parametrize("n", [4, 100, 512])
    def test_seed_list_columns_equal_single_draws(self, n):
        # One factorization for every seed; each column is that seed's own
        # draw, bit for bit, a repeated seed included.
        design = van_der_corput(UNIT, n)
        params = MaternParams(1.5, 1.0, 4.0 / n, d=1)
        seeds = [7, 0, np.int64(2**40), 7, 3]
        paths = sample_gp_path(params, design, seeds)
        assert paths.shape == (n, len(seeds))
        for j, seed in enumerate(seeds):
            assert np.array_equal(paths[:, j], sample_gp_path(params, design, seed)), (n, j)
        assert np.array_equal(sample_gp_path(params, design, (7,)),
                              sample_gp_path(params, design, 7)[:, None])

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, np.bool_(False), "3", None,
                                      [1, -2], [1, 2.5], [[1]], []])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        design = van_der_corput(UNIT, 4)
        with pytest.raises(DomainError, match="seed"):
            sample_gp_path(MaternParams(1.5, 1.0, 1.0, d=1), design, seed)

    def test_moments(self):
        design = Design([[0.1], [0.35], [0.8]], UNIT)
        params = MaternParams(1.5, sigma=1.3, lambda_=0.7, d=1)
        # Every column equals that seed's single draw (see above).
        draws = sample_gp_path(params, design, range(10_000)).T
        var1 = float(np.var(draws[:, 0]))
        assert var1 == pytest.approx(1.3**2, rel=0.05)
        cov12 = float(np.mean(draws[:, 0] * draws[:, 1]))
        assert cov12 == pytest.approx(params(0.25), rel=0.05)


class TestFitRate:
    def test_exact_power_law(self):
        ns = [4, 8, 16, 32, 64]
        assert fit_rate(ns, [float(n) ** -2 for n in ns]) == pytest.approx(-2.0, abs=1e-12)

    def test_constant_values(self):
        assert fit_rate([4, 8, 16], [3.0, 3.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        ns = np.array([8, 16, 32, 64, 128, 256])
        vals = 3.0 * ns**-1.5 * (1.0 + 0.01 * rng.standard_normal(ns.size))
        assert fit_rate(ns, vals) == pytest.approx(-1.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(DomainError):
            fit_rate([2, 4], [1.0, 0.5])
        with pytest.raises(DomainError):
            fit_rate([2, 4, 8], [1.0, -0.5, 0.2])

    @pytest.mark.parametrize("ns, values", [
        ([2, 4, 8], [1.0, math.nan, 0.2]), ([2, 4, 8], [1.0, math.inf, 0.2]),
        ([2, math.nan, 8], [1.0, 0.5, 0.2]), ([2, math.inf, 8], [1.0, 0.5, 0.2]),
    ])
    def test_non_finite_points_are_rejected(self, ns, values):
        with pytest.raises(DomainError, match="finite"):
            fit_rate(ns, values)
