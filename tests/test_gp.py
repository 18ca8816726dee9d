"""Conditioning, posterior queries, and the fast identities vs naive refits."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lapack

from maternsmooth import gp
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth.errors import ConditioningError, DomainError
from maternsmooth.experiments import _naive_loo, _naive_sequential
from maternsmooth.gp import (
    Posterior,
    condition,
    condition_prefixes,
    incremental_variances,
    log_det,
    loo,
    loo_variances,
    posterior_mean,
    posterior_var,
    quadratic_form,
)
from maternsmooth.kernels import (
    MaternParams,
    kernel_matrix,
)
from maternsmooth.objectives import ell_ml_from

UNIT = Box.unit(1)


def scalar(value):
    return float(np.atleast_1d(value)[0])


@pytest.fixture
def instance():
    design = van_der_corput(UNIT, 16)
    kernel = MaternParams(1.5, sigma=1.2, lambda_=0.15, d=1)
    y = np.random.Generator(np.random.Philox(9)).standard_normal(16)
    return kernel, design, y, condition(kernel, design, y)


class TestCondition:
    def test_single_point(self):
        design = Design([[0.3]], UNIT)
        kernel = MaternParams(1.0, sigma=1.4)
        post = condition(kernel, design, [2.8])
        assert post.chol[0, 0] == pytest.approx(1.4)
        assert post.weights[0] == pytest.approx(2.8 / 1.4**2)

    def test_factor_reconstructs_matrix(self, instance):
        kernel, design, y, post = instance
        K = kernel_matrix(kernel, design)
        rec = post.chol @ post.chol.T
        assert np.max(np.abs(rec - K)) <= 1e-12 * np.max(np.abs(K))

    def test_weights_solve_the_system(self, instance):
        kernel, design, y, post = instance
        K = kernel_matrix(kernel, design)
        residual = K @ post.weights - y
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(y)

    def test_weights_match_dense_solve(self, instance):
        kernel, design, y, post = instance
        direct = np.linalg.solve(kernel_matrix(kernel, design), y)
        np.testing.assert_allclose(post.weights, direct, atol=1e-10)

    @pytest.mark.parametrize("shape", [(32,), (32, 2)])
    def test_posteriors_do_not_alias_the_callers_data(self, shape):
        # The caller's data overwritten after conditioning, before anything
        # is read from the posteriors: they hold what they held before.
        kernel = MaternParams(1.5, lambda_=0.15)
        design = van_der_corput(UNIT, 32)
        y = np.random.Generator(np.random.Philox(4)).standard_normal(shape)
        sizes = [16, 32]
        want = [condition(kernel, design, y.copy())] + condition_prefixes(
            kernel, design, y.copy(), sizes)
        posts = [condition(kernel, design, y)] + condition_prefixes(kernel, design, y, sizes)
        y[:] = 7.0
        for got, ref in zip(posts, want):
            assert np.array_equal(got.y, ref.y)
            assert np.array_equal(got.weights, ref.weights)
            assert np.array_equal(quadratic_form(got), quadratic_form(ref))
            assert np.array_equal(loo(got).residuals, loo(ref).residuals)

    def test_near_duplicate_raises_with_pivot_info(self):
        design = Design([[0.2], [0.2 + 1e-13], [0.9]], UNIT)
        kernel = MaternParams(2.5, lambda_=0.5)
        with pytest.raises(ConditioningError) as exc:
            condition(kernel, design, np.ones(3))
        assert exc.value.pivot_index == 1

    def test_pivot_floor_rejects_rounding_noise(self):
        # very smooth kernel on a fine grid: trailing pivots are pure noise,
        # positive but below the fixed floor of 1e-14 times K(0) = 1
        design = van_der_corput(UNIT, 64)
        kernel = MaternParams(8.0, lambda_=1.0)
        with pytest.raises(ConditioningError,
                           match=r"^pivot 14 = 3\.997e-15 below relative floor 1\.000e-14$"):
            condition(kernel, design, np.zeros(64))

    @pytest.mark.parametrize("nu, lambda_", [(1.5, 0.15), (8.0, 1.0)])
    def test_workspace_holds_what_fresh_arrays_hold(self, nu, lambda_):
        # A workspace full of NaN, as a larger or a failed cell may leave it:
        # the factor, its inverse and every posterior read from them equal
        # those on fresh arrays bit for bit, upper triangle and rows past a
        # failing pivot included.  (nu = 8 fails at pivot 14 of 64.)
        design = van_der_corput(UNIT, 64)
        kernel = MaternParams(nu, lambda_=lambda_)
        y = np.random.Generator(np.random.Philox(5)).standard_normal((64, 2))
        workspace = (np.full(80 * 80, np.nan), np.full(80 * 80, np.nan))
        sizes = [8, 16, 32, 64]
        fresh = condition_prefixes(kernel, design, y, sizes)
        reused = gp._prefix_posteriors(kernel, design, y, sizes, workspace)
        assert [str(p) for p in reused if isinstance(p, ConditioningError)] == [
            str(p) for p in fresh if isinstance(p, ConditioningError)]
        for a, b in zip(fresh, reused):
            if isinstance(a, Posterior):
                assert a.chol.tobytes() == b.chol.tobytes()
                assert a.weights.tobytes() == b.weights.tobytes()
                assert loo(a).residuals.tobytes() == loo(b).residuals.tobytes()
        L, err = gp._factor(kernel, design, workspace[0])
        assert np.shares_memory(L, workspace[0])
        assert L.tobytes() == gp._factor(kernel, design)[0].tobytes()
        # The inverse of the rows before the failing pivot, if there is one.
        m = 64 if err is None else err.pivot_index
        W = gp._invert(L, m, workspace[1])
        assert W.tobytes() == gp._invert(L.copy(order="F"), m).tobytes()

    def test_shape_mismatch(self, instance):
        kernel, design, _, _ = instance
        with pytest.raises(DomainError):
            condition(kernel, design, np.zeros(5))
        with pytest.raises(DomainError):
            condition(kernel, design, np.zeros((5, 2)))

    @pytest.mark.parametrize("bad", [["0.5"] * 16, [True] * 16], ids=["text", "bools"])
    def test_data_refuse_text_and_bools(self, instance, bad):
        # Data pass the one array rule of errors: nothing is converted.
        kernel, design, _, _ = instance
        with pytest.raises(DomainError, match="^y must be integer or floating numbers"):
            condition(kernel, design, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_raises(self, instance, bad):
        kernel, design, y, _ = instance
        y = y.copy()
        y[3] = bad
        with pytest.raises(DomainError, match="finite"):
            condition(kernel, design, y)
        with pytest.raises(DomainError, match="finite"):
            condition(kernel, design, np.stack([np.zeros(16), y], axis=1))

    @pytest.mark.parametrize("size", [2.5, True])
    def test_prefix_size_must_be_an_integer(self, instance, size):
        kernel, design, y, post = instance
        with pytest.raises(DomainError, match="integer"):
            post.prefix(size)
        with pytest.raises(DomainError, match="integer"):
            condition_prefixes(kernel, design, y, [size])
        # Also when a larger size comes first, or lies past a failing pivot.
        with pytest.raises(DomainError, match="integer"):
            condition_prefixes(kernel, design, y, [16, size])
        near = Design([[0.2], [0.2 + 1e-13], [0.9]], UNIT)
        with pytest.raises(DomainError, match="integer"):
            condition_prefixes(kernel, near, np.ones(3), [3, size])

    def test_numpy_integer_prefix_sizes(self, instance):
        kernel, design, y, post = instance
        np.testing.assert_array_equal(post.prefix(np.int64(5)).chol, post.prefix(5).chol)
        (got,) = condition_prefixes(kernel, design, y, [np.int32(5)])
        assert got.n == 5 and got.design is design.prefix(5)

    def test_data_columns_share_one_factor(self, instance):
        kernel, design, y, post = instance
        Y = np.stack([y, -2.0 * y, np.zeros(16)], axis=1)
        multi = condition(kernel, design, Y)
        np.testing.assert_array_equal(multi.chol, post.chol)
        assert multi.weights.shape == (16, 3)
        np.testing.assert_allclose(multi.weights[:, 0], post.weights, rtol=1e-12, atol=0)
        np.testing.assert_allclose(multi.weights[:, 1], -2.0 * post.weights, rtol=1e-12)
        assert np.all(multi.weights[:, 2] == 0.0)
        qf = quadratic_form(multi)
        assert qf.shape == (3,)
        assert qf[0] == pytest.approx(quadratic_form(post), rel=1e-12)
        assert qf[1] == pytest.approx(4.0 * quadratic_form(post), rel=1e-12)
        res = loo(multi)
        assert res.residuals.shape == (16, 3) and res.variances.shape == (16,)
        np.testing.assert_allclose(res.residuals[:, 0], loo(post).residuals, rtol=1e-12)

    @pytest.mark.parametrize("n", [16, 100, 512])
    def test_quadratic_form_columns_equal_each_column_alone(self, n):
        # A multi-column triangular solve rounds differently in the last
        # bits; each column's form is its one-column form, bit for bit.
        design = van_der_corput(UNIT, n)
        kernel = MaternParams(1.5, lambda_=2.0 / n)
        Y = np.random.Generator(np.random.Philox(3)).standard_normal((n, 4))
        together = quadratic_form(condition(kernel, design, Y))
        assert together.shape == (4,)
        for column, value in zip(Y.T, together):
            assert value == quadratic_form(condition(kernel, design, column))

    @pytest.mark.parametrize("n", [16, 100, 512])
    def test_posterior_mean_columns_equal_each_column_alone(self, n):
        # One k' W product rounds differently from k' w in the last bits;
        # each column's mean is its one-column mean, bit for bit, on every
        # prefix the factor serves.
        design = van_der_corput(UNIT, n)
        kernel = MaternParams(1.5, lambda_=2.0 / n)
        Y = np.random.Generator(np.random.Philox(5)).standard_normal((n, 4))
        probes = (2 * np.arange(200) + 1) / 400.0
        sizes = sorted({min(16, n), n // 2, n})
        alone = [condition_prefixes(kernel, design, column, sizes) for column in Y.T]
        for i, post in enumerate(condition_prefixes(kernel, design, Y, sizes)):
            together = posterior_mean(post, probes)
            assert together.shape == (200, 4)
            for j in range(4):
                assert np.array_equal(together[:, j], posterior_mean(alone[j][i], probes)), (n, j)
            at_one = posterior_mean(post, 0.3)
            assert at_one.shape == (4,)
            assert np.array_equal(at_one, posterior_mean(post, [0.3])[0])

    @pytest.mark.parametrize("columns", [None, 3])
    def test_mean_and_variance_share_one_cross_covariance(self, columns, monkeypatch):
        # One build serves both, and each equals its own query bit for bit,
        # at many points, at one and on the empty design.
        design = van_der_corput(UNIT, 64)
        kernel = MaternParams(2.5, lambda_=0.1)
        shape = (64,) if columns is None else (64, columns)
        y = np.random.Generator(np.random.Philox(9)).standard_normal(shape)
        probes = (2 * np.arange(150) + 1) / 300.0
        builds = []
        cross = gp._cross_covariances
        monkeypatch.setattr(gp, "_cross_covariances",
                            lambda post, q: builds.append(q.shape) or cross(post, q))
        for post in condition_prefixes(kernel, design, y, [0, 16, 64]):
            for x in (probes, 0.3):
                builds.clear()
                mean, var, scalar = gp._moments(post, x)
                assert len(builds) == (1 if post.n else 0) and scalar == np.isscalar(x)
                want_mean, want_var = posterior_mean(post, x), posterior_var(post, x)
                if scalar:
                    mean, var = (mean[0] if mean.ndim == 2 else float(mean[0])), float(var[0])
                assert np.asarray(mean).tobytes() == np.asarray(want_mean).tobytes()
                assert np.asarray(var).tobytes() == np.asarray(want_var).tobytes()

    def test_posterior_mean_of_columns_on_empty_design(self):
        kernel = MaternParams(1.5)
        post = condition(kernel, Design(np.zeros((0, 1)), UNIT), np.zeros((0, 3)))
        assert posterior_mean(post, [0.2, 0.4]).shape == (2, 3)
        assert posterior_mean(post, 0.2).shape == (3,)


class TestPosteriorQueries:
    def test_interpolation(self, instance):
        kernel, design, y, post = instance
        np.testing.assert_allclose(posterior_mean(post, design.points), y, atol=1e-9)

    def test_zero_data_zero_mean(self, instance):
        kernel, design, _, _ = instance
        post = condition(kernel, design, np.zeros(16))
        assert np.all(posterior_mean(post, np.linspace(0, 1, 50)) == 0.0)

    def test_two_point_hand_oracle(self):
        # nu=1/2, sigma=lambda=1, points {0, 1}, y={1, 0}: the 2x2 system
        # solves in closed form and the mean at 1/2 is e^(-1/2)/(1+e^(-1))
        design = Design([[0.0], [1.0]], UNIT)
        kernel = MaternParams(0.5, 1.0, 1.0)
        post = condition(kernel, design, [1.0, 0.0])
        ref = math.exp(-0.5) / (1.0 + math.exp(-1.0))
        assert scalar(posterior_mean(post, 0.5)) == pytest.approx(ref, rel=1e-12)

    def test_variance_vanishes_at_data(self, instance):
        kernel, design, y, post = instance
        v = posterior_var(post, design.points)
        assert np.max(np.abs(v)) <= 1e-10 * kernel(0.0)

    def test_query_second_axis_must_be_dimension(self):
        design = Design([[0.1, 0.2], [0.5, 0.9], [0.8, 0.3]], Box.unit(2))
        post = condition(MaternParams(1.5, lambda_=0.5, d=2), design, [1.0, 0.0, 2.0])
        assert posterior_mean(post, np.full((3, 2), 0.4)).shape == (3,)
        for bad in (np.full((2, 3), 0.4), np.full((3, 2, 1), 0.4)):
            with pytest.raises(DomainError):
                posterior_mean(post, bad)
            with pytest.raises(DomainError):
                posterior_var(post, bad)

    @pytest.mark.parametrize("query, message", [
        ("0.5", "query points must be integer or floating numbers, got '0.5'"),
        (True, "query points must be integer or floating numbers, got True"),
        (math.nan, "query points must be finite, got nan"),
        ([0.1, math.inf], "query points must be finite, got [0.1, inf]"),
    ])
    def test_query_points_are_finite_reals(self, instance, query, message):
        # The query, not the distances built from it, is named.
        post = instance[3]
        for read in (posterior_mean, posterior_var):
            with pytest.raises(DomainError) as caught:
                read(post, query)
            assert str(caught.value) == message

    def test_one_dimensional_row_of_points_rejected(self, instance):
        # (1, m) is not m points in 1-d; (m,) and (m, 1) are
        kernel, design, y, post = instance
        probes = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(posterior_mean(post, probes[:, None]),
                                      posterior_mean(post, probes))
        with pytest.raises(DomainError):
            posterior_mean(post, probes[None, :])

    def test_empty_design_convention(self):
        kernel = MaternParams(1.5, sigma=1.3)
        post = condition(kernel, Design(np.zeros((0, 1)), UNIT), np.zeros(0))
        assert scalar(posterior_var(post, 0.4)) == pytest.approx(1.3**2)
        assert scalar(posterior_mean(post, 0.4)) == 0.0

    def test_single_point_variance_formula(self):
        design = Design([[0.25]], UNIT)
        kernel = MaternParams(1.5, sigma=1.1, lambda_=0.8)
        post = condition(kernel, design, [0.7])
        r = 0.3
        ref = 1.1**2 - kernel(r) ** 2 / 1.1**2
        assert scalar(posterior_var(post, 0.25 + r)) == pytest.approx(ref, rel=1e-10)

    def test_variance_monotone_in_n(self, instance):
        kernel, design, y, _ = instance
        probes = np.linspace(0.01, 0.99, 23)
        previous = None
        for n in (0, 1, 2, 4, 8, 16):
            post = condition(kernel, design.prefix(n), y[:n])
            v = posterior_var(post, probes)
            if previous is not None:
                assert np.all(v <= previous + 1e-9)
            previous = v


def _dependent_row(p, pivot, n=512):
    """A well-conditioned SPD matrix whose row ``p`` repeats row ``p - 1``
    except on the diagonal, so that its Schur pivot ``p`` is ``pivot`` to
    rounding.  ``K[0, 0]`` is 1000 more, which sets the relative floor."""
    A = np.random.Generator(np.random.Philox(p)).standard_normal((n, n))
    K = A @ A.T / n + np.eye(n)
    K[0, 0] += 1000.0
    K[p, :], K[:, p] = K[p - 1, :], K[:, p - 1]
    K[p, p] = K[p - 1, p - 1] + pivot
    return K


def _factor_of(K, monkeypatch):
    """``gp._factor`` on the matrix ``K``, served by fresh row panels."""
    def panels(kernel, design, ends):
        a = 0
        for b in ends:
            yield np.array(K[a:b, :b], order="F")
            a = b

    monkeypatch.setattr(gp, "kernel_panels", panels)
    return gp._factor(None, SimpleNamespace(n=K.shape[0]))


class TestSubPanels:
    """The diagonal blocks of the row panels are factored and inverted by
    sub-panels of 64 rows; a failure inside one is reported as a failure
    of the whole block was."""

    @pytest.mark.parametrize("p", [70, 130, 300])
    @pytest.mark.parametrize("pivot, form", [
        (-1e-3, r"kernel matrix is numerically singular: pivot {p} = -1\.000e-03"),
        (1e-12, r"pivot {p} = \d\.\d{{3}}e-1[23] below relative floor 1\.00\de-11"),
    ])
    def test_failing_pivot_inside_a_sub_panel(self, monkeypatch, p, pivot, form):
        K = _dependent_row(p, pivot)
        L, err = _factor_of(K, monkeypatch)
        assert isinstance(err, ConditioningError)
        assert err.pivot_index == p and re.fullmatch(form.format(p=p), str(err))
        assert err.pivot_value == pytest.approx(pivot, rel=1e-2)
        # The rows before the pivot hold their factor, and zeros right of it.
        lead = L[:p, :p]
        np.testing.assert_allclose(lead @ lead.T, K[:p, :p], rtol=0, atol=1e-12 * 1001.0)
        assert not np.any(np.triu(L[:p], 1))

    @pytest.mark.parametrize("p", [70, 130, 300])
    def test_zero_diagonal_inside_a_sub_panel(self, monkeypatch, p):
        L, err = _factor_of(_dependent_row(p, 1.0), monkeypatch)
        assert err is None
        chol = L.copy(order="F")
        chol[p, p] = 0.0
        with pytest.raises(ConditioningError) as caught:
            gp._invert(chol, 512)
        err = caught.value
        assert str(err) == f"triangular inversion failed: factor diagonal entry {p} is zero"
        assert (err.pivot_index, err.pivot_value) == (p, 0.0)


# Each LAPACK routine of gp, and a read of a posterior that calls it
# (dpotrf runs in condition itself).
_LAPACK_READS = {
    "dpotrf": lambda post: None,
    "dtrtri": loo,
    "dtrtrs": quadratic_form,
    "dpotrs": lambda post: post.weights,
}


@pytest.mark.parametrize("routine", sorted(_LAPACK_READS))
def test_rejected_lapack_argument_raises_domain_error_naming_the_routine(routine, monkeypatch):
    # A negative info is a rejected argument, not a conditioning failure.
    design = van_der_corput(UNIT, 16)
    kernel = MaternParams(1.5, sigma=1.2, lambda_=0.15, d=1)
    y = np.random.Generator(np.random.Philox(9)).standard_normal(16)
    fake = SimpleNamespace(**{name: getattr(lapack, name) for name in _LAPACK_READS})
    setattr(fake, routine, lambda a, *args, **kwargs: (a, -1))
    monkeypatch.setattr(gp, "_lapack", fake)
    with pytest.raises(DomainError, match=f"^{routine} rejected argument 1$"):
        _LAPACK_READS[routine](condition(kernel, design, y))


class TestFastIdentities:
    def test_incremental_first_entry_is_prior_variance(self, instance):
        kernel, _, _, post = instance
        v = incremental_variances(post)
        assert v[0] == pytest.approx(kernel(0.0), rel=1e-14)

    def test_incremental_two_point_formula(self):
        design = Design([[0.1], [0.7]], UNIT)
        kernel = MaternParams(1.5, sigma=1.2, lambda_=0.4)
        v = incremental_variances(condition(kernel, design, np.zeros(2)))
        ref = 1.2**2 - kernel(0.6) ** 2 / 1.2**2
        assert v[1] == pytest.approx(ref, rel=1e-12)

    def test_incremental_matches_naive_prefix_refits(self, instance):
        kernel, design, y, post = instance
        fast = incremental_variances(post)
        _, naive = _naive_sequential(kernel, design, y)
        np.testing.assert_allclose(fast, naive, rtol=1e-10)

    def test_log_det_is_sum_of_log_increments(self, instance):
        _, _, _, post = instance
        v = incremental_variances(post)
        assert log_det(post) == pytest.approx(float(np.sum(np.log(v))), rel=1e-12)

    def test_log_det_small_cases(self):
        design = Design([[0.4]], UNIT)
        kernel = MaternParams(1.0, sigma=1.3)
        post = condition(kernel, design, [0.0])
        assert log_det(post) == pytest.approx(math.log(1.3**2), rel=1e-12)

        design2 = Design([[0.0], [1.0]], UNIT)
        kernel2 = MaternParams(0.5, 1.0, 1.0)
        post2 = condition(kernel2, design2, [0.0, 0.0])
        assert log_det(post2) == pytest.approx(math.log(1.0 - math.exp(-2.0)), rel=1e-12)

    def test_quadratic_form_edge_cases(self):
        design = Design([[0.4]], UNIT)
        kernel = MaternParams(1.0, sigma=1.3)
        assert quadratic_form(condition(kernel, design, [0.0])) == 0.0
        assert quadratic_form(condition(kernel, design, [2.0])) == pytest.approx(
            4.0 / 1.3**2, rel=1e-12)

    def test_sequential_sum_equals_quadratic_form(self, instance):
        kernel, design, y, post = instance
        nres, nvar = _naive_sequential(kernel, design, y)
        qf = quadratic_form(post)
        assert qf == pytest.approx(float(np.sum(nres**2 / nvar)), rel=1e-10)

    def test_representer_column_interpolates_early(self, instance):
        # y equal to the kernel column of point k: every prefix containing
        # x_k already interpolates it, so later residuals vanish
        kernel, design, _, _ = instance
        k = 4
        dist = np.sqrt(((design.points - design.points[k]) ** 2).sum(axis=1))
        y = kernel(dist)
        res, _ = _naive_sequential(kernel, design, y)
        assert np.max(np.abs(res[k + 1 :])) <= 1e-9

    def test_loo_matches_naive_refits(self, instance):
        kernel, design, y, post = instance
        fast = loo(post)
        nres, nvar = _naive_loo(kernel, design, y)
        assert np.max(np.abs(fast.residuals - nres)) <= 1e-8
        assert np.max(np.abs(fast.variances - nvar)) <= 1e-8

    def test_loo_symmetry(self):
        design = Design([[0.2], [0.8]], UNIT)
        kernel = MaternParams(1.5, lambda_=0.5)
        res = loo(condition(kernel, design, [0.9, 0.9]))
        assert res.residuals[0] == pytest.approx(res.residuals[1], rel=1e-12)
        assert res.variances[0] == pytest.approx(res.variances[1], rel=1e-12)

    def test_loo_zero_data(self, instance):
        kernel, design, _, _ = instance
        res = loo(condition(kernel, design, np.zeros(16)))
        assert np.all(res.residuals == 0.0)
        assert np.all(res.variances > 0.0)

    def test_loo_needs_two_points(self):
        kernel = MaternParams(1.0)
        post = condition(kernel, Design([[0.5]], UNIT), [1.0])
        with pytest.raises(DomainError):
            loo(post)

    def test_zero_factor_diagonal_names_its_global_index(self, instance):
        # A factor with a zero on its diagonal, as a caller may build one:
        # the panel of rows 16:32 finds it, and loo reports it in the
        # posterior's coordinates.
        kernel, _, _, _ = instance
        design = van_der_corput(UNIT, 40)
        post = condition(kernel, design, np.ones(40))
        chol = post.chol.copy(order="F")
        chol[21, 21] = 0.0
        broken = gp._Factorization(kernel, design, post.y, chol, 40).posterior(40)
        with pytest.raises(ConditioningError, match="diagonal entry 21") as exc:
            loo(broken)
        assert (exc.value.pivot_index, exc.value.pivot_value) == (21, 0.0)

    def test_shared_loo_inverts_the_factor_once(self, instance, monkeypatch):
        # The posteriors of one factorization share its inverse and forward
        # solve: each is computed once, on the first request, and every
        # posterior reads the bits it would read alone.
        kernel, _, _, _ = instance
        design = van_der_corput(UNIT, 64)
        y = np.random.Generator(np.random.Philox(3)).standard_normal(64)
        sizes = [8, 16, 32, 64] * 2

        def queries(post):
            return loo(post), quadratic_form(post), ell_ml_from(post)

        want = [queries(post) for post in condition_prefixes(kernel, design, y, sizes)]
        calls, invert, solve = [], gp._invert, gp._solve_lower

        def counted_invert(chol, m, buffer=None):
            calls.append(("invert", m))
            return invert(chol, m, buffer)

        def counted_solve(chol, data):
            calls.append(("forward", data.shape[0]))
            return solve(chol, data)

        monkeypatch.setattr(gp, "_invert", counted_invert)
        monkeypatch.setattr(gp, "_solve_lower", counted_solve)
        got = [queries(post) for post in condition_prefixes(kernel, design, y, sizes)]
        assert sorted(calls) == [("forward", 64), ("invert", 64)]
        for (a, qa, ma), (b, qb, mb) in zip(got, want):
            np.testing.assert_array_equal(a.variances, b.variances)
            np.testing.assert_array_equal(a.residuals, b.residuals)
            assert qa == qb and (ma.data_term, ma.complexity_term) == (
                mb.data_term, mb.complexity_term)

    def test_variance_only_loo_matches_loo(self, instance):
        _, _, _, post = instance
        np.testing.assert_array_equal(loo_variances(post), loo(post).variances)

    def test_loo_variances_do_not_solve_for_the_weights(self, instance, monkeypatch):
        # The variances are read off the inverse diagonal alone: no solve
        # against the data, and the same bits as loo's.
        kernel, design, y, _ = instance
        want = [loo(post).variances for post in condition_prefixes(kernel, design, y, [2, 9, 16])]

        def unsolvable(post):
            raise AssertionError("weights were solved for")

        monkeypatch.setattr(Posterior, "weights", property(unsolvable))
        got = [loo_variances(post) for post in condition_prefixes(kernel, design, y, [2, 9, 16])]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_single_point_loo_variance_is_prior_variance(self):
        kernel = MaternParams(1.0, sigma=1.3)
        post = condition(kernel, Design([[0.5]], UNIT), [0.0])
        np.testing.assert_array_equal(loo_variances(post), [kernel(0.0)])

    def test_undersmoothed_ratio_shrinks_with_n(self):
        # The worst leave-one-out variance ratio of the generating smoothness
        # against an undersmoothed model shrinks as the design fills in.
        design = van_der_corput(UNIT, 256)

        def worst_ratio(n):
            prefix, zeros = design.prefix(n), np.zeros(n)
            v0 = loo_variances(condition(MaternParams(1.5), prefix, zeros))
            v = loo_variances(condition(MaternParams(0.5), prefix, zeros))
            return float(np.max(v0 / v))

        assert worst_ratio(256) < worst_ratio(32)
