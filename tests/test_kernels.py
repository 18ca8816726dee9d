"""Kernel evaluation: scaling policies, closed forms, matrix assembly."""

import math

import numpy as np
import pytest

from maternsmooth.designs import Box, Design, uniform_grid, van_der_corput
from maternsmooth.errors import DegenerateDesignError, DomainError
from maternsmooth.estimators import EstimatorConfig
from maternsmooth.experiments import _jittered_grid
from maternsmooth.kernels import (
    GaussParams,
    GaussianKernel,
    MaternKernel,
    MaternParams,
    STANDARD_SCALING,
    ScalingPolicy,
    _panel_ends,
    c_scaling,
    gaussian_eval,
    kernel_matrix,
    kernel_panels,
    matern,
    matern_eval,
)
from maternsmooth.specfun import log_bessel_k

SQRT2 = math.sqrt(2.0)


class TestScaling:
    def test_standard_at_one(self):
        assert c_scaling(STANDARD_SCALING, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_clamp_active_below_half_dimension(self):
        clamped = ScalingPolicy.clamped(2)
        assert c_scaling(clamped, 0.5) == pytest.approx(1.0, rel=1e-14)
        # above the threshold the clamp is inactive
        assert c_scaling(clamped, 1.7) == pytest.approx(
            c_scaling(STANDARD_SCALING, 1.7), rel=1e-14)

    def test_standard_at_two_point_five(self):
        # 2^{-1.5} / Gamma(2.5), frozen 40-digit value
        assert c_scaling(STANDARD_SCALING, 2.5) == pytest.approx(
            0.2659615202676217853, rel=1e-13)

    def test_clamped_bounded_away_from_zero(self):
        clamped = ScalingPolicy.clamped(1)
        floor = c_scaling(clamped, 0.5)
        nus = np.geomspace(1e-4, 0.5, 50)
        vals = [c_scaling(clamped, float(nu)) for nu in nus]
        assert min(vals) == pytest.approx(floor)
        # the standard factor vanishes at the origin instead
        assert c_scaling(STANDARD_SCALING, 1e-4) < 1e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            ScalingPolicy("exotic")
        with pytest.raises(DomainError):
            ScalingPolicy.clamped(0)
        with pytest.raises(DomainError):
            c_scaling(STANDARD_SCALING, 0.0)


class TestMaternEval:
    def test_exponential_closed_form(self):
        p = MaternParams(0.5, 1.0, 1.0, STANDARD_SCALING)
        assert matern_eval(p, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_value_at_zero_is_sigma_squared(self):
        for nu in (0.3, 1.0, 2.5, 40.0, 300.0):
            p = MaternParams(nu, 1.7, 0.8, STANDARD_SCALING)
            assert matern_eval(p, 0.0) == pytest.approx(1.7**2, rel=1e-12)

    def test_three_halves_closed_form(self):
        p = MaternParams(1.5, 2.0, 1.0, STANDARD_SCALING)
        ref = 4.0 * (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
        assert matern_eval(p, 1.0) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("nu,form", [
        (0.5, lambda r, lam: np.exp(-r / lam)),
        (1.5, lambda r, lam: (1 + math.sqrt(3) * r / lam) * np.exp(-math.sqrt(3) * r / lam)),
    ])
    def test_half_integer_profiles(self, nu, form):
        sigma, lam = 1.3, 0.7
        p = MaternParams(nu, sigma, lam, STANDARD_SCALING)
        r = np.linspace(0.0, 10.0 * lam, 400)
        np.testing.assert_allclose(matern_eval(p, r), sigma**2 * form(r, lam), rtol=1e-10)

    def test_continuous_and_non_increasing(self):
        r = np.linspace(0.0, 5.0, 2000)
        for nu in (0.5, 1.5, 4.0, 25.0):
            vals = matern_eval(MaternParams(nu, 1.0, 1.0, STANDARD_SCALING), r)
            assert np.all(np.diff(vals) <= 0.0)
            assert np.max(np.abs(np.diff(vals))) < 0.02

    def test_gaussian_limit(self):
        # standard scaling, sigma=1, lambda=sqrt(2): the limit kernel is
        # exp(-r^2/4); the sup gap shrinks monotonically in nu
        r = np.linspace(0.0, 3.0, 601)
        target = np.exp(-(r**2) / 4.0)
        sups = []
        for nu in (10.0, 50.0, 100.0):
            p = MaternParams(nu, 1.0, SQRT2, STANDARD_SCALING)
            sups.append(float(np.max(np.abs(matern_eval(p, r) - target))))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] <= 0.01

    @pytest.mark.parametrize("nu", [0.7, 3.3, 16.0, 120.0])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_log_space_formula_and_caller_array(self, nu, zeros):
        # Bit for bit exp(log c + nu log x + log K_nu(x)), in that order, and
        # the caller's distances are never written, checked or not.
        p = MaternParams(nu, 1.3, 0.05, STANDARD_SCALING)
        r = np.geomspace(1e-4, 2.0, 300)
        if zeros:
            r[::7] = 0.0
        kept = r.copy()
        x = math.sqrt(2.0 * nu) / p.lambda_ * r[r > 0.0]
        want = np.full(r.shape, p._at_zero)
        want[r > 0.0] = np.exp(p._log_scale + nu * np.log(x) + log_bessel_k(nu, x))
        for got in (matern_eval(p, r), matern_eval(p, r, checked=True),
                    matern_eval(p, r.reshape(20, 15)).reshape(-1)):
            assert got.tobytes() == want.tobytes()
            assert r.tobytes() == kept.tobytes()

    def test_domain_errors(self):
        p = MaternParams(1.0, 1.0, 1.0, STANDARD_SCALING)
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                matern_eval(p, bad)
        with pytest.raises(DomainError):
            MaternParams(0.0, 1.0, 1.0, STANDARD_SCALING)
        with pytest.raises(DomainError):
            MaternParams(1.0, -2.0, 1.0, STANDARD_SCALING)

    def test_convenience_constructor_clamps(self):
        p = matern(0.3, d=2)
        assert p.scaling == ScalingPolicy.clamped(2)


@pytest.mark.parametrize("make", [
    lambda v: MaternParams(1.5, v, v, STANDARD_SCALING),
    lambda v: EstimatorConfig(sigma=v, lambda_=v),
], ids=["MaternParams", "EstimatorConfig"])
@pytest.mark.parametrize("value,accepted", [
    (np.int64(2), True), (np.float32(0.5), True), (np.float64(1.5), True),
    (True, False), (np.bool_(True), False), (np.float64(math.inf), False),
])
def test_positive_fields_take_numpy_reals_not_bools(make, value, accepted):
    if accepted:
        made = make(value)
        assert made.sigma == made.lambda_ == value
    else:
        with pytest.raises(DomainError, match="must be positive and finite"):
            make(value)


class TestGaussianEval:
    def test_unit_prefactor(self):
        p = GaussParams(1.0, math.sqrt(2.0 * math.pi))
        assert gaussian_eval(p, 0.0, d=1) == pytest.approx(1.0, rel=1e-14)

    def test_point_value(self):
        p = GaussParams(1.0, 1.0)
        ref = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert gaussian_eval(p, 1.0, d=1) == pytest.approx(ref, rel=1e-13)

    def test_two_dimensional_prefactor(self):
        p = GaussParams(2.0, 1.0)
        assert gaussian_eval(p, 0.0, d=2) == pytest.approx(4.0 / (2.0 * math.pi), rel=1e-13)

    def test_unit_amplitude_variant(self):
        p = GaussParams(1.5, 0.7)
        assert gaussian_eval(p, 0.0, d=3, unit_amplitude=True) == pytest.approx(2.25)
        k = GaussianKernel(p, d=1, unit_amplitude=True)
        assert k(0.7) == pytest.approx(2.25 * math.exp(-0.5))


def _random_design(rng, n, d):
    """Distinct random points with protected separation."""
    while True:
        pts = rng.random((n, d))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() > 0.05 / n:
            return Design(pts, Box.unit(d))


class TestKernelMatrix:
    def test_single_point(self):
        des = Design([[0.3]], Box.unit(1))
        K = kernel_matrix(MaternKernel(matern(1.5, sigma=1.4)), des)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(1.4**2)

    def test_two_point_exponential(self):
        des = Design([[0.1], [0.6]], Box.unit(1))
        K = kernel_matrix(MaternKernel(MaternParams(0.5, 1.0, 1.0, STANDARD_SCALING)), des)
        np.testing.assert_allclose(
            K, [[1.0, math.exp(-0.5)], [math.exp(-0.5), 1.0]], rtol=1e-12)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(5)
        des = _random_design(rng, 20, 2)
        K = kernel_matrix(MaternKernel(matern(2.5, lambda_=0.4, d=2)), des)
        assert np.array_equal(K, K.T)

    def test_five_point_grid_is_positive_definite(self):
        des = Design(np.linspace(0, 1, 5), Box.unit(1))
        K = kernel_matrix(MaternKernel(matern(1.5, lambda_=0.3)), des)
        L = np.linalg.cholesky(K)
        assert np.all(np.diag(L) > 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 4.0])
    def test_positive_definiteness_random_sets(self, d, nu):
        rng = np.random.default_rng(1000 + d * 17 + int(10 * nu))
        n = 64
        des = _random_design(rng, n, d)
        lam = 0.5 * math.sqrt(2.0 * nu) * n ** (-1.0 / d)
        K = kernel_matrix(MaternKernel(matern(nu, lambda_=lam, d=d)), des)
        L = np.linalg.cholesky(K)
        assert np.all(np.diag(L) > 0)

    def test_duplicate_points_rejected(self):
        des = Design.__new__(Design)  # bypass the constructor duplicate check
        pts = np.array([[0.2], [0.2], [0.8]])
        pts.setflags(write=False)
        des.points = pts
        des.box = Box.unit(1)
        with pytest.raises(DegenerateDesignError):
            kernel_matrix(MaternKernel(matern(1.5)), des)


class _Counting(MaternKernel):
    """A Matern kernel that records every distance array it evaluates, and its size."""

    def __init__(self, params):
        super().__init__(params)
        self.calls, self.arguments = [], []

    def at_distances(self, r):
        self.calls.append(r.size)
        self.arguments.append(r)
        return super().at_distances(r)


class TestKernelPanels:
    def test_lattice_distances_take_one_call(self):
        # At most 64 distinct nonzero distances among 64 points: one call
        # before the first panel, whatever the panels.
        design = van_der_corput(Box.unit(1), 64)
        kernel = _Counting(matern(1.5, lambda_=0.3))
        panels = list(kernel_panels(kernel, design, [16, 32, 64]))
        assert kernel.calls == [design._dist_cache.distances.size]
        assert kernel.calls[0] <= 64 + 1
        K = kernel_matrix(MaternKernel(kernel.params), Design(design.points, design.box))
        for (a, b), panel in zip([(0, 16), (16, 32), (32, 64)], panels):
            assert np.array_equal(panel, K[a:b, :b])

    @pytest.mark.parametrize("design, m", [
        (van_der_corput(Box.unit(1), 256), 64), (van_der_corput(Box.unit(1), 256), 128),
        (van_der_corput(Box.unit(1), 256), 256), (uniform_grid(Box.unit(1), 129), 129),
    ])
    def test_lattice_call_takes_ascending_distances(self, design, m):
        # The one call of a lattice-like design, on its own table or on a
        # prefix that shares it, gets its distances ascending across the
        # table's panels, so the Bessel evaluation sorts nothing, and the
        # panels keep the bits of the prefix's own kernel matrix.
        kernel = _Counting(matern(1.5, lambda_=0.3))
        panels = list(kernel_panels(kernel, design.prefix(m), [m]))
        (r,) = kernel.arguments
        assert r.size == _distinct(design.points[:m]) and np.all(np.diff(r) > 0.0)
        K = kernel_matrix(MaternKernel(kernel.params), Design(design.points[:m], design.box))
        assert np.array_equal(panels[0], K)

    def test_distinct_distances_are_evaluated_per_panel(self):
        # All distances distinct: each panel evaluates its own, when it is
        # requested, so a factorization that stops early evaluates no more.
        rng = np.random.default_rng(3)
        design = Design(rng.random((64, 2)), Box.unit(2))
        kernel = _Counting(matern(1.5, lambda_=0.3, d=2))
        panels = kernel_panels(kernel, design, [16, 32, 64])
        next(panels)
        assert kernel.calls == [1 + 16 * 15 // 2]
        list(panels)
        assert kernel.calls == [1 + 16 * 15 // 2, (32 * 31 - 16 * 15) // 2,
                                (64 * 63 - 32 * 31) // 2]


def _jittered_van_der_corput(n, seed):
    """Van der Corput points moved by up to a quarter of their spacing: all
    pairwise distances distinct, as in a scattered design."""
    base = van_der_corput(Box.unit(1), n).points[:, 0]
    spacing = float(np.min(np.diff(np.sort(base))))
    rng = np.random.Generator(np.random.Philox(seed))
    return Design(np.clip(base + (2.0 * rng.random(n) - 1.0) * 0.25 * spacing, 0.0, 1.0),
                  Box.unit(1))


def _distinct(points):
    """Distinct pairwise distances among ``points``, the zero distance included."""
    diff = points[:, None, :] - points[None, :, :]
    return np.unique(np.sqrt((diff * diff).sum(-1))).size if len(points) else 0


class TestDistanceTable:
    """The numbering of distances by row panel, and prefixes that share it."""

    DESIGNS = {
        "jittered-1d": lambda: _jittered_van_der_corput(113, 4),
        "jittered-grid-2d": lambda: _jittered_grid(2, 150, 9),
        "van-der-corput": lambda: van_der_corput(Box.unit(1), 200),
    }

    @pytest.fixture(params=sorted(DESIGNS))
    def design(self, request):
        design = self.DESIGNS[request.param]()
        kernel_matrix(MaternKernel(matern(1.5, lambda_=0.3, d=design.d)), design)
        return design

    def test_each_panel_numbers_its_new_distances_ascending(self, design):
        # Each panel's numbers are the distances whose first pair lies in
        # its rows, ascending.
        points = design.points
        first_row = {}
        for i in range(design.n):
            diff = points[i] - points[:i]
            for r in np.sqrt((diff * diff).sum(-1)).tolist():
                first_row.setdefault(r, i)
        table = design._dist_cache
        assert table.distances[0] == 0.0
        for a, b in zip(table.bounds, table.bounds[1:]):
            lo, hi = max(table.count[a], 1), table.count[b]
            panel = table.distances[lo:hi]
            assert np.all(np.diff(panel) > 0.0)
            assert sorted(panel.tolist()) == sorted(r for r, i in first_row.items() if a <= i < b)
            assert hi == _distinct(points[:b])

    def test_every_shared_prefix_evaluates_its_own_distances(self, design):
        # Panel ends or not, and whatever the ends asked for: the panels of
        # a prefix that shares the table are the rows of its own kernel
        # matrix, and the kernel is evaluated at the distances new in each
        # panel (or, with at most m + 1 distinct, at all of them in one
        # call), each once.
        params = matern(2.5, lambda_=0.2, d=design.d)
        for m in range(1, design.n + 1):
            K = kernel_matrix(MaternKernel(params), Design(design.points[:m], design.box))
            for ends in (_panel_ends(m), sorted({(m + 2) // 3, (2 * m + 2) // 3, m})):
                kernel = _Counting(params)
                panels = list(kernel_panels(kernel, design.prefix(m), ends))
                for (a, b), panel in zip(zip([0] + ends, ends), panels):
                    assert np.array_equal(panel, K[a:b, :b])
                distinct = [_distinct(design.points[:b]) for b in [0] + ends]
                if distinct[-1] <= m + 1:
                    assert kernel.calls == [distinct[-1]], (m, ends)
                else:
                    assert kernel.calls == [b - a for a, b in zip(distinct, distinct[1:])
                                            if b > a], (m, ends)
