"""Kernel evaluation: normalisation, closed forms, matrix assembly."""

import math

import numpy as np
import pytest

from maternsmooth import kernels
from maternsmooth.designs import Box, Design, uniform_grid, van_der_corput
from maternsmooth.errors import DegenerateDesignError, DomainError
from maternsmooth.estimators import EstimatorConfig
from maternsmooth.experiments import _jittered_grid
from maternsmooth.kernels import (
    MaternParams,
    _panel_ends,
    kernel_matrix,
    kernel_panels,
    log_c_scaling,
    matern_eval,
)
from maternsmooth.specfun import ORDER_MAX, log_bessel_k

SQRT2 = math.sqrt(2.0)


class TestScaling:
    def test_standard_at_one(self):
        assert log_c_scaling(1.0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_clamp_active_below_half_dimension(self):
        assert log_c_scaling(0.5, 2) == pytest.approx(0.0, abs=1e-14)
        # above the threshold the clamp is inactive
        assert log_c_scaling(1.7, 2) == log_c_scaling(1.7, 1)

    def test_standard_at_two_point_five(self):
        # 2^{-1.5} / Gamma(2.5), frozen 40-digit value
        assert log_c_scaling(2.5, 1) == pytest.approx(
            math.log(0.2659615202676217853), abs=1e-13)

    def test_clamped_bounded_away_from_zero(self):
        floor = log_c_scaling(0.5, 1)
        nus = np.geomspace(1e-4, 0.5, 50)
        vals = [log_c_scaling(float(nu), 1) for nu in nus]
        assert min(vals) == pytest.approx(floor)

    def test_validation(self):
        with pytest.raises(DomainError):
            log_c_scaling(0.0, 1)


# A dimension is an integer >= 1, Python or NumPy, and not a bool; nothing
# rounds or coerces it.
BAD_DIMENSIONS = [0, -1, 1.5, 2.9, 2.0, True, np.bool_(True), "2", None]


@pytest.mark.parametrize("d", BAD_DIMENSIONS)
@pytest.mark.parametrize("make", [
    lambda d: MaternParams(1.5, d=d),
    lambda d: log_c_scaling(1.5, d),
], ids=["MaternParams", "log_c_scaling"])
def test_bad_dimension_is_rejected(make, d):
    with pytest.raises(DomainError, match="dimension d must be an integer >= 1"):
        make(d)


def test_numpy_dimension_is_accepted():
    assert MaternParams(1.5, d=np.int64(2)).d == 2
    assert MaternParams(1.5, d=np.int32(2))(0.3) == MaternParams(1.5, d=2)(0.3)


@pytest.mark.parametrize("kind", [int, np.int64, np.float32])
def test_fields_compute_as_the_floats_of_their_values(kind):
    # A checked field is stored as its float: an int, or a float32 that
    # would otherwise round scalars to single precision, gives the bits of
    # the float of its value.
    r = np.array([0.0, 0.01, 0.3, 1.7, 40.0, 3e9])
    for nu, sigma, lambda_ in ((2, 3, 1), (1, 1, 2), (60, 2, 5)):
        given = [kind(v) for v in (nu, sigma, lambda_)]
        for d in (1, 2, 3):
            made = MaternParams(*given, d)(r)
            real = MaternParams(*map(float, given), d)(r)
            assert made.tobytes() == real.tobytes(), (nu, sigma, lambda_, d)


class TestMaternEval:
    def test_exponential_closed_form(self):
        p = MaternParams(0.5, 1.0, 1.0)
        assert matern_eval(p, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_value_at_zero_is_sigma_squared(self):
        for nu in (1.0, 2.5, 40.0, 300.0):
            p = MaternParams(nu, 1.7, 0.8)
            assert matern_eval(p, 0.0) == pytest.approx(1.7**2, rel=1e-12)
        # below d/2 the normalisation is frozen at c(d/2) = sqrt(2/pi)
        p = MaternParams(0.3, 1.7, 0.8)
        clamped = 1.7**2 * math.sqrt(2.0 / math.pi) * 2.0**-0.7 * math.gamma(0.3)
        assert matern_eval(p, 0.0) == pytest.approx(clamped, rel=1e-12)

    def test_three_halves_closed_form(self):
        p = MaternParams(1.5, 2.0, 1.0)
        ref = 4.0 * (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
        assert matern_eval(p, 1.0) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("nu,form", [
        (0.5, lambda r, lam: np.exp(-r / lam)),
        (1.5, lambda r, lam: (1 + math.sqrt(3) * r / lam) * np.exp(-math.sqrt(3) * r / lam)),
    ])
    def test_half_integer_profiles(self, nu, form):
        sigma, lam = 1.3, 0.7
        p = MaternParams(nu, sigma, lam)
        r = np.linspace(0.0, 10.0 * lam, 400)
        np.testing.assert_allclose(matern_eval(p, r), sigma**2 * form(r, lam), rtol=1e-10)

    def test_continuous_and_non_increasing(self):
        r = np.linspace(0.0, 5.0, 2000)
        for nu in (0.5, 1.5, 4.0, 25.0):
            vals = matern_eval(MaternParams(nu, 1.0, 1.0), r)
            assert np.all(np.diff(vals) <= 0.0)
            assert np.max(np.abs(np.diff(vals))) < 0.02

    def test_gaussian_limit(self):
        # standard scaling, sigma=1, lambda=sqrt(2): the limit kernel is
        # exp(-r^2/4); the sup gap shrinks monotonically in nu
        r = np.linspace(0.0, 3.0, 601)
        target = np.exp(-(r**2) / 4.0)
        sups = []
        for nu in (10.0, 50.0, 100.0):
            p = MaternParams(nu, 1.0, SQRT2)
            sups.append(float(np.max(np.abs(matern_eval(p, r) - target))))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] <= 0.01

    @pytest.mark.parametrize("nu", [0.7, 3.3, 16.0, 120.0])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_log_space_formula_and_caller_array(self, nu, zeros):
        # Bit for bit exp(log c + nu log x + log K_nu(x)), in that order, and
        # the caller's distances are never written.
        p = MaternParams(nu, 1.3, 0.05)
        r = np.geomspace(1e-4, 2.0, 300)
        if zeros:
            r[::7] = 0.0
        kept = r.copy()
        x = math.sqrt(2.0 * nu) / p.lambda_ * r[r > 0.0]
        want = np.full(r.shape, p._at_zero)
        want[r > 0.0] = np.exp(p._log_scale + nu * np.log(x) + log_bessel_k(nu, x))
        for got in (matern_eval(p, r), matern_eval(p, r.reshape(20, 15)).reshape(-1)):
            assert got.tobytes() == want.tobytes()
            assert r.tobytes() == kept.tobytes()

    def test_domain_errors(self):
        p = MaternParams(1.0, 1.0, 1.0)
        for bad in (-1.0, math.inf, math.nan, [0.5, 0.0, -2.0]):
            with pytest.raises(DomainError) as caught:
                p(bad)
            assert str(caught.value) == f"distances must be nonnegative and finite, got {bad!r}"
        with pytest.raises(DomainError):
            MaternParams(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            MaternParams(1.0, -2.0, 1.0)

    @pytest.mark.parametrize("kernel,r", [
        (MaternParams(1.5), "0.5"), (MaternParams(1.5), True), (MaternParams(1.5), ["0.5", "1"]),
        (MaternParams(1.5), [True, False]), (MaternParams(1.5), np.array([0.5], dtype=object)),
        (MaternParams(1.5), np.True_),
    ], ids=["matern-text", "matern-bool", "matern-text-list", "matern-bool-list",
            "matern-object-array", "matern-numpy-bool"])
    def test_distances_refuse_text_and_bools(self, kernel, r):
        # Distances are checked as Bessel arguments are: nothing converts
        # text or a bool into a number.
        with pytest.raises(DomainError) as caught:
            kernel(r)
        assert str(caught.value) == f"distances must be integer or floating numbers, got {r!r}"
        with pytest.raises(DomainError, match="must be integer or floating numbers"):
            log_bessel_k(1.0, r)

    def test_scaling_is_clamped_at_half_the_dimension(self):
        assert MaternParams(0.3, d=2)._log_scale == log_c_scaling(1.0, 2)


@pytest.mark.parametrize("make", [
    lambda v: MaternParams(1.5, v, v),
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


@pytest.mark.parametrize("field", ["nu", "sigma", "lambda_"])
@pytest.mark.parametrize("value,accepted", [
    (np.int64(2), True), (np.float32(0.5), True), (True, False), (np.bool_(True), False),
    (math.inf, False), (0.0, False), ("0.5", False),
])
def test_each_matern_field_is_checked_and_stored_as_a_float(field, value, accepted):
    # The smoothness, magnitude and length-scale are checked one by one:
    # the error names the field, and an accepted value is kept as the
    # Python float of what was given.
    given = dict(nu=1.5, sigma=1.0, lambda_=1.0)
    given[field] = value
    if accepted:
        stored = getattr(MaternParams(**given), field)
        assert type(stored) is float and stored == float(value)
    else:
        with pytest.raises(DomainError) as caught:
            MaternParams(**given)
        assert str(caught.value) == f"{field} must be positive and finite, got {value!r}"


@pytest.mark.parametrize("sigma, shown", [(1e200, "inf"), (1e-200, "0.0"),
                                          (np.float64(2e154), "inf")])
def test_magnitude_whose_square_is_not_a_positive_double_is_refused(sigma, shown):
    # sigma**2 scales every covariance: refused at construction, not left
    # to overflow when the first matrix is assembled.
    with pytest.raises(DomainError) as caught:
        MaternParams(1.5, sigma=sigma)
    assert str(caught.value) == f"sigma**2 must be positive and finite, got {shown}"


def test_order_above_the_bessel_ceiling_is_refused():
    # Up to the ceiling the record is a kernel; above it the Bessel layer
    # would return NaN, so the record refuses the order by name.
    assert MaternParams(ORDER_MAX).nu == ORDER_MAX
    with pytest.raises(DomainError) as caught:
        MaternParams(1e308)
    assert str(caught.value) == "nu must be at most 1e+06, got 1e+308"


@pytest.mark.parametrize("nu, lam", [(1.5, 1e-310), (1.5, 5e-324), (ORDER_MAX, 1e-306)])
def test_length_scale_whose_distance_scale_overflows_is_refused(nu, lam):
    # sqrt(2 nu) / lambda_ scales every distance: an infinite scale is the
    # record's fault, not that of the distances it is called on.
    with pytest.raises(DomainError) as caught:
        MaternParams(nu, lambda_=lam)
    assert str(caught.value) == (f"sqrt(2 nu) / lambda_ (nu={nu!r}, lambda_={lam!r}) must be "
                                 f"positive and finite, got inf")


@pytest.mark.parametrize("args", [("1.5",), (True,), (1.5, "1"), (1.5, True),
                                  (1.5, 1.0, "0.3")])
def test_matern_fields_refuse_text_and_bools(args):
    # The one constructor converts nothing: text is refused, not read as a
    # number, and so is a bool.
    with pytest.raises(DomainError, match="must be positive and finite"):
        MaternParams(*args)


@pytest.mark.parametrize("record,evaluate", [
    (MaternParams(0.5, 1.3, 0.4), matern_eval),
    (MaternParams(2.5, 0.8, 0.2, d=2), matern_eval),
    (MaternParams(0.3, 1.1, 0.7, d=3), matern_eval),
], ids=["matern-0.5", "matern-2.5-d2", "matern-0.3-d3-clamped"])
def test_record_call_is_its_evaluation(record, evaluate):
    # A record called on distances, scalar or array, gives its evaluation's
    # bits.
    r = np.array([[0.0, 0.05, 0.3], [1.0, 2.5, 0.0]])
    assert record(r).tobytes() == evaluate(record, r).tobytes()
    assert record(0.3) == evaluate(record, 0.3)
    assert record(0.0) == evaluate(record, 0.0)


@pytest.mark.parametrize("record,name", [
    (MaternParams(1.5, lambda_=0.3), "matern_eval"),
], ids=["matern"])
def test_record_call_reads_the_module_binding(record, name, monkeypatch):
    # A call looks its evaluation up in the module when it is made, so a
    # wrapper bound there in its place (as the benchmark's tracer binds one)
    # sees every call.
    seen, evaluate = [], getattr(kernels, name)

    def recorded(params, r):
        seen.append((params, r))
        return evaluate(params, r)

    monkeypatch.setattr(kernels, name, recorded)
    assert record(0.25) == evaluate(record, 0.25)
    assert seen == [(record, 0.25)]


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
        K = kernel_matrix(MaternParams(1.5, sigma=1.4), des)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(1.4**2)

    def test_two_point_exponential(self):
        des = Design([[0.1], [0.6]], Box.unit(1))
        K = kernel_matrix(MaternParams(0.5, 1.0, 1.0), des)
        np.testing.assert_allclose(
            K, [[1.0, math.exp(-0.5)], [math.exp(-0.5), 1.0]], rtol=1e-12)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(5)
        des = _random_design(rng, 20, 2)
        K = kernel_matrix(MaternParams(2.5, lambda_=0.4, d=2), des)
        assert np.array_equal(K, K.T)

    def test_five_point_grid_is_positive_definite(self):
        des = Design(np.linspace(0, 1, 5), Box.unit(1))
        K = kernel_matrix(MaternParams(1.5, lambda_=0.3), des)
        L = np.linalg.cholesky(K)
        assert np.all(np.diag(L) > 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 4.0])
    def test_positive_definiteness_random_sets(self, d, nu):
        rng = np.random.default_rng(1000 + d * 17 + int(10 * nu))
        n = 64
        des = _random_design(rng, n, d)
        lam = 0.5 * math.sqrt(2.0 * nu) * n ** (-1.0 / d)
        K = kernel_matrix(MaternParams(nu, lambda_=lam, d=d), des)
        L = np.linalg.cholesky(K)
        assert np.all(np.diag(L) > 0)

    def test_duplicate_points_rejected(self):
        des = Design.__new__(Design)  # bypass the constructor duplicate check
        pts = np.array([[0.2], [0.4], [0.8], [0.4]])
        pts.setflags(write=False)
        des.points = pts
        des.box = Box.unit(1)
        with pytest.raises(DegenerateDesignError, match="^duplicate points at indices 1 and 3$"):
            kernel_matrix(MaternParams(1.5), des)

    @pytest.mark.parametrize("points,first,second", [
        ([[0.3], [0.3]], 0, 1),
        ([[0.5], [0.1], [0.9], [0.7], [0.5]], 0, 4),
        ([[0.1, 0.2], [0.4, 0.4], [0.1, 0.2], [0.4, 0.4]], 0, 2),
        ([[0.9], [0.2], [0.6], [0.6], [0.2]], 2, 3),
    ], ids=["two-points", "first-and-last", "two-pairs-d2", "first-row-wins"])
    def test_duplicate_points_name_their_first_pair(self, points, first, second):
        # The pairs (j, i), j < i, are read row by row: the first pair of
        # equal points in that order is the one named.
        des = Design.__new__(Design)
        pts = np.array(points)
        pts.setflags(write=False)
        des.points = pts
        des.box = Box.unit(pts.shape[1])
        with pytest.raises(DegenerateDesignError) as caught:
            kernel_matrix(MaternParams(1.5), des)
        assert str(caught.value) == f"duplicate points at indices {first} and {second}"


class _Counting:
    """A Matern kernel that records every distance array it evaluates, and its size."""

    def __init__(self, params):
        self.params = params
        self.calls, self.arguments = [], []

    def __call__(self, r):
        self.calls.append(r.size)
        self.arguments.append(r)
        return self.params(r)


class TestKernelPanels:
    def test_lattice_distances_take_one_call(self):
        # At most 64 distinct nonzero distances among 64 points: one call
        # before the first panel, whatever the panels.
        design = van_der_corput(Box.unit(1), 64)
        kernel = _Counting(MaternParams(1.5, lambda_=0.3))
        panels = list(kernel_panels(kernel, design, [16, 32, 64]))
        assert kernel.calls == [design._dist_cache.distances.size]
        assert kernel.calls[0] <= 64 + 1
        K = kernel_matrix(kernel.params, Design(design.points, design.box))
        for (a, b), panel in zip([(0, 16), (16, 32), (32, 64)], panels):
            assert np.array_equal(panel, K[a:b, :b])

    @pytest.mark.parametrize("design, m", [
        (van_der_corput(Box.unit(1), 256), 64), (van_der_corput(Box.unit(1), 256), 128),
        (van_der_corput(Box.unit(1), 256), 256), (uniform_grid(Box.unit(1), 129), 129),
    ])
    def test_lattice_call_takes_the_prefix_distances(self, design, m):
        # The one call of a lattice-like design, on its own table or on a
        # prefix that shares it, gets the prefix's distinct distances, and
        # the panels keep the bits of the prefix's own kernel matrix.
        kernel = _Counting(MaternParams(1.5, lambda_=0.3))
        panels = list(kernel_panels(kernel, design.prefix(m), [m]))
        (r,) = kernel.arguments
        assert r.size == _distinct(design.points[:m])
        K = kernel_matrix(kernel.params, Design(design.points[:m], design.box))
        assert np.array_equal(panels[0], K)

    def test_distinct_distances_are_evaluated_per_panel(self):
        # All distances distinct: each panel evaluates its own, when it is
        # requested, so a factorization that stops early evaluates no more.
        rng = np.random.default_rng(3)
        design = Design(rng.random((64, 2)), Box.unit(2))
        kernel = _Counting(MaternParams(1.5, lambda_=0.3, d=2))
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
        kernel_matrix(MaternParams(1.5, lambda_=0.3, d=design.d), design)
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
        params = MaternParams(2.5, lambda_=0.2, d=design.d)
        for m in range(1, design.n + 1):
            K = kernel_matrix(params, Design(design.points[:m], design.box))
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
