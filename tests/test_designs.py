"""Design generators, fill distances and separations, quasi-uniformity."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maternsmooth.designs import (
    Box,
    Design,
    _separations,
    fill_distance,
    fill_distances,
    uniform_grid,
    van_der_corput,
)
from maternsmooth.errors import DegenerateDesignError, DomainError
from maternsmooth.estimators import sweep_prefixes

UNIT = Box.unit(1)
UNIT2 = Box.unit(2)


class TestGenerators:
    def test_grid_m3_order(self):
        np.testing.assert_array_equal(uniform_grid(UNIT, 3).points.ravel(), [0.0, 1.0, 0.5])

    def test_grid_m5_order(self):
        np.testing.assert_array_equal(
            uniform_grid(UNIT, 5).points.ravel(), [0.0, 1.0, 0.5, 0.25, 0.75])

    def test_grid_2d_m2_is_corners(self):
        pts = uniform_grid(UNIT2, 2).points
        assert sorted(map(tuple, pts)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_grid_corners_come_first(self):
        pts = uniform_grid(UNIT2, 5).points
        assert sorted(map(tuple, pts[:4])) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_vdc_first_points(self):
        np.testing.assert_array_equal(
            van_der_corput(UNIT, 6).points.ravel(), [0.0, 1.0, 0.5, 0.25, 0.75, 0.125])

    def test_vdc_on_shifted_interval(self):
        des = van_der_corput(Box((-2.0,), (2.0,)), 4)
        np.testing.assert_allclose(des.points.ravel(), [-2.0, 2.0, 0.0, -1.0])

    def test_prefix_is_a_view_of_the_front(self):
        des = van_der_corput(UNIT, 32)
        np.testing.assert_array_equal(des.prefix(7).points, des.points[:7])

    @pytest.mark.parametrize("size", [3.5, 3.0, True, np.bool_(True), "3", None])
    def test_generator_sizes_must_be_integers(self, size):
        with pytest.raises(DomainError, match="integer"):
            van_der_corput(UNIT, size)
        with pytest.raises(DomainError, match="integer"):
            uniform_grid(UNIT2, size)

    @pytest.mark.parametrize("size", [np.int64(5), np.int32(5)])
    def test_generators_take_numpy_integers(self, size):
        np.testing.assert_array_equal(van_der_corput(UNIT, size).points,
                                      van_der_corput(UNIT, 5).points)
        np.testing.assert_array_equal(uniform_grid(UNIT2, size).points,
                                      uniform_grid(UNIT2, 5).points)

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            uniform_grid(UNIT, 1)
        with pytest.raises(DomainError):
            van_der_corput(UNIT, 0)
        with pytest.raises(DomainError):
            van_der_corput(UNIT2, 4)
        with pytest.raises(DomainError):
            Box((0.0,), (0.0,))

    @pytest.mark.parametrize("build, message", [
        (lambda: Design(["0.1", "0.5", True], UNIT),
         "points must be integer or floating numbers, got ['0.1', '0.5', True]"),
        (lambda: Design([0.1, "0.5"], UNIT),
         "points must be integer or floating numbers, got [0.1, '0.5']"),
        (lambda: Design([0.1, math.nan], UNIT), "points must be finite, got [0.1, nan]"),
        (lambda: UNIT.contains([[math.inf]]), "points must be finite, got [[inf]]"),
        (lambda: Box(("0",), (True,)),
         "box corner lower must be integer or floating numbers, got ('0',)"),
        (lambda: Box((0.0,), (math.inf,)), "box corner upper must be finite, got (inf,)"),
        (lambda: Box((0.0,), (math.nan,)), "box corner upper must be finite, got (nan,)"),
    ], ids=["text-and-bool-points", "text-point", "nan-point", "infinite-probe",
            "text-and-bool-corners", "infinite-corner", "nan-corner"])
    def test_points_and_corners_are_finite_reals(self, build, message):
        # Both pass the one array rule of errors: nothing is converted.
        with pytest.raises(DomainError) as caught:
            build()
        assert str(caught.value) == message

    def test_numbers_of_other_real_types_are_taken_as_doubles(self):
        box = Box((0,), (np.float32(2.5),))
        assert box == Box((0.0,), (2.5,))
        assert [type(v) for v in box.lower + box.upper] == [float, float]
        design = Design(np.array([0, 2], dtype=np.int32), box)
        assert design.points.dtype == np.float64
        assert design.points.ravel().tolist() == [0.0, 2.0]


class TestDiagnostics:
    def test_fill_three_points(self):
        des = Design([[0.0], [0.5], [1.0]], UNIT)
        assert fill_distance(des) == pytest.approx(0.25, abs=2e-4)

    def test_fill_equispaced(self):
        for n in (5, 9, 17):
            des = Design(np.linspace(0, 1, n), UNIT)
            assert fill_distance(des) == pytest.approx(0.5 / (n - 1), abs=2e-4)

    def test_fill_vdc_prefix4(self):
        assert fill_distance(van_der_corput(UNIT, 4)) == pytest.approx(0.25, abs=2e-4)

    def test_fill_square_corners(self):
        assert fill_distance(uniform_grid(UNIT2, 2)) == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=0.02)

    def test_separation_examples(self):
        # Least squared distances between two points.
        assert _separations(Design([[0.0], [0.5], [1.0]], UNIT), [3]).tolist() == [0.25]
        assert _separations(van_der_corput(UNIT, 4), [1, 2, 3, 4]).tolist() == [
            math.inf, 1.0, 0.25, 0.0625]

    def test_separation_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pts = rng.random((32, 2))
        des = Design(pts, UNIT2)
        best = min(
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(32) for j in range(i + 1, 32)
        )
        assert _separations(des, [32])[0] == pytest.approx(best**2, rel=1e-12)

    def test_fill_monotone_along_prefixes(self):
        des = van_der_corput(UNIT, 256)
        fills = [fill_distance(des.prefix(n)) for n in (2, 3, 5, 9, 17, 33, 65, 129, 256)]
        assert all(b <= a + 1e-12 for a, b in zip(fills, fills[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            fill_distance(Design(np.zeros((0, 1)), UNIT))
        with pytest.raises(DomainError):
            fill_distance(van_der_corput(UNIT, 4), probe_resolution=32)


def dense_fill(design, resolution):
    """The fill distance from one array of every probe-to-point distance."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(design.box.lower,
                                                               design.box.upper)]
    probes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    d2 = np.sum((probes[:, None, :] - design.points[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.min(axis=1)).max())


def dense_closest(design):
    """The least squared distance of the strict upper triangle of every
    pair, ``inf`` for one point."""
    pts = design.points
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return float(np.min(d2[np.triu_indices(design.n, k=1)], initial=np.inf))


def mesh_ratios(design, sizes, resolution=None):
    """Per prefix size, the fill distance over the separation (half the
    least distance between two points), and the fill distance times
    ``n**(1/d)``."""
    fills = np.array(fill_distances(design, sizes, resolution))
    separations = 0.5 * np.sqrt(_separations(design, sizes))
    return fills / separations, fills * np.array(sizes) ** (1.0 / design.d)


class TestOnePass:
    @pytest.mark.parametrize("d, n, resolution", [(1, 200, 4097), (1, 40, 64), (2, 60, 129),
                                                  (2, 36, 70)])
    def test_equals_the_dense_formulas(self, d, n, resolution):
        rng = np.random.default_rng(n)
        des = Design(rng.random((n, d)), Box.unit(d))
        sizes = [1, 2, 3, 17, n // 2, n]
        assert fill_distances(des, sizes, resolution) == [
            dense_fill(des.prefix(m), resolution) for m in sizes]
        assert _separations(des, sizes).tolist() == [dense_closest(des.prefix(m))
                                                     for m in sizes]

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=1e-3, max_value=1e3),
           st.integers(min_value=64, max_value=300), st.integers(min_value=1, max_value=80),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_line_neighbours_equal_the_dense_formula(self, lo, width, resolution, n, seed):
        # A design on a line with both box ends among its points and some
        # points on probes: each probe's two neighbours in the sorted prefix
        # give the fill distance of the dense pass bit for bit.
        hi = lo + width
        rng = np.random.Generator(np.random.Philox(seed))
        probes = np.linspace(lo, hi, resolution)
        points = np.concatenate(([lo, hi], probes[rng.integers(0, resolution, n // 2)],
                                 lo + width * rng.random(n)))
        points = rng.permutation(points)
        _, keep = np.unique(points, return_index=True)
        des = Design(points[np.sort(keep)], Box((lo,), (hi,)))
        sizes = sorted({des.n} | {int(m) for m in rng.integers(1, des.n + 1, 4)})
        assert fill_distances(des, sizes, resolution) == [
            dense_fill(des.prefix(m), resolution) for m in sizes]

    def test_fill_pass_memory_is_bounded(self):
        # A dense pass over 1024 points and 129**2 probes holds about 260 MB.
        des = Design(uniform_grid(UNIT2, 33).points[:1024], UNIT2)
        tracemalloc.start()
        try:
            fill_distances(des, [16, 64, 256, 1024])
            _separations(des, [des.n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("sizes", [[4, 2], [0, 4], [2.5], [True], [17]])
    def test_sizes_are_checked(self, sizes):
        with pytest.raises(DomainError):
            fill_distances(van_der_corput(UNIT, 16), sizes)

    @pytest.mark.parametrize("resolution", [64.9, 64.0, "80", True, np.bool_(True), 63])
    def test_probe_resolution_must_be_an_integer_of_at_least_64(self, resolution):
        des = van_der_corput(UNIT, 8)
        with pytest.raises(DomainError, match="probe_resolution"):
            fill_distance(des, resolution)
        with pytest.raises(DomainError, match="probe_resolution"):
            fill_distances(des, [2, 8], resolution)

    def test_numpy_integer_probe_resolution(self):
        des = van_der_corput(UNIT, 8)
        assert fill_distance(des, np.int64(65)) == fill_distance(des, 65)


class TestTreeQueries:
    def test_one_dimensional_sweep_never_imports_scipy_spatial(self):
        # The k-d tree serves d >= 2 and separations only: a run on a line
        # does not pay the import of scipy.spatial.
        code = ("import sys\n"
                "import numpy as np\n"
                "import maternsmooth\n"
                "from maternsmooth.designs import Box, van_der_corput\n"
                "from maternsmooth.estimators import sweep_prefixes\n"
                "design = van_der_corput(Box.unit(1), 32)\n"
                "y = np.sin(7.0 * design.points[:, 0])\n"
                "records = sweep_prefixes(design, y, [8, 16, 32])\n"
                "assert len(records) == 3 and all(r.fill > 0 for r in records)\n"
                "print('scipy.spatial' in sys.modules)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("d", [4, 8])
    def test_separations_in_higher_dimensions_equal_the_dense_formula(self, d):
        # In d = 8 the tree's own distances differ from the formula's in
        # the last bit; the re-ranked candidates give the formula's value.
        rng = np.random.default_rng(d)
        des = Design(rng.random((300, d)), Box.unit(d))
        for m in (2, 3, 50, 300):
            assert _separations(des.prefix(m), [m])[0] == dense_closest(des.prefix(m))

    def test_two_dimensional_fill_starts_no_thread(self, monkeypatch):
        # Every tree query runs on the calling thread (workers=1, the
        # default), and nothing starts a Python thread.
        from scipy import spatial

        started, workers = [], []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread.name)
            start(thread)

        class Tree(spatial.cKDTree):
            def query(self, *args, **kwargs):
                workers.append(kwargs.get("workers", 1))
                return super().query(*args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", recording)
        monkeypatch.setattr(spatial, "cKDTree", Tree)
        before = threading.active_count()
        fill_distances(uniform_grid(UNIT2, 17), [9, 25, 289])
        assert workers and set(workers) == {1}
        assert started == [] and threading.active_count() == before


class TestQuasiUniformity:
    def test_vdc_band(self):
        des = van_der_corput(UNIT, 4096)
        schedule = [2, 4, 8, 16, 64, 256, 1024, 4096]
        mesh, ratios = mesh_ratios(des, schedule)
        assert 0.5 <= min(ratios) and max(ratios) <= 2.0
        assert max(ratios) / min(ratios) <= 8.0
        assert max(mesh) <= 4.0

    def test_vdc_every_prefix_mesh_bounded(self):
        des = van_der_corput(UNIT, 64)
        mesh, _ = mesh_ratios(des, list(range(2, 65)), 2049)
        assert max(mesh) <= 4.0

    def test_grid_2d_band(self):
        des = uniform_grid(UNIT2, 33)
        schedule = [4, 9, 25, 81, 289, 1089]
        mesh, ratios = mesh_ratios(des, schedule, 96)
        assert max(ratios) / min(ratios) <= 8.0
        assert max(mesh) <= 4.0

    def test_generic_lower_bound(self):
        # fill * n^(1/d) is bounded below for any point set
        des = van_der_corput(UNIT, 512)
        _, ratios = mesh_ratios(des, [2, 8, 32, 128, 512])
        assert min(ratios) >= 0.4

    def test_equispaced_mesh_ratio_is_one(self):
        des = Design(np.linspace(0, 1, 33), UNIT)
        mesh, _ = mesh_ratios(des, [33])
        assert mesh[0] == pytest.approx(1.0, rel=2e-2)

    def test_clustered_pair_blows_up_mesh_ratio(self):
        base = van_der_corput(UNIT, 16).points.ravel()
        des = Design(np.append(base, 0.5 + 1e-7), UNIT)
        mesh, _ = mesh_ratios(des, [des.n])
        assert mesh[0] > 1e4

    def test_schedule_validation(self):
        des = van_der_corput(UNIT, 8)
        with pytest.raises(DomainError):
            fill_distances(des, [4, 2])
        with pytest.raises(DomainError):
            fill_distances(des, [16])

    @pytest.mark.parametrize("schedule", [[2.7, 9.9], [8, 8], [True], [0, 4], [4.0]])
    def test_schedule_must_hold_ascending_integer_sizes(self, schedule):
        # Each size is checked as every integer setting is, then the order.
        if schedule == [8, 8]:
            message = "schedule (8, 8) must be strictly ascending"
        else:
            message = (f"schedule {tuple(schedule)}: each size must be an integer >= 1, "
                       f"got {schedule[0]!r}")
        with pytest.raises(DomainError) as caught:
            fill_distances(van_der_corput(UNIT, 16), schedule)
        assert str(caught.value) == message

    @pytest.mark.parametrize("run", [fill_distances,
                                     lambda des, schedule: sweep_prefixes(des, np.zeros(des.n),
                                                                          schedule)],
                             ids=["fill_distances", "sweep_prefixes"])
    def test_schedule_past_the_design_is_refused_with_one_message(self, run):
        with pytest.raises(DomainError, match=r"^size 16 exceeds the design's 8 points$"):
            run(van_der_corput(UNIT, 8), [4, 16])


class TestDesignInvariants:
    def test_points_inside_box_enforced(self):
        with pytest.raises(DomainError):
            Design([[1.5]], UNIT)

    def test_duplicates_rejected(self):
        with pytest.raises(DegenerateDesignError):
            Design([[0.25], [0.25]], UNIT)

    def test_points_are_read_only(self):
        des = van_der_corput(UNIT, 4)
        with pytest.raises(ValueError):
            des.points[0, 0] = 0.3

    @pytest.mark.parametrize("size", [2.5, 3.0, True, np.bool_(True), "3", None])
    def test_prefix_size_must_be_an_integer(self, size):
        with pytest.raises(DomainError, match="integer"):
            van_der_corput(UNIT, 8).prefix(size)

    @pytest.mark.parametrize("size", [-1, 9, np.int64(9)])
    def test_prefix_size_must_lie_in_the_design(self, size):
        with pytest.raises(DomainError, match=r"prefix size must be an integer in \[0, 8\]"):
            van_der_corput(UNIT, 8).prefix(size)

    def test_numpy_integer_prefix_size(self):
        des = van_der_corput(UNIT, 8)
        assert des.prefix(np.int64(5)) is des.prefix(5)
        assert des.prefix(np.int32(8)) is des
