"""Design generators, quasi-uniformity diagnostics, and serialization."""

import math

import numpy as np
import pytest

from maternsmooth.designs import (
    Box,
    Design,
    fill_distance,
    load_design,
    save_design,
    separation_distance,
    uniform_grid,
    uniformity_report,
    van_der_corput,
)
from maternsmooth.errors import DegenerateDesignError, DomainError

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

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            uniform_grid(UNIT, 1)
        with pytest.raises(DomainError):
            van_der_corput(UNIT, 0)
        with pytest.raises(DomainError):
            van_der_corput(UNIT2, 4)
        with pytest.raises(DomainError):
            Box((0.0,), (0.0,))


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
        assert separation_distance(Design([[0.0], [0.5], [1.0]], UNIT)) == 0.25
        assert separation_distance(van_der_corput(UNIT, 4)) == 0.125

    def test_separation_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pts = rng.random((32, 2))
        des = Design(pts, UNIT2)
        best = min(
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(32) for j in range(i + 1, 32)
        )
        assert separation_distance(des) == pytest.approx(0.5 * best, rel=1e-12)

    def test_fill_monotone_along_prefixes(self):
        des = van_der_corput(UNIT, 256)
        fills = [fill_distance(des.prefix(n)) for n in (2, 3, 5, 9, 17, 33, 65, 129, 256)]
        assert all(b <= a + 1e-12 for a, b in zip(fills, fills[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            fill_distance(Design(np.zeros((0, 1)), UNIT))
        with pytest.raises(DomainError):
            fill_distance(van_der_corput(UNIT, 4), probe_resolution=32)
        with pytest.raises(DomainError):
            separation_distance(Design([[0.5]], UNIT))


class TestUniformityReports:
    def test_vdc_band(self):
        des = van_der_corput(UNIT, 4096)
        schedule = [2, 4, 8, 16, 64, 256, 1024, 4096]
        reports = uniformity_report(des, schedule)
        ratios = [r.ratio_upper for r in reports]
        mesh = [r.mesh_ratio for r in reports]
        assert 0.5 <= min(ratios) and max(ratios) <= 2.0
        assert max(ratios) / min(ratios) <= 8.0
        assert max(mesh) <= 4.0

    def test_vdc_every_prefix_mesh_bounded(self):
        des = van_der_corput(UNIT, 64)
        reports = uniformity_report(des, list(range(2, 65)), probe_resolution=2049)
        assert max(r.mesh_ratio for r in reports) <= 4.0

    def test_grid_2d_band(self):
        des = uniform_grid(UNIT2, 33)
        schedule = [4, 9, 25, 81, 289, 1089]
        reports = uniformity_report(des, schedule, probe_resolution=96)
        ratios = [r.ratio_upper for r in reports]
        assert max(ratios) / min(ratios) <= 8.0
        assert max(r.mesh_ratio for r in reports) <= 4.0

    def test_generic_lower_bound(self):
        # fill * n^(1/d) is bounded below for any point set
        des = van_der_corput(UNIT, 512)
        reports = uniformity_report(des, [2, 8, 32, 128, 512])
        assert min(r.ratio_upper for r in reports) >= 0.4

    def test_equispaced_mesh_ratio_is_one(self):
        des = Design(np.linspace(0, 1, 33), UNIT)
        rep = uniformity_report(des, [33])[0]
        assert rep.mesh_ratio == pytest.approx(1.0, rel=2e-2)

    def test_clustered_pair_blows_up_mesh_ratio(self):
        base = van_der_corput(UNIT, 16).points.ravel()
        des = Design(np.append(base, 0.5 + 1e-7), UNIT)
        rep = uniformity_report(des, [des.n])[0]
        assert rep.mesh_ratio > 1e4

    def test_schedule_validation(self):
        des = van_der_corput(UNIT, 8)
        with pytest.raises(DomainError):
            uniformity_report(des, [4, 2])
        with pytest.raises(DomainError):
            uniformity_report(des, [16])


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
        with pytest.raises(DomainError, match="outside"):
            van_der_corput(UNIT, 8).prefix(size)

    def test_numpy_integer_prefix_size(self):
        des = van_der_corput(UNIT, 8)
        assert des.prefix(np.int64(5)) is des.prefix(5)
        assert des.prefix(np.int32(8)) is des


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        des = Design(rng.random((17, 2)), UNIT2)
        path = tmp_path / "design.txt"
        save_design(des, path)
        back = load_design(path, box=UNIT2)
        np.testing.assert_array_equal(back.points, des.points)

    def test_header_format(self, tmp_path):
        des = van_der_corput(UNIT, 5)
        path = tmp_path / "design.txt"
        save_design(des, path)
        assert path.read_text().splitlines()[0] == "1 5"

    def test_inferred_box_covers_generated_designs(self, tmp_path):
        des = van_der_corput(Box((-1.0,), (3.0,)), 8)
        path = tmp_path / "design.txt"
        save_design(des, path)
        back = load_design(path)
        assert back.box == des.box
