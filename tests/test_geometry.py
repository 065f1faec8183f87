import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmloc.geometry import MAX_RINGS, Point3, TowerSite, distance, hex_cell_layout

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point3, coords, coords, coords)


def test_distance_identity():
    assert distance(Point3(0, 0, 0), Point3(0, 0, 0)) == 0.0


def test_distance_3_4_5_triangle():
    assert distance(Point3(0, 0, 0), Point3(3, 4, 0)) == 5.0


def test_distance_unit_diagonal():
    # oracle: direct norm evaluation of (1,1,1)
    expected = math.sqrt(1.0 + 1.0 + 1.0)
    assert distance(Point3(0, 0, 0), Point3(1, 1, 1)) == pytest.approx(expected, rel=1e-15)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point3(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Point3(0, math.inf, 0)


@pytest.mark.parametrize("name", ["x", "y", "z"])
def test_point_names_the_non_finite_field(name):
    coords = {"x": 1.0, "y": 2.0, "z": 3.0, name: math.nan}
    with pytest.raises(ValueError, match=rf"^Point3\.{name} must be finite, got nan$"):
        Point3(**coords)


def test_tower_rejects_negative_id():
    with pytest.raises(ValueError):
        TowerSite(-1, Point3(0, 0, 0))


@given(points, points)
def test_distance_symmetric(a, b):
    assert distance(a, b) == distance(b, a)
    assert distance(a, b) >= 0.0


@given(points, points, points)
def test_distance_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestHexCellLayout:
    def test_single_ring(self):
        towers = hex_cell_layout(Point3(0, 0, 0), 10.0, 1)
        assert len(towers) == 6
        first = towers[0].position
        assert (first.x, first.y, first.z) == pytest.approx((10.0, 0.0, 0.0), abs=1e-12)
        for t in towers:
            assert distance(t.position, Point3(0, 0, 0)) == pytest.approx(10.0, abs=1e-9)

    def test_two_rings_counts_and_distances(self):
        center = Point3(5.0, -2.0, 30.0)
        towers = hex_cell_layout(center, 100.0, 2)
        assert len(towers) == 18
        for k, group in ((1, towers[:6]), (2, towers[6:])):
            for t in group:
                assert distance(t.position, center) == pytest.approx(k * 100.0, abs=1e-9)

    def test_planar_at_center_z(self):
        towers = hex_cell_layout(Point3(1, 2, 7.5), 50.0, 3)
        assert all(t.position.z == 7.5 for t in towers)

    def test_ids_contiguous_from_zero(self):
        towers = hex_cell_layout(Point3(0, 0, 0), 1.0, 3)
        assert [t.id for t in towers] == list(range(len(towers)))
        assert len(towers) == 6 + 12 + 18

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hex_cell_layout(Point3(0, 0, 0), 0.0, 1)
        with pytest.raises(ValueError):
            hex_cell_layout(Point3(0, 0, 0), -3.0, 1)
        for radius in (math.nan, math.inf):
            with pytest.raises(ValueError, match="radius"):
                hex_cell_layout(Point3(0, 0, 0), radius, 1)
        with pytest.raises(ValueError):
            hex_cell_layout(Point3(0, 0, 0), 10.0, 0)

    @pytest.mark.parametrize("n_rings", [1.5, 2.0, True])
    def test_rejects_a_ring_count_that_is_not_an_integer(self, n_rings):
        with pytest.raises(ValueError, match=f"n_rings must be an integer, got {n_rings!r}"):
            hex_cell_layout(Point3(0, 0, 0), 10.0, n_rings)

    def test_takes_a_numpy_integer_ring_count(self):
        assert hex_cell_layout(Point3(0, 0, 0), 10.0, np.int64(2)) == hex_cell_layout(Point3(0, 0, 0), 10.0, 2)

    def test_ring_bound(self):
        assert len(hex_cell_layout(Point3(0, 0, 0), 10.0, MAX_RINGS)) == 3 * MAX_RINGS * (MAX_RINGS + 1)
        with pytest.raises(ValueError, match="n_rings must be in \\[1, 100\\], got 101"):
            hex_cell_layout(Point3(0, 0, 0), 10.0, MAX_RINGS + 1)
