import math

import numpy as np
import pytest
import trilateration_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from gsmloc import trilateration
from gsmloc.errors import DegenerateGeometryError, GsmlocError, InsufficientMeasurementsError
from gsmloc.geometry import Point3, TowerSite
from gsmloc.timing import SPEED_OF_LIGHT
from gsmloc.trilateration import (
    LEAST_SQUARES,
    NONNEGATIVE,
    NONPOSITIVE,
    THREE_TOWER_QUADRATIC,
    UNIQUE,
    RangeMeasurement,
    build_difference_system,
    multilaterate_lsq,
    residuals,
    solve_position,
)

RIGHT_TRIANGLE = [
    TowerSite(0, Point3(0, 0, 0)),
    TowerSite(1, Point3(10, 0, 0)),
    TowerSite(2, Point3(0, 10, 0)),
]


def ranges_from(true_point: Point3, towers) -> list[float]:
    """Oracle: exact ranges by direct norm evaluation."""
    return [
        math.sqrt(
            (true_point.x - t.position.x) ** 2
            + (true_point.y - t.position.y) ** 2
            + (true_point.z - t.position.z) ** 2
        )
        for t in towers
    ]


def random_noncollinear_towers(rng, scale=100.0, min_rel_area=1e-3):
    """Draw tower triples until the triangle is comfortably non-thin."""
    while True:
        pts = rng.uniform(-scale, scale, size=(3, 3))
        normal = np.cross(pts[1] - pts[0], pts[2] - pts[1])
        area = np.linalg.norm(normal) / 2.0
        longest = max(
            np.linalg.norm(pts[1] - pts[0]),
            np.linalg.norm(pts[2] - pts[1]),
            np.linalg.norm(pts[0] - pts[2]),
        )
        if area > min_rel_area * longest**2:
            return [TowerSite(i, Point3(*pts[i])) for i in range(3)]


class TestBuildDifferenceSystem:
    def test_symmetric_ranges_row(self):
        system = build_difference_system(RIGHT_TRIANGLE, [math.sqrt(50)] * 3)
        assert system.rows[0] == pytest.approx([20.0, 0.0, 0.0, 100.0])

    def test_cyclic_rows_sum_to_zero(self):
        system = build_difference_system(RIGHT_TRIANGLE, [math.sqrt(50)] * 3)
        total = system.rows[0] + system.rows[1] + system.rows[2]
        assert np.allclose(total, 0.0, atol=1e-9)

    def test_xi_cancellation_case(self):
        # r = (0, 10, 10): xi_1 = 0 - 100 - 0 + 100 = 0
        system = build_difference_system(RIGHT_TRIANGLE, [0.0, 10.0, 10.0])
        assert system.rows[0][3] == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_towers_rejected(self):
        towers = [RIGHT_TRIANGLE[0], TowerSite(1, Point3(0, 0, 0)), RIGHT_TRIANGLE[2]]
        with pytest.raises(DegenerateGeometryError):
            build_difference_system(towers, [1.0, 1.0, 1.0])

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError):
            build_difference_system(RIGHT_TRIANGLE[:2], [1.0, 1.0])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_satisfied_by_generating_point(self, seed):
        # oracle: any point consistent with the spheres satisfies every row
        rng = np.random.default_rng(seed)
        towers = random_noncollinear_towers(rng)
        true_point = Point3(*rng.uniform(-50, 50, size=3))
        ranges = ranges_from(true_point, towers)
        system = build_difference_system(towers, ranges)
        p = np.array(true_point.as_tuple())
        lhs = system.matrix @ p
        assert lhs == pytest.approx(system.rhs, rel=1e-9, abs=1e-6)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matrix_always_singular(self, seed):
        rng = np.random.default_rng(seed)
        towers = random_noncollinear_towers(rng)
        ranges = rng.uniform(0, 200, size=3).tolist()
        system = build_difference_system(towers, ranges)
        det = np.linalg.det(system.matrix)
        scale = np.prod([np.linalg.norm(row) for row in system.matrix])
        assert abs(det) <= 1e-6 * scale


class TestSolvePosition:
    def test_symmetric_in_plane_point(self):
        fix = solve_position(RIGHT_TRIANGLE, [math.sqrt(50)] * 3)
        assert fix.position.x == pytest.approx(5.0, abs=1e-6)
        assert fix.position.y == pytest.approx(5.0, abs=1e-6)
        assert fix.position.z == pytest.approx(0.0, abs=1e-6)
        assert fix.method == THREE_TOWER_QUADRATIC

    def test_elevated_point_nonnegative_branch(self):
        ranges = [math.sqrt(50), math.sqrt(90), math.sqrt(70)]
        fix = solve_position(RIGHT_TRIANGLE, ranges, z_convention=NONNEGATIVE)
        assert fix.position.x == pytest.approx(3.0, abs=1e-9)
        assert fix.position.y == pytest.approx(4.0, abs=1e-9)
        assert fix.position.z == pytest.approx(5.0, abs=1e-9)
        assert fix.z_branch == NONNEGATIVE
        assert max(fix.residuals) < 1e-6

    def test_elevated_point_nonpositive_branch(self):
        ranges = [math.sqrt(50), math.sqrt(90), math.sqrt(70)]
        fix = solve_position(RIGHT_TRIANGLE, ranges, z_convention=NONPOSITIVE)
        assert fix.position.z == pytest.approx(-5.0, abs=1e-9)
        assert fix.z_branch == NONPOSITIVE

    def test_collinear_towers_rejected(self):
        towers = [
            TowerSite(0, Point3(0, 0, 0)),
            TowerSite(1, Point3(1, 1, 1)),
            TowerSite(2, Point3(2, 2, 2)),
        ]
        with pytest.raises(DegenerateGeometryError):
            solve_position(towers, [1.0, 1.0, 1.0])

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            solve_position(RIGHT_TRIANGLE, [1.0, -1.0, 1.0])

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError):
            solve_position(RIGHT_TRIANGLE, [1.0, 1.0, 1.0], z_convention="sideways")

    def test_inconsistent_ranges_yield_large_residuals_not_error(self):
        fix = solve_position(RIGHT_TRIANGLE, [1.0, 1.0, 1.0])
        assert max(fix.residuals) > 1.0  # caller inspects

    def test_negative_discriminant_clamps_to_tower_plane(self):
        # shrink all ranges for an in-plane point so the spheres no longer meet
        true_point = Point3(3, 4, 0)
        ranges = [0.98 * r for r in ranges_from(true_point, RIGHT_TRIANGLE)]
        fix = solve_position(RIGHT_TRIANGLE, ranges)
        assert fix.z_clamped
        assert fix.position.z == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_recovers_generating_point(self, seed):
        rng = np.random.default_rng(seed)
        towers = random_noncollinear_towers(rng)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        # z bounded away from the tower plane so the branch is unambiguous
        xy = rng.uniform(-50, 50, size=2)
        base = np.array([t.position.as_tuple() for t in towers])
        normal = np.cross(base[1] - base[0], base[2] - base[1])
        normal /= np.linalg.norm(normal)
        if normal[2] < 0:
            normal = -normal
        in_plane = base[0] + rng.uniform(-0.5, 0.5) * (base[1] - base[0]) + rng.uniform(
            -0.5, 0.5
        ) * (base[2] - base[0])
        true_arr = in_plane + sign * rng.uniform(1.0, 60.0) * normal
        true_point = Point3(*true_arr)
        ranges = ranges_from(true_point, towers)
        convention = NONNEGATIVE if sign > 0 else NONPOSITIVE
        fix = solve_position(towers, ranges, z_convention=convention)
        est = np.array(fix.position.as_tuple())
        assert np.linalg.norm(est - true_arr) <= 1e-9 * max(1.0, np.linalg.norm(true_arr))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mirror_property(self, seed):
        rng = np.random.default_rng(seed)
        towers = random_noncollinear_towers(rng)
        true_point = Point3(*rng.uniform(-50, 50, size=3))
        ranges = ranges_from(true_point, towers)
        up = solve_position(towers, ranges, z_convention=NONNEGATIVE)
        down = solve_position(towers, ranges, z_convention=NONPOSITIVE)
        # both roots satisfy the spheres, so both are reflections across the
        # tower plane: midpoint must lie in that plane
        base = np.array([t.position.as_tuple() for t in towers])
        normal = np.cross(base[1] - base[0], base[2] - base[1])
        normal /= np.linalg.norm(normal)
        mid = (np.array(up.position.as_tuple()) + np.array(down.position.as_tuple())) / 2
        offset = float(normal @ (mid - base[0]))
        assert abs(offset) < 1e-6 * max(1.0, np.linalg.norm(mid))
        assert max(up.residuals) < 1e-6
        assert max(down.residuals) < 1e-6


class TestResiduals:
    def test_consistent_input_zero_residuals(self):
        ranges = [math.sqrt(50), math.sqrt(90), math.sqrt(70)]
        fix = solve_position(RIGHT_TRIANGLE, ranges)
        assert max(fix.residuals) < 1e-9

    def test_single_tower_values(self):
        tower = [TowerSite(0, Point3(3, 4, 0))]
        assert residuals(Point3(0, 0, 0), tower, [5.0]) == pytest.approx([0.0])
        assert residuals(Point3(0, 0, 0), tower, [6.0]) == pytest.approx([1.0])


class TestMultilaterate:
    TETRAHEDRON = [
        TowerSite(0, Point3(0, 0, 0)),
        TowerSite(1, Point3(10, 0, 0)),
        TowerSite(2, Point3(0, 10, 0)),
        TowerSite(3, Point3(0, 0, 10)),
    ]

    def test_exact_four_tower_solve(self):
        true_point = Point3(3, 4, 5)
        fix = multilaterate_lsq(self.TETRAHEDRON, ranges_from(true_point, self.TETRAHEDRON))
        assert fix.position.x == pytest.approx(3.0, abs=1e-9)
        assert fix.position.y == pytest.approx(4.0, abs=1e-9)
        assert fix.position.z == pytest.approx(5.0, abs=1e-9)
        assert fix.method == LEAST_SQUARES
        assert fix.z_branch == UNIQUE

    def test_round_trip_from_another_point(self):
        true_point = Point3(1, 2, 3)
        fix = multilaterate_lsq(self.TETRAHEDRON, ranges_from(true_point, self.TETRAHEDRON))
        est = np.array(fix.position.as_tuple())
        assert np.linalg.norm(est - [1, 2, 3]) < 1e-9

    def test_coplanar_towers_solve(self):
        flat = [
            TowerSite(0, Point3(0, 0, 0)),
            TowerSite(1, Point3(10, 0, 0)),
            TowerSite(2, Point3(0, 10, 0)),
            TowerSite(3, Point3(10, 10, 0)),
        ]
        ranges = ranges_from(Point3(3, 4, 5), flat)
        up = multilaterate_lsq(flat, ranges)
        down = solve_position(flat, ranges, NONPOSITIVE)
        assert up.position.as_tuple() == pytest.approx((3.0, 4.0, 5.0), abs=1e-9)
        assert down.position.as_tuple() == pytest.approx((3.0, 4.0, -5.0), abs=1e-9)
        assert (up.method, up.z_branch) == (LEAST_SQUARES, NONNEGATIVE)
        assert (down.method, down.z_branch) == (LEAST_SQUARES, NONPOSITIVE)

    def test_collinear_towers_rejected(self):
        line = [TowerSite(i, Point3(5.0 * i, 2.0 * i, -1.0 * i)) for i in range(5)]
        with pytest.raises(DegenerateGeometryError):
            multilaterate_lsq(line, [1.0] * 5)

    def test_needs_four_towers(self):
        with pytest.raises(InsufficientMeasurementsError):
            multilaterate_lsq(RIGHT_TRIANGLE, [1.0, 1.0, 1.0])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_three_tower_solve(self, seed):
        rng = np.random.default_rng(seed)
        towers3 = random_noncollinear_towers(rng)
        base = np.array([t.position.as_tuple() for t in towers3])
        normal = np.cross(base[1] - base[0], base[2] - base[1])
        normal /= np.linalg.norm(normal)
        if normal[2] < 0:
            normal = -normal
        true_arr = base.mean(axis=0) + rng.uniform(1.0, 40.0) * normal
        fourth = TowerSite(3, Point3(*(base[0] + 30.0 * normal)))
        towers4 = towers3 + [fourth]
        true_point = Point3(*true_arr)
        lsq = multilaterate_lsq(towers4, ranges_from(true_point, towers4))
        quad = solve_position(towers3, ranges_from(true_point, towers3), NONNEGATIVE)
        assert np.array(lsq.position.as_tuple()) == pytest.approx(
            np.array(quad.position.as_tuple()), abs=1e-9 * max(1.0, np.linalg.norm(true_arr))
        )


class TestRangeMeasurement:
    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            RangeMeasurement(RIGHT_TRIANGLE[0], 1e-6, -1.0)


def clock_ranges(mobile: Point3, towers, resolution: float) -> list[float]:
    """Ranges through a truncating round-trip clock (exact when resolution is 0)."""
    ranges = ranges_from(mobile, towers)
    if resolution == 0.0:
        return ranges
    return [math.floor(2.0 * r / SPEED_OF_LIGHT / resolution) * resolution * SPEED_OF_LIGHT / 2.0 for r in ranges]


def outcome(solver, *args):
    """A fix as a comparable tuple, or the type of the error the solver raised."""
    try:
        fix = solver(*args)
    except (GsmlocError, ValueError) as exc:
        return type(exc)
    return fix.position, fix.residuals, fix.method, fix.z_branch, fix.z_clamped


# Millimetre coordinates within a kilometre, or a coarse 100 m grid on which
# coincident and collinear towers and in-plane mobiles are common.
FINE = st.integers(-10**6, 10**6).map(lambda k: k / 1000.0)
COARSE = st.integers(-3, 3).map(lambda k: 100.0 * k)


@st.composite
def three_tower_cases(draw):
    value = draw(st.sampled_from([FINE, COARSE]))
    flat = draw(st.booleans())
    height = draw(value)
    towers = [
        TowerSite(i, Point3(draw(value), draw(value), height if flat else draw(value)))
        for i in range(3)
    ]
    in_plane = flat and draw(st.booleans())
    mobile = Point3(draw(value), draw(value), height if in_plane else draw(value))
    ranges = clock_ranges(mobile, towers, draw(st.sampled_from([0.0, 1e-9, 1e-8])))
    return towers, ranges, draw(st.sampled_from([NONNEGATIVE, NONPOSITIVE]))


def spread_towers(rng, n: int) -> list[TowerSite]:
    """n towers with height spread: never close to coplanar."""
    while True:
        pts = np.column_stack([rng.uniform(-1000, 1000, size=(n, 2)), rng.uniform(0, 300, size=n)])
        singular = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        if singular[2] > 1e-3 * singular[0]:
            return [TowerSite(i, Point3(*p)) for i, p in enumerate(pts)]


class TestAgainstOracle:
    """The solver must reproduce the pre-merge solvers exactly where they gave a fix."""

    @given(three_tower_cases())
    @settings(max_examples=500, deadline=None)
    def test_three_towers_match_oracle(self, case):
        towers, ranges, convention = case
        assert outcome(solve_position, towers, ranges, convention) == outcome(
            oracle.solve_position, towers, ranges, convention
        )

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(4, 8),
        st.sampled_from([0.0, 1e-9, 1e-8]),
    )
    @settings(max_examples=300, deadline=None)
    def test_height_spread_matches_oracle(self, seed, n, resolution):
        rng = np.random.default_rng(seed)
        towers = spread_towers(rng, n)
        mobile = Point3(*rng.uniform(-1500, 1500, size=2), rng.uniform(-100, 400))
        ranges = clock_ranges(mobile, towers, resolution)
        want = outcome(oracle.multilaterate_lsq, towers, ranges)
        assert outcome(multilaterate_lsq, towers, ranges) == want
        convention = NONNEGATIVE if seed % 2 else NONPOSITIVE
        assert outcome(solve_position, towers, ranges, convention) == want


def plane_basis(rng):
    """A unit normal with the solver's sign (first nonzero of z, x, y positive) and two in-plane axes.

    Either a plane tilted up to 80 degrees from flat, or one of the planes
    x = c, y = c, z = c, whose axes then have exact zeros.
    """
    axis = rng.integers(4)
    if axis < 3:
        normal = np.zeros(3)
        normal[axis] = 1.0
    else:
        tilt, azimuth = rng.uniform(0.0, math.radians(80.0)), rng.uniform(0.0, 2.0 * math.pi)
        normal = np.array([math.sin(tilt) * math.cos(azimuth), math.sin(tilt) * math.sin(azimuth), math.cos(tilt)])
    u = np.cross(normal, [0.0, 0.0, 1.0] if axis < 2 else [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    return normal, u, np.cross(normal, u)


class TestCoplanarTowers:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(4, 8))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_on_any_plane(self, seed, n):
        rng = np.random.default_rng(seed)
        normal, u, v = plane_basis(rng)
        origin = rng.uniform(-500, 500, size=3)
        while True:  # spread the towers over the plane, far from a line
            planar = rng.uniform(-500, 500, size=(n, 2))
            singular = np.linalg.svd(planar - planar.mean(axis=0), compute_uv=False)
            if singular[1] > 0.1 * singular[0]:
                break
        pts = origin + planar[:, :1] * u + planar[:, 1:] * v  # exact on the axis planes
        side = 1.0 if seed % 2 else -1.0
        truth = origin + rng.uniform(-300, 300) * u + rng.uniform(-300, 300) * v
        truth = truth + side * rng.uniform(1.0, 300.0) * normal
        towers = [TowerSite(i, Point3(*p)) for i, p in enumerate(pts)]
        fix = solve_position(towers, ranges_from(Point3(*truth), towers), NONNEGATIVE if side > 0 else NONPOSITIVE)
        scale = max(1.0, float(np.abs(pts).max()), float(np.linalg.norm(truth)))
        assert np.linalg.norm(np.array(fix.position.as_tuple()) - truth) <= 1e-9 * scale
        assert fix.method == LEAST_SQUARES


def scaled(value, exponent: int) -> float:
    return value * 10.0**exponent


@st.composite
def flat_tower_cases(draw):
    """4-8 towers on one plane of a grid: z = c, x = c, y = c, or the tilted z = x + c.

    Tower 0 sits either anywhere on the plane or at the centre of a ring of
    towers at equal offsets, so that several difference rows have the same
    length and the longest row is a tie.
    """
    value = draw(st.sampled_from([FINE, COARSE]))
    plane = draw(st.sampled_from(["z", "x", "y", "tilted"]))
    c = draw(value)
    n = draw(st.integers(4, 8))
    if draw(st.booleans()):
        uv = [(draw(value), draw(value)) for _ in range(n)]
    else:
        u0, v0, step = draw(value), draw(value), draw(st.sampled_from([1.0, 100.0, 0.125]))
        ring = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)]
        offsets = draw(st.permutations(ring))[: n - 1]
        uv = [(u0, v0)] + [(u0 + du * step, v0 + dv * step) for du, dv in offsets]
    place = {
        "z": lambda u, v: (u, v, c),
        "x": lambda u, v: (c, u, v),
        "y": lambda u, v: (u, c, v),
        "tilted": lambda u, v: (u, v, u + c),
    }[plane]
    towers = [TowerSite(i, Point3(*place(u, v))) for i, (u, v) in enumerate(uv)]
    mobile = Point3(draw(value), draw(value), draw(value))
    ranges = clock_ranges(mobile, towers, draw(st.sampled_from([0.0, 1e-9, 1e-8])))
    return towers, ranges, draw(st.sampled_from([NONNEGATIVE, NONPOSITIVE]))


@st.composite
def scaled_three_tower_cases(draw):
    """three_tower_cases with every coordinate and range scaled by 10**e, e in [-3, 6]."""
    towers, ranges, convention = draw(three_tower_cases())
    e = draw(st.integers(-3, 6))
    towers = [TowerSite(t.id, Point3(*(scaled(v, e) for v in t.position.as_tuple()))) for t in towers]
    return towers, [scaled(r, e) for r in ranges], convention


class TestAgainstNumpyOracle:
    """solve_position on floats must give the bits of the numpy 3-vector version."""

    def test_float_cross_and_row_length_match_numpy(self):
        # The row lengths only pick rows, so a last-bit difference would
        # rarely change a fix; compare them with numpy directly instead.
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 20000, 3)) * 10.0 ** rng.integers(-5, 6, size=(2, 20000, 3))
        pairs = list(zip(map(tuple, a.tolist()), map(tuple, b.tolist())))
        assert [trilateration._cross(u, v) for u, v in pairs] == list(map(tuple, np.cross(a, b).tolist()))
        assert [trilateration._length(u) for u, _ in pairs] == np.linalg.norm(a, axis=1).tolist()

    @given(flat_tower_cases())
    @settings(max_examples=500, deadline=None)
    def test_flat_towers_match_oracle(self, case):
        towers, ranges, convention = case
        assert outcome(solve_position, towers, ranges, convention) == outcome(
            oracle.solve_position_numpy, towers, ranges, convention
        )

    @given(scaled_three_tower_cases())
    @settings(max_examples=400, deadline=None)
    def test_scaled_three_towers_match_oracle(self, case):
        towers, ranges, convention = case
        assert outcome(solve_position, towers, ranges, convention) == outcome(
            oracle.solve_position_numpy, towers, ranges, convention
        )

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(4, 8),
        st.integers(-3, 6),
        st.sampled_from([NONNEGATIVE, NONPOSITIVE]),
    )
    @settings(max_examples=300, deadline=None)
    def test_scaled_height_spread_matches_oracle(self, seed, n, e, convention):
        rng = np.random.default_rng(seed)
        towers = [TowerSite(t.id, Point3(*(scaled(v, e) for v in t.position.as_tuple())))
                  for t in spread_towers(rng, n)]
        mobile = Point3(*(scaled(v, e) for v in (*rng.uniform(-1500, 1500, size=2), rng.uniform(-100, 400))))
        ranges = ranges_from(mobile, towers)
        assert outcome(solve_position, towers, ranges, convention) == outcome(
            oracle.solve_position_numpy, towers, ranges, convention
        )
