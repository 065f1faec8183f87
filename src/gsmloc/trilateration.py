"""Sphere-difference position solving from tower ranges.

Each (tower, range) pair constrains the unknown position p to a sphere
|p - T_i|^2 = r_i^2. Subtracting two spheres cancels the quadratic terms
and leaves a plane. Towers that are not coplanar give difference rows of
rank 3 and a unique position. Coplanar towers give rank 2: always so for
three towers, whose cyclic pairs (1,2), (2,3), (3,1) give rows that sum to
zero component-wise, and for any number of towers on flat ground. Those
rows fix only a line perpendicular to the tower plane (the radical line),
which meets the first sphere in at most two points, mirror images across
the tower plane; solve_position picks one by a caller supplied z
convention. multilaterate_lsq is solve_position for four or more towers.

Work on single 3-vectors is plain float arithmetic: the difference rows,
the cross products that give the tower-plane normal, and the lengths that
only rank rows or feed the collinearity threshold. A float cross product
is the same multiply and subtract that numpy's cross does, so it has the
same bits. numpy stays where its summation order defines the fix's bits:
np.linalg.lstsq, the np.linalg.norm that scales the plane normal to unit
length, and the dot products in _root_along_normal. numpy's dot sums in
its own order: a float version differs from it in the last bit for about
a third of random 3-vectors, and a float norm for about a tenth.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, InsufficientMeasurementsError
from .geometry import Point3, TowerSite, distance

# Root selection / solve diagnostics.
NONNEGATIVE = "nonnegative"
NONPOSITIVE = "nonpositive"
UNIQUE = "unique"

THREE_TOWER_QUADRATIC = "three-tower-quadratic"
LEAST_SQUARES = "least-squares"

# Tower triangles thinner than this (area relative to the squared longest
# side) are treated as collinear.
_COLLINEARITY_REL_AREA = 1e-9

_FIX_OVERFLOWS = "the fix overflows for these towers and ranges"

# Largest coordinate or range magnitude locate and simulate accept, in meters.
# The solver takes fourth powers of these (the squared length of the
# tower-plane normal), which overflow the largest double, about 1.8e308, above
# about 1.5e76.
MAX_MAGNITUDE = 1e75

Vector3 = tuple[float, float, float]


def check_magnitude(values, shown: str | Callable[[], str]) -> None:
    """Raise ConfigError unless every value is finite and at most MAX_MAGNITUDE in magnitude.

    shown names the values in the error; it may be a function that returns
    the name, called only when the check fails.
    """
    if not all(abs(v) <= MAX_MAGNITUDE for v in values):
        raise ConfigError(
            f"numbers must be finite and at most {MAX_MAGNITUDE:g} in absolute value,"
            f" got {shown() if callable(shown) else shown}"
        )


@dataclass(frozen=True)
class RangeMeasurement:
    """One tower's ranging result: raw turn-around time and derived distance."""

    tower: TowerSite
    turnaround: float  # seconds
    range_m: float  # one-way distance, meters

    def __post_init__(self):
        if self.range_m < 0:
            raise ValueError(f"range must be non-negative, got {self.range_m}")


@dataclass(frozen=True, eq=False)
class LinearSystem3:
    """The three cyclic sphere-difference rows (lambda, mu, sigma, xi).

    rows has shape (3, 4); row i states lambda*x + mu*y + sigma*z = xi.
    By construction rows[2] == -(rows[0] + rows[1]) up to rounding, which
    is why the system carries only two independent constraints.
    """

    rows: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The (3, 3) coefficient matrix [lambda, mu, sigma]."""
        return self.rows[:, :3]

    @property
    def rhs(self) -> np.ndarray:
        """The (3,) right-hand side xi."""
        return self.rows[:, 3]


@dataclass(frozen=True)
class LocationFix:
    """A solved position with per-tower residuals and solve diagnostics.

    Attributes:
        position: Estimated mobile coordinates.
        residuals: |distance(position, tower_i) - r_i| per input tower,
            in input order.
        method: THREE_TOWER_QUADRATIC for three towers, else LEAST_SQUARES.
        z_branch: Which quadratic root was taken (NONNEGATIVE / NONPOSITIVE)
            for coplanar towers, or UNIQUE otherwise.
        z_clamped: True when the quadratic discriminant was negative and the
            fix was forced onto the tower plane; inconsistency then shows up
            in the residuals.
    """

    position: Point3
    residuals: tuple[float, ...]
    method: str
    z_branch: str
    z_clamped: bool = False


def _cross(a: Vector3, b: Vector3) -> Vector3:
    """a x b, each component one product minus another, as numpy's cross computes it."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _length(v: Vector3) -> float:
    """|v|, summed in the order np.linalg.norm(..., axis=1) sums a row."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _difference_row(ta: Point3, tb: Point3, ra: float, rb: float) -> tuple[float, float, float, float]:
    lam = 2.0 * (tb.x - ta.x)
    mu = 2.0 * (tb.y - ta.y)
    sig = 2.0 * (tb.z - ta.z)
    norm_a = ta.x * ta.x + ta.y * ta.y + ta.z * ta.z
    norm_b = tb.x * tb.x + tb.y * tb.y + tb.z * tb.z
    xi = ra * ra - rb * rb - norm_a + norm_b
    return lam, mu, sig, xi


def _cyclic_rows(towers: list[TowerSite], ranges: list[float]) -> list[tuple[float, float, float, float]]:
    """The rows for tower pairs (0, 1), (1, 2), (2, 0), in that order."""
    rows = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        lam, mu, sig, xi = _difference_row(
            towers[a].position, towers[b].position, ranges[a], ranges[b]
        )
        if lam == 0.0 and mu == 0.0 and sig == 0.0:
            raise DegenerateGeometryError(
                f"towers {towers[a].id} and {towers[b].id} share a position"
            )
        rows.append((lam, mu, sig, xi))
    return rows


def build_difference_system(towers: list[TowerSite], ranges: list[float]) -> LinearSystem3:
    """Build the three cyclic sphere-difference rows for a 3-tower solve.

    Row i pairs spheres (i, i+1 mod 3); for pair (a, b) the coefficients are
    lambda = 2(x_b - x_a), mu = 2(y_b - y_a), sigma = 2(z_b - z_a) and
    xi = r_a^2 - r_b^2 - |T_a|^2 + |T_b|^2.

    Raises:
        DegenerateGeometryError: if two towers share a position (the pair
            would contribute an all-zero coefficient row).
    """
    if len(towers) != 3 or len(ranges) != 3:
        raise ValueError(f"need exactly 3 towers and 3 ranges, got {len(towers)} and {len(ranges)}")
    return LinearSystem3(np.array(_cyclic_rows(towers, ranges), dtype=float))


def residuals(position: Point3, towers: list[TowerSite], ranges: list[float]) -> list[float]:
    """Per-tower consistency: |distance(position, tower_i) - r_i| in meters."""
    return [abs(distance(position, t.position) - r) for t, r in zip(towers, ranges)]


def _check_not_collinear(positions: list[Vector3]) -> Vector3:
    """Return the tower-plane normal, or raise if the triangle is degenerate."""
    p0, p1, p2 = positions
    normal = _cross(
        (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]),
        (p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]),
    )
    # hypot, because the squares in _length underflow to 0 for towers about
    # 1e-100 m apart, which would call any such triangle collinear.
    area = math.hypot(*normal) / 2.0
    max_side = max(math.dist(p, q) for p, q in itertools.combinations(positions, 2))
    if max_side == 0.0 or area < _COLLINEARITY_REL_AREA * max_side * max_side:
        raise DegenerateGeometryError(
            f"towers are collinear (triangle area {area:.3e} for side scale {max_side:.3e})"
        )
    return normal


def _oriented_unit(normal: Vector3) -> np.ndarray:
    """Unit normal with a canonical sign: first nonzero of (z, x, y) positive.

    Keeps the nonnegative branch meaning "above the tower plane in z" for
    horizontal tower planes, and stays deterministic for vertical ones
    (where both roots share a z anyway).

    Raises DegenerateGeometryError where the normal's length underflows to
    zero, as it does for towers around 1e-100 m apart and closer.
    """
    normal = np.array(normal)
    length = np.linalg.norm(normal)
    if length == 0.0:
        raise DegenerateGeometryError(
            "the towers' plane cannot be resolved at this scale (its normal has length 0)"
        )
    unit = normal / length
    for component in (unit[2], unit[0], unit[1]):
        if component != 0.0:
            return unit if component > 0.0 else -unit
    return unit


@np.errstate(over="raise")
def _root_along_normal(
    point: np.ndarray, direction: np.ndarray, origin: np.ndarray, r1: float, z_convention: str
) -> tuple[np.ndarray, bool]:
    """The fix on the line point + t * direction, and whether it was clamped.

    Raises FloatingPointError where the squared lengths overflow, rather
    than warn and return a fix computed from infinities.
    """
    # The minimum-norm point has no component along the radical line.
    # Intersect p(t) = point + t * direction with the first sphere:
    # t^2 + 2 t (d.w) + (|w|^2 - r1^2) = 0 with w = point - T1.
    w = point - origin
    half_b = float(direction @ w)
    w_squared = float(w @ w)
    c0 = w_squared - r1 * r1
    disc = half_b * half_b - c0

    # The discriminant is a difference of squared lengths, so its rounding
    # noise scales with those squares. Below the noise floor the two roots
    # are indistinguishable: taking sqrt there would turn O(eps) noise into
    # O(sqrt(eps)) error, so treat it as a double root on the tower plane.
    noise_floor = 64.0 * sys.float_info.epsilon * max(
        1.0,
        r1 * r1,
        w_squared,
        half_b * half_b,
        float(origin @ origin),
    )

    clamped = False
    if disc > noise_floor:
        root = math.sqrt(disc)
        t = -half_b + root if z_convention == NONNEGATIVE else -half_b - root
    elif disc >= 0.0:
        t = -half_b  # double root: the spheres meet exactly on the plane
    else:
        # No real intersection: take the closest point on the line, which
        # lies exactly in the tower plane, and flag the clamp.
        t = -half_b
        clamped = True
    return point + t * direction, clamped


def solve_position(
    towers: list[TowerSite],
    ranges: list[float],
    z_convention: str = NONNEGATIVE,
) -> LocationFix:
    """Recover a position from three or more towers and one range each.

    One least-squares solve runs over the difference rows: the cyclic pairs
    (1,2), (2,3) for three towers, every tower against the first for more.
    Rows of rank 3 give the position. Rows of rank 2 (coplanar towers) give
    a point on the radical line, which runs along the tower-plane normal;
    intersecting that line with the first sphere gives a quadratic whose
    roots are mirror images across the tower plane. The z_convention selects
    the root at or above the plane (NONNEGATIVE) or at or below it
    (NONPOSITIVE). A negative discriminant (inconsistent ranges, e.g. from
    quantized timestamps) clamps the fix onto the tower plane and sets
    z_clamped; the caller can judge severity from the residuals.

    Raises:
        DegenerateGeometryError: for collinear or coincident towers, or
            towers and ranges for which the fix overflows.
    """
    if z_convention not in (NONNEGATIVE, NONPOSITIVE):
        raise ValueError(f"z_convention must be {NONNEGATIVE!r} or {NONPOSITIVE!r}")
    if len(towers) < 3 or len(towers) != len(ranges):
        raise ValueError(f"need 3 or more towers and as many ranges, got {len(towers)} and {len(ranges)}")
    if any(r < 0 for r in ranges):
        raise ValueError("ranges must be non-negative")
    if len(towers) == 3:
        rows = _cyclic_rows(towers, ranges)[:2]
        normal = _check_not_collinear([t.position.as_tuple() for t in towers])
    else:
        rows = [
            _difference_row(towers[0].position, t.position, ranges[0], r)
            for t, r in zip(towers[1:], ranges[1:])
        ]
    system = np.array(rows)
    # A relative rank cut, so that rounding cannot lift coplanar towers to rank 3.
    point, _, rank, _ = np.linalg.lstsq(system[:, :3], system[:, 3], rcond=_COLLINEARITY_REL_AREA)
    if rank < 2:
        raise DegenerateGeometryError(f"towers are collinear (difference rows span rank {rank})")

    est, z_branch, clamped = point, UNIQUE, False
    if rank == 2:
        if len(towers) > 3:
            # The longest row crossed with the row most oblique to it: on flat
            # ground the rows have z exactly 0, and this normal is exactly vertical.
            coeffs = [row[:3] for row in rows]
            longest = max(coeffs, key=_length)
            normal = max((_cross(longest, c) for c in coeffs), key=_length)
        direction = _oriented_unit(normal)

        try:
            est, clamped = _root_along_normal(
                point, direction, np.array(towers[0].position.as_tuple()), ranges[0], z_convention
            )
        except FloatingPointError:
            raise DegenerateGeometryError(_FIX_OVERFLOWS) from None
        z_branch = z_convention

    x, y, z = est.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DegenerateGeometryError(_FIX_OVERFLOWS)
    position = Point3(x, y, z)
    return LocationFix(
        position=position,
        residuals=tuple(residuals(position, towers, ranges)),
        method=THREE_TOWER_QUADRATIC if len(towers) == 3 else LEAST_SQUARES,
        z_branch=z_branch,
        z_clamped=clamped,
    )


def multilaterate_lsq(towers: list[TowerSite], ranges: list[float]) -> LocationFix:
    """solve_position for four or more towers; coplanar ones take the root at or above their plane.

    Raises:
        InsufficientMeasurementsError: with fewer than 4 towers.
        DegenerateGeometryError: for collinear towers.
    """
    if len(towers) != len(ranges):
        raise ValueError(f"got {len(towers)} towers but {len(ranges)} ranges")
    if len(towers) < 4:
        raise InsufficientMeasurementsError(
            f"least-squares multilateration needs >= 4 towers, got {len(towers)}"
        )
    return solve_position(towers, ranges)
