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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InsufficientMeasurementsError
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


def _pos_array(tower: TowerSite) -> np.ndarray:
    return np.array(tower.position.as_tuple(), dtype=float)


def _difference_row(ta: Point3, tb: Point3, ra: float, rb: float) -> tuple[float, float, float, float]:
    lam = 2.0 * (tb.x - ta.x)
    mu = 2.0 * (tb.y - ta.y)
    sig = 2.0 * (tb.z - ta.z)
    norm_a = ta.x * ta.x + ta.y * ta.y + ta.z * ta.z
    norm_b = tb.x * tb.x + tb.y * tb.y + tb.z * tb.z
    xi = ra * ra - rb * rb - norm_a + norm_b
    return lam, mu, sig, xi


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
    return LinearSystem3(np.array(rows, dtype=float))


def residuals(position: Point3, towers: list[TowerSite], ranges: list[float]) -> list[float]:
    """Per-tower consistency: |distance(position, tower_i) - r_i| in meters."""
    return [abs(distance(position, t.position) - r) for t, r in zip(towers, ranges)]


def _check_not_collinear(positions: list[np.ndarray]) -> np.ndarray:
    """Return the tower-plane normal, or raise if the triangle is degenerate."""
    normal = np.cross(positions[1] - positions[0], positions[2] - positions[1])
    area = float(np.linalg.norm(normal)) / 2.0
    max_side = max(
        float(np.linalg.norm(q - p)) for p, q in itertools.combinations(positions, 2)
    )
    if max_side == 0.0 or area < _COLLINEARITY_REL_AREA * max_side * max_side:
        raise DegenerateGeometryError(
            f"towers are collinear (triangle area {area:.3e} for side scale {max_side:.3e})"
        )
    return normal


def _oriented_unit(normal: np.ndarray) -> np.ndarray:
    """Unit normal with a canonical sign: first nonzero of (z, x, y) positive.

    Keeps the nonnegative branch meaning "above the tower plane in z" for
    horizontal tower planes, and stays deterministic for vertical ones
    (where both roots share a z anyway).
    """
    unit = normal / np.linalg.norm(normal)
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
    c0 = float(w @ w) - r1 * r1
    disc = half_b * half_b - c0

    # The discriminant is a difference of squared lengths, so its rounding
    # noise scales with those squares. Below the noise floor the two roots
    # are indistinguishable: taking sqrt there would turn O(eps) noise into
    # O(sqrt(eps)) error, so treat it as a double root on the tower plane.
    noise_floor = 64.0 * np.finfo(float).eps * max(
        1.0,
        r1 * r1,
        float(w @ w),
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
    origin = _pos_array(towers[0])
    if len(towers) == 3:
        rows = build_difference_system(towers, ranges).rows[:2]
        normal = _check_not_collinear([_pos_array(t) for t in towers])
    else:
        rows = np.array([
            _difference_row(towers[0].position, t.position, ranges[0], r)
            for t, r in zip(towers[1:], ranges[1:])
        ])
    # A relative rank cut, so that rounding cannot lift coplanar towers to rank 3.
    point, _, rank, _ = np.linalg.lstsq(rows[:, :3], rows[:, 3], rcond=_COLLINEARITY_REL_AREA)
    if rank < 2:
        raise DegenerateGeometryError(f"towers are collinear (difference rows span rank {rank})")

    est, z_branch, clamped = point, UNIQUE, False
    if rank == 2:
        if len(towers) > 3:
            # The longest row crossed with the row most oblique to it: on flat
            # ground the rows have z exactly 0, and this normal is exactly vertical.
            coeffs = rows[:, :3]
            crosses = np.cross(coeffs[np.argmax(np.linalg.norm(coeffs, axis=1))], coeffs)
            normal = crosses[np.argmax(np.linalg.norm(crosses, axis=1))]
        direction = _oriented_unit(normal)

        try:
            est, clamped = _root_along_normal(point, direction, origin, ranges[0], z_convention)
        except FloatingPointError:
            raise DegenerateGeometryError(_FIX_OVERFLOWS) from None
        z_branch = z_convention

    if not np.isfinite(est).all():
        raise DegenerateGeometryError(_FIX_OVERFLOWS)
    position = Point3(float(est[0]), float(est[1]), float(est[2]))
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
