"""The two position solvers as they were before they became one, kept as a test oracle.

``solve_position`` takes exactly three towers: the cyclic difference rows,
the triangle-area collinearity test and the quadratic along the tower-plane
normal. ``multilaterate_lsq`` takes four or more: rows against the first
tower, one least-squares solve, and any rank below 3 (coplanar towers or
worse) rejected. ``gsmloc.trilateration`` must give exactly the same fix,
or raise the same error, wherever these return a fix.

``solve_position_numpy`` is the merged solver for any tower count as it was
while its 3-vector work still ran through numpy (``np.cross``, row norms,
``np.finfo``). ``gsmloc.trilateration.solve_position`` must give exactly
the same fix, or raise the same error type, wherever this one returns a
fix or raises a package error.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gsmloc.errors import DegenerateGeometryError, InsufficientMeasurementsError
from gsmloc.geometry import Point3, TowerSite
from gsmloc.trilateration import (
    LEAST_SQUARES,
    NONNEGATIVE,
    NONPOSITIVE,
    THREE_TOWER_QUADRATIC,
    UNIQUE,
    LocationFix,
    build_difference_system,
    residuals,
)

_FIX_OVERFLOWS = "the fix overflows for these towers and ranges"

# Tower triangles thinner than this (area relative to the squared longest
# side) are treated as collinear.
_COLLINEARITY_REL_AREA = 1e-9


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


def solve_position(
    towers: list[TowerSite],
    ranges: list[float],
    z_convention: str = NONNEGATIVE,
) -> LocationFix:
    """Recover a position from exactly three towers and one range each.

    The two independent difference rows define the radical line, which runs
    perpendicular to the tower plane; intersecting it with the first sphere
    gives a quadratic whose roots are mirror images across that plane. The
    z_convention selects the root at or above the plane (NONNEGATIVE) or at
    or below it (NONPOSITIVE). A negative discriminant (inconsistent ranges,
    e.g. from quantized timestamps) clamps the fix onto the tower plane and
    sets z_clamped; the caller can judge severity from the residuals.

    Raises:
        DegenerateGeometryError: for collinear or coincident towers.
    """
    if z_convention not in (NONNEGATIVE, NONPOSITIVE):
        raise ValueError(f"z_convention must be {NONNEGATIVE!r} or {NONPOSITIVE!r}")
    if any(r < 0 for r in ranges):
        raise ValueError("ranges must be non-negative")
    system = build_difference_system(towers, ranges)
    positions = [_pos_array(t) for t in towers]
    direction = _oriented_unit(_check_not_collinear(positions))

    # Any point satisfying the first two difference rows sits on the radical
    # line; the minimum-norm solution of the underdetermined 2x3 system is
    # such a point (it has no component along the line direction).
    point_on_line, *_ = np.linalg.lstsq(system.matrix[:2], system.rhs[:2], rcond=None)

    # Intersect p(t) = point_on_line + t * direction with the first sphere:
    # t^2 + 2 t (d.w) + (|w|^2 - r1^2) = 0 with w = point_on_line - T1.
    w = point_on_line - positions[0]
    half_b = float(direction @ w)
    c0 = float(w @ w) - ranges[0] * ranges[0]
    disc = half_b * half_b - c0

    # The discriminant is a difference of squared lengths, so its rounding
    # noise scales with those squares. Below the noise floor the two roots
    # are indistinguishable: taking sqrt there would turn O(eps) noise into
    # O(sqrt(eps)) error, so treat it as a double root on the tower plane.
    noise_floor = 64.0 * np.finfo(float).eps * max(
        1.0,
        ranges[0] * ranges[0],
        float(w @ w),
        half_b * half_b,
        float(positions[0] @ positions[0]),
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

    est = point_on_line + t * direction
    position = Point3(float(est[0]), float(est[1]), float(est[2]))
    return LocationFix(
        position=position,
        residuals=tuple(residuals(position, towers, ranges)),
        method=THREE_TOWER_QUADRATIC,
        z_branch=z_convention,
        z_clamped=clamped,
    )


def multilaterate_lsq(towers: list[TowerSite], ranges: list[float]) -> LocationFix:
    """Least-squares position from four or more towers.

    Differences every sphere against the first tower's, producing n-1 linear
    rows; when those rows span rank 3 the solution is unique and the mirror
    ambiguity of the 3-tower solve disappears.

    Raises:
        InsufficientMeasurementsError: with fewer than 4 towers.
        DegenerateGeometryError: when the difference rows span rank < 3
            (e.g. all towers coplanar).
    """
    if len(towers) != len(ranges):
        raise ValueError(f"got {len(towers)} towers but {len(ranges)} ranges")
    if len(towers) < 4:
        raise InsufficientMeasurementsError(
            f"least-squares multilateration needs >= 4 towers, got {len(towers)}"
        )
    if any(r < 0 for r in ranges):
        raise ValueError("ranges must be non-negative")
    rows = [
        _difference_row(towers[0].position, t.position, ranges[0], r)
        for t, r in zip(towers[1:], ranges[1:])
    ]
    coeffs = np.array([row[:3] for row in rows], dtype=float)
    rhs = np.array([row[3] for row in rows], dtype=float)
    solution, _, rank, _ = np.linalg.lstsq(coeffs, rhs, rcond=None)
    if rank < 3:
        raise DegenerateGeometryError(
            f"difference rows span rank {rank} < 3 (towers coplanar or worse)"
        )
    position = Point3(float(solution[0]), float(solution[1]), float(solution[2]))
    return LocationFix(
        position=position,
        residuals=tuple(residuals(position, towers, ranges)),
        method=LEAST_SQUARES,
        z_branch=UNIQUE,
    )


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


def solve_position_numpy(
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
