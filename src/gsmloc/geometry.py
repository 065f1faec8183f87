"""Coordinate primitives and cell topology generation.

Units are SI meters throughout. Tower layouts are planar: generated towers
inherit the center's z, and non-planar scenarios are built from explicit
tower lists instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class Point3:
    """A 3D coordinate in meters. All components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        # Checked field by field only to name the bad one: hex_cell_layout
        # builds tens of thousands of points.
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            for name in ("x", "y", "z"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"Point3.{name} must be finite, got {getattr(self, name)!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class TowerSite:
    """A fixed transceiver with known coordinates, used as a ranging anchor."""

    id: int
    position: Point3

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"tower id must be non-negative, got {self.id}")


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance between two points, in meters."""
    return math.dist(a.as_tuple(), b.as_tuple())


# The most rings hex_cell_layout builds: 3 * 100 * 101 = 30300 towers.
MAX_RINGS = 100


def hex_cell_layout(center: Point3, radius: float, n_rings: int = 1) -> list[TowerSite]:
    """Place towers on concentric hexagonal rings around a center point.

    Ring k holds 6*k towers, evenly spaced in angle starting on the +x
    axis, all at distance k*radius from the center and at the center's z.
    Ids are assigned in ring-then-angle order starting at 0, so they form
    the contiguous range 0..count-1.

    Args:
        center: Cell center (typically the mobile's nominal position).
        radius: Ring spacing in meters; must be positive and finite.
        n_rings: Number of rings, an integer from 1 to MAX_RINGS.

    Returns:
        List of TowerSite, 6 * n_rings * (n_rings + 1) / 2 entries.

    Raises:
        ValueError: radius or n_rings is out of range, or n_rings is not an
            integer.
    """
    # Written so that NaN fails too.
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    # A numpy integer is a ring count; a bool or a float, even 2.0, is not.
    if isinstance(n_rings, bool) or not isinstance(n_rings, numbers.Integral):
        raise ValueError(f"n_rings must be an integer, got {n_rings!r}")
    if not 1 <= n_rings <= MAX_RINGS:
        raise ValueError(f"n_rings must be in [1, {MAX_RINGS}], got {n_rings}")
    sites: list[TowerSite] = []
    next_id = 0
    for ring in range(1, n_rings + 1):
        count = 6 * ring
        for step in range(count):
            theta = 2.0 * math.pi * step / count
            pos = Point3(
                center.x + ring * radius * math.cos(theta),
                center.y + ring * radius * math.sin(theta),
                center.z,
            )
            sites.append(TowerSite(next_id, pos))
            next_id += 1
    return sites
