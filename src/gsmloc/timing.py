"""Turn-around-time conversion, delay calibration, and clock feasibility.

A measured turn-around time T decomposes as T = alpha + t_prop, where alpha
is a constant internal delay (kernel / tower processing, independent of
distance) and t_prop is the propagation component. Two conversion modes
exist because published turn-around datasets disagree on whether T covers
one leg or both: in ``round_trip`` mode the propagation covers both legs
and the one-way distance is (T - alpha) * c / 2; in ``one_way`` mode it is
(T - alpha) * c. The simulator measures genuine round trips; calibration
tables produced from single-leg intervals need ``one_way``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CalibrationError, NegativeIntervalError

SPEED_OF_LIGHT = 3.0e8  # m/s, propagation speed used throughout

ROUND_TRIP = "round_trip"
ONE_WAY = "one_way"
_MODES = (ROUND_TRIP, ONE_WAY)


@dataclass(frozen=True)
class TimingModel:
    """How turn-around times map to distances.

    Attributes:
        alpha: Constant internal delay in seconds, >= 0 and finite.
        c: Propagation speed in m/s, > 0 and finite.
        mode: ROUND_TRIP (divide propagation by 2) or ONE_WAY.
        clock_resolution: Smallest representable time increment in seconds;
            0 means the clock is infinitely precise.
    """

    alpha: float = 0.0
    c: float = SPEED_OF_LIGHT
    mode: str = ROUND_TRIP
    clock_resolution: float = 0.0

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be non-negative and finite, got {self.alpha}")
        if not 0 <= self.clock_resolution < math.inf:
            raise ValueError(
                f"clock_resolution must be non-negative and finite, got {self.clock_resolution}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether a clock can resolve propagation over a given range."""

    range_m: float
    required_precision: float  # seconds: range / c
    available_precision: float  # seconds
    feasible: bool


def distance_from_turnaround(turnaround: float, model: TimingModel) -> float:
    """Convert a measured turn-around time to a one-way distance in meters.

    Raises:
        NegativeIntervalError: if turnaround < model.alpha; the measurement
            precedes the fixed delay, which signals miscalibration.
    """
    if turnaround < model.alpha:
        raise NegativeIntervalError(
            f"turnaround {turnaround:.9e} s is below the fixed delay {model.alpha:.9e} s"
        )
    prop = (turnaround - model.alpha) * model.c
    if model.mode == ROUND_TRIP:
        return prop / 2.0
    return prop


def calibrate_delay(anchor_turnaround: float, anchor_distance: float, model: TimingModel) -> float:
    """Recover the constant delay from one (turnaround, known distance) anchor.

    Inverts distance_from_turnaround under the model's mode and speed; the
    model's own alpha is ignored. Returns the alpha for which the anchor
    turn-around time maps exactly to the anchor distance.

    Raises:
        CalibrationError: if the implied alpha is negative (the anchor
            distance accounts for more than the whole interval).
    """
    if anchor_distance < 0:
        raise ValueError(f"anchor distance must be non-negative, got {anchor_distance}")
    legs = 2.0 if model.mode == ROUND_TRIP else 1.0
    alpha = anchor_turnaround - legs * anchor_distance / model.c
    if alpha < 0:
        raise CalibrationError(
            f"anchor ({anchor_turnaround!r} s, {anchor_distance!r} m) implies negative delay {alpha!r}"
        )
    return alpha


def quantize(t: float, resolution: float) -> float:
    """Truncate a timestamp to a clock's resolution.

    Models kernel timestamping, which floors rather than rounds. Resolution
    0 returns t unchanged. Idempotent: quantize(quantize(t, r), r) equals
    quantize(t, r) bit for bit.
    """
    if resolution < 0:
        raise ValueError(f"resolution must be non-negative, got {resolution}")
    if resolution == 0:
        return t
    ticks = int(t // resolution)
    # Float division may land one tick low when t is already on the grid;
    # push back up so grid points map to themselves.
    if (ticks + 1) * resolution <= t:
        ticks += 1
    return ticks * resolution


def required_precision(range_m: float, c: float = SPEED_OF_LIGHT, available: float = 0.0) -> FeasibilityReport:
    """Timestamp precision needed to resolve propagation over range_m.

    The one-way propagation delay over range_m is range_m / c; a clock
    whose resolution exceeds that can never observe the flight time, so
    ranging is infeasible.

    Args:
        range_m: Maximum link range in meters, > 0.
        c: Propagation speed in m/s.
        available: The clock resolution actually available, in seconds.

    Returns:
        FeasibilityReport with required_precision = range_m / c and
        feasible = (available <= required_precision).
    """
    if range_m <= 0:
        raise ValueError(f"range must be positive, got {range_m}")
    required = range_m / c
    return FeasibilityReport(
        range_m=range_m,
        required_precision=required,
        available_precision=available,
        feasible=available <= required,
    )


def percent_error(actual: float, calculated: float) -> float:
    """Signed percent error of a calculated value against the actual one.

    Uses the actual value as the denominator: (actual - calculated) / actual * 100.
    """
    if actual == 0:
        raise ValueError("percent error is undefined for actual == 0")
    return (actual - calculated) / actual * 100.0
