"""Deterministic execution of the ranging protocol.

One exchange: the mobile broadcasts a timestamped request; every tower that
receives it answers with an acknowledgment carrying its own coordinates and
the request's original timestamp, so only the mobile's clock ever matters.
The mobile timestamps each ack on arrival (through its finite-resolution
clock), converts the first three turn-around times to ranges, and solves
for its position.

Propagation is straight-line at the timing model's speed with no fading or
multipath, so every arrival time has a closed form and the trace is those
arrivals sorted by (time, kind, tower id), which makes traces
byte-reproducible. Randomness enters only through the optional packet-loss
knob, drawn from a PRNG seeded by (rng_seed, trial_index), making every
trial a pure function of its config.

ScenarioConfig rejects a config the simulator cannot run, so a library
caller gets the ConfigError the CLI reports. Only a clock too fine to
count to the simulated times shows later, when the arrivals are quantized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigError, InsufficientMeasurementsError
from .geometry import Point3, TowerSite, distance
from .timing import ROUND_TRIP, TimingModel, distance_from_turnaround, percent_error, quantize
from .trilateration import NONNEGATIVE, LocationFix, RangeMeasurement, check_magnitude, solve_position

# The one mobile of every exchange, as its requests name it in the trace.
MOBILE_ID = "mobile-0"


class EventKind(IntEnum):
    """Event ordering for equal times: requests land before acks."""

    REQUEST_ARRIVES = 0
    ACK_ARRIVES = 1


@dataclass(frozen=True)
class RequestPacket:
    """Mobile's broadcast: the send timestamp plus its own identifier."""

    timestamp: float  # seconds
    mob_id: str


@dataclass(frozen=True)
class Event:
    """One arrival in the exchange, as recorded in the trace.

    Both kinds carry the mobile's request: an ack echoes it unmodified, and
    the acking tower's position is the trace's site with id tower_id.
    """

    time: float
    kind: EventKind
    tower_id: int
    payload: RequestPacket


@dataclass(frozen=True)
class Trace:
    """Ordered event log of one exchange plus the context to re-derive ranges."""

    events: tuple[Event, ...]
    timing: TimingModel
    towers: tuple[TowerSite, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated exchange: geometry, timing, seed and packet loss.

    tower_processing_delay is the fixed per-tower turnaround applied before
    the ack leaves; at the mobile it is indistinguishable from any other
    constant delay, so recovery is exact when timing.alpha equals it.
    packet_loss is an extension beyond the basic protocol and defaults off.

    Raises ConfigError for what the simulator cannot run, whoever builds
    the config: fewer than 3 towers, repeated tower ids, a timing mode
    other than round_trip, a tower or mobile coordinate above
    trilateration.MAX_MAGNITUDE, trials below 1, a negative or non-finite
    tower_processing_delay or request_time, or packet_loss outside [0, 1].
    """

    towers: tuple[TowerSite, ...]
    mobile_true_position: Point3
    timing: TimingModel = field(default_factory=TimingModel)
    tower_processing_delay: float = 0.0
    rng_seed: int = 0
    trials: int = 1
    request_time: float = 0.0
    packet_loss: float = 0.0

    def __post_init__(self):
        for point in [t.position for t in self.towers] + [self.mobile_true_position]:
            check_magnitude(point.as_tuple(), f"position {list(point.as_tuple())}")
        if self.timing.mode != ROUND_TRIP:
            raise ConfigError(
                f"simulate measures round trips; timing mode must be {ROUND_TRIP!r}, got {self.timing.mode!r}"
            )
        if len(self.towers) < 3:
            raise ConfigError(f"need at least 3 towers, got {len(self.towers)}")
        ids = [t.id for t in self.towers]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"tower ids must be unique, got {sorted(ids)}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        # Written so that NaN fails every check.
        if not 0.0 <= self.tower_processing_delay < math.inf:
            raise ConfigError("tower_processing_delay must be non-negative and finite")
        if not 0.0 <= self.packet_loss <= 1.0:
            raise ConfigError(f"packet_loss must be in [0, 1], got {self.packet_loss}")
        if not 0.0 <= self.request_time < math.inf:
            raise ConfigError("request_time must be non-negative and finite")


def run_scenario(
    config: ScenarioConfig, trial_index: int = 0
) -> tuple[Trace, list[RangeMeasurement], LocationFix]:
    """Execute one exchange and localize from the first three acks.

    For tower i at distance d_i the request arrives at t0 + d_i/c and the
    ack returns at (t0 + d_i/c) + tower_processing_delay + d_i/c. Each
    distance is computed once. With packet loss, request losses are drawn
    in tower order, then ack losses in request-arrival order (ties by
    tower id); the trace is all surviving arrivals sorted by (time, kind,
    tower id). Ack arrival timestamps pass through the mobile clock's
    quantization before the turn-around time is formed, so a coarse clock
    degrades the ranges exactly as a real kernel timestamp would.

    Returns:
        (trace, measurements, fix) where measurements are the first three
        acks by arrival time (ties by tower id) converted to ranges, and
        fix is the three-tower solve over them.

    Raises:
        InsufficientMeasurementsError: fewer than 3 acks arrived (reachable
            only with packet_loss > 0).
    """
    rng = np.random.default_rng([config.rng_seed, trial_index])
    lossy = config.packet_loss > 0.0
    c = config.timing.c
    t0 = config.request_time
    request = RequestPacket(timestamp=t0, mob_id=MOBILE_ID)

    requests = []
    for tower in config.towers:
        if lossy and rng.random() < config.packet_loss:
            continue
        d = distance(config.mobile_true_position, tower.position)
        requests.append((t0 + d / c, tower.id, d))
    requests.sort()

    events = [
        Event(arrival, EventKind.REQUEST_ARRIVES, tower_id, request) for arrival, tower_id, _ in requests
    ]
    for arrival, tower_id, d in requests:
        if lossy and rng.random() < config.packet_loss:
            continue
        # Summed in this order, not as t0 + 2*d/c + delay: the rounding shows in traces.
        ack_arrival = arrival + config.tower_processing_delay + d / c
        events.append(Event(ack_arrival, EventKind.ACK_ARRIVES, tower_id, request))
    events.sort(key=lambda e: (e.time, e.kind, e.tower_id))

    trace = Trace(events=tuple(events), timing=config.timing, towers=config.towers)
    measurements = first_k_acks(trace, 3)
    fix = solve_position(
        [m.tower for m in measurements],
        [m.range_m for m in measurements],
        z_convention=NONNEGATIVE,
    )
    return trace, measurements, fix


def run_trials(config: ScenarioConfig) -> list[tuple[Trace, list[RangeMeasurement], LocationFix]]:
    """Run config.trials independent trials.

    Each trial is a pure function of (config, rng_seed, trial index), so
    results do not depend on execution order and trials may be distributed
    across workers freely.
    """
    return [run_scenario(config, trial_index=i) for i in range(config.trials)]


def first_k_acks(trace: Trace, k: int) -> list[RangeMeasurement]:
    """The first k acknowledgments by arrival time, converted to ranges.

    Arrival order is the trace's event order (ties already broken by tower
    id). Each ack's arrival timestamp is quantized by the trace's clock
    resolution before the turn-around time is formed against the echoed
    send timestamp.

    Raises:
        InsufficientMeasurementsError: if the trace holds fewer than k acks.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    acks = [e for e in trace.events if e.kind is EventKind.ACK_ARRIVES]
    if len(acks) < k:
        raise InsufficientMeasurementsError(f"trace has {len(acks)} acks, need {k}")
    site_by_id = {t.id: t for t in trace.towers}
    measurements = []
    for event in acks[:k]:
        measured_arrival = quantize(event.time, trace.timing.clock_resolution)
        turnaround = measured_arrival - event.payload.timestamp
        range_m = distance_from_turnaround(turnaround, trace.timing)
        measurements.append(RangeMeasurement(site_by_id[event.tower_id], turnaround, range_m))
    return measurements


def format_trace(trace: Trace) -> str:
    """Render a trace as tab-separated lines: time, kind, tower id, detail.

    Times carry 9 decimal digits; lines appear in event (time) order. The
    output is a pure function of the trace, so identical configs produce
    byte-identical files.
    """
    position_by_id = {t.id: t.position for t in trace.towers}
    lines = []
    for event in trace.events:
        if event.kind is EventKind.REQUEST_ARRIVES:
            kind = "request_arrives"
            detail = f"mob={event.payload.mob_id} sent={event.payload.timestamp:.9f}"
        else:
            kind = "ack_arrives"
            pos = position_by_id[event.tower_id]
            detail = (
                f"echo={event.payload.timestamp:.9f}"
                f" tower_pos={pos.x:.3f},{pos.y:.3f},{pos.z:.3f}"
            )
        lines.append(f"{event.time:.9f}\t{kind}\t{event.tower_id}\t{detail}")
    return "\n".join(lines) + "\n"


def measurement_csv(measurements: list[RangeMeasurement], true_position: Point3) -> str:
    """Render measurements as CSV mirroring a calibration table's columns.

    Columns: tower_id, turnaround_s, distance_m, actual_m, pct_error. Rows
    keep the measurement order (ascending turn-around time). The percent
    error column is left empty when the actual distance is zero.
    """
    lines = ["tower_id,turnaround_s,distance_m,actual_m,pct_error"]
    for m in measurements:
        actual = distance(true_position, m.tower.position)
        if actual == 0:
            pct = ""
        else:
            pct = f"{percent_error(actual, m.range_m):.2f}"
        lines.append(f"{m.tower.id},{m.turnaround:.9e},{m.range_m:.3f},{actual:.3f},{pct}")
    return "\n".join(lines) + "\n"
