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
byte-reproducible. An Event is a tuple in exactly that field order, so the
trace order is the events' natural order and a plain sort gives it.
Randomness enters only through the optional packet-loss knob, drawn from a
PRNG seeded by (rng_seed, trial_index), making every trial a pure function
of its config. The loss draws come in two batches, one for the requests and
one for the acks; numpy's Generator.random(n) yields the same doubles as n
scalar calls, so the batches equal one draw per packet in the same order.

ScenarioConfig rejects a config the simulator cannot run, so a library
caller gets the ConfigError the CLI reports. Only a clock too fine to
count to the simulated times shows later, when the arrivals are quantized.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

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


# Bound once: a member lookup on the enum class costs more than the comparison.
REQUEST_ARRIVES = EventKind.REQUEST_ARRIVES
ACK_ARRIVES = EventKind.ACK_ARRIVES


@dataclass(frozen=True)
class RequestPacket:
    """Mobile's broadcast: the send timestamp plus its own identifier."""

    timestamp: float  # seconds
    mob_id: str


class Event(NamedTuple):
    """One arrival in the exchange, as recorded in the trace.

    Both kinds carry the mobile's request: an ack echoes it unmodified, and
    the acking tower's position is the trace's site with id tower_id.

    As a tuple, events order by (time, kind, tower_id), which is the trace
    order. Ties never reach payload: tower ids are unique and each tower
    has at most one event of each kind.
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


def _survivors(packets: Sequence, rng: np.random.Generator, loss: float) -> list:
    """The packets not lost: one draw per packet, in order; a draw below loss loses it."""
    draws = rng.random(len(packets)).tolist()
    return [packet for packet, draw in zip(packets, draws) if draw >= loss]


def run_scenario(
    config: ScenarioConfig, trial_index: int = 0
) -> tuple[Trace, list[RangeMeasurement], LocationFix]:
    """Execute one exchange and localize from the first three acks.

    For tower i at distance d_i the request arrives at t0 + d_i/c and the
    ack returns at (t0 + d_i/c) + tower_processing_delay + d_i/c. Each
    distance is computed once. With packet loss, request losses are drawn
    in one batch in tower order, then ack losses in one batch in
    request-arrival order (ties by tower id); the batches give the same
    losses as one draw per packet in that order. The trace is all
    surviving arrivals sorted by (time, kind, tower id), the events'
    natural order. Ack arrival timestamps pass through the mobile clock's
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
    loss = config.packet_loss
    c = config.timing.c
    t0 = config.request_time
    mobile = config.mobile_true_position
    request = RequestPacket(timestamp=t0, mob_id=MOBILE_ID)

    towers = config.towers
    if loss > 0.0:
        rng = np.random.default_rng([config.rng_seed, trial_index])
        towers = _survivors(towers, rng, loss)
    requests = []
    for tower in towers:
        d = distance(mobile, tower.position)
        requests.append((t0 + d / c, tower.id, d))
    requests.sort()

    events = [Event(arrival, REQUEST_ARRIVES, tower_id, request) for arrival, tower_id, _ in requests]
    if loss > 0.0:
        requests = _survivors(requests, rng, loss)
    delay = config.tower_processing_delay
    # Summed in this order, not as t0 + 2*d/c + delay: the rounding shows in traces.
    events += [
        Event(arrival + delay + d / c, ACK_ARRIVES, tower_id, request) for arrival, tower_id, d in requests
    ]
    events.sort()

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
    acks = [e for e in trace.events if e.kind is ACK_ARRIVES]
    if len(acks) < k:
        raise InsufficientMeasurementsError(f"trace has {len(acks)} acks, need {k}")
    site_by_id = {t.id: t for t in trace.towers}
    timing = trace.timing
    resolution = timing.clock_resolution
    measurements = []
    for time, _, tower_id, payload in acks[:k]:
        turnaround = quantize(time, resolution) - payload.timestamp
        range_m = distance_from_turnaround(turnaround, timing)
        measurements.append(RangeMeasurement(site_by_id[tower_id], turnaround, range_m))
    return measurements


def format_trace(trace: Trace) -> str:
    """Render a trace as tab-separated lines: time, kind, tower id, detail.

    Times carry 9 decimal digits; lines appear in event (time) order. The
    output is a pure function of the trace, so identical configs produce
    byte-identical files.
    """
    position_by_id = {t.id: t.position for t in trace.towers}
    lines = []
    last = None
    for time, kind, tower_id, payload in trace.events:
        if payload is not last:  # every event of a simulated trace shares one payload
            last = payload
            sent = f"mob={payload.mob_id} sent={payload.timestamp:.9f}"
            echo = f"echo={payload.timestamp:.9f}"
        if kind is REQUEST_ARRIVES:
            lines.append(f"{time:.9f}\trequest_arrives\t{tower_id}\t{sent}")
        else:
            pos = position_by_id[tower_id]
            lines.append(
                f"{time:.9f}\tack_arrives\t{tower_id}\t{echo} tower_pos={pos.x:.3f},{pos.y:.3f},{pos.z:.3f}"
            )
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
