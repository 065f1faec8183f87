"""The original heap-driven ``run_scenario``, kept as a test oracle.

Events go through a ``heapq`` keyed by (time, kind, tower id), and every
ack carries an ``AckPacket`` that repeats the tower's id and position.
``first_k_acks`` and ``format_trace`` are the versions that read those
packets. ``gsmloc.simulator.run_scenario`` must give the same events,
measurements, fix and rendered trace, or raise the same error.
``measurement_csv`` measures every row's actual distance and formats the
row afresh; ``gsmloc.simulator.measurement_csv`` must give the same text.

``picked_trace`` is the list-based loss pick that ``_picked_trace`` ran
before it drew a trial's losses into exchange-table slots with numpy; it
picks from the table the simulator built, and the simulator must pick the
same slots and the very same ``Event`` objects. ``picked_first_k_acks``
finds the first k acks by scanning the picked events' kinds, as
``first_k_acks`` once did, and converts each afresh; ``first_k_acks`` must
give the same ranges, or raise the same error.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from gsmloc.errors import InsufficientMeasurementsError
from gsmloc.geometry import Point3, TowerSite, distance
from gsmloc.simulator import MOBILE_ID, Event, EventKind, Exchange, RequestPacket, ScenarioConfig
from gsmloc.timing import TimingModel, distance_from_turnaround, percent_error, quantize
from gsmloc.trilateration import NONNEGATIVE, LocationFix, RangeMeasurement, solve_position


class Trace(NamedTuple):
    """The oracle's trace: the event log and the context its readers need."""

    events: tuple[Event, ...]
    timing: TimingModel
    towers: tuple[TowerSite, ...]


@dataclass(frozen=True)
class AckPacket:
    """Tower's unicast reply echoing the request's original timestamp."""

    destination: str
    tower: int
    tower_coord: Point3
    timestamp: float  # the echoed request timestamp, unmodified


def run_scenario(
    config: ScenarioConfig, trial_index: int = 0
) -> tuple[Trace, list[RangeMeasurement], LocationFix]:
    """Execute one exchange and localize from the first three acks.

    For tower i at distance d_i the request arrives at t0 + d_i/c and the
    ack returns at t0 + 2*d_i/c + tower_processing_delay. Ack arrival
    timestamps pass through the mobile clock's quantization before the
    turn-around time is formed, so a coarse clock degrades the ranges
    exactly as a real kernel timestamp would.

    Returns:
        (trace, measurements, fix) where measurements are the first three
        acks by arrival time (ties by tower id) converted to ranges, and
        fix is the three-tower solve over them.

    Raises:
        InsufficientMeasurementsError: fewer than 3 acks arrived (reachable
            only with packet_loss > 0).
    """
    rng = np.random.default_rng([config.rng_seed, trial_index])
    c = config.timing.c
    t0 = config.request_time
    request = RequestPacket(timestamp=t0, mob_id=MOBILE_ID)

    heap: list[tuple[float, int, int, Event]] = []
    # Broadcast: one request per tower, each possibly lost in flight.
    # Draws happen in tower order so loss patterns are reproducible.
    for tower in config.towers:
        if config.packet_loss > 0.0 and rng.random() < config.packet_loss:
            continue
        d = distance(config.mobile_true_position, tower.position)
        arrival = t0 + d / c
        event = Event(arrival, EventKind.REQUEST_ARRIVES, tower.id, request)
        heapq.heappush(heap, (arrival, int(event.kind), tower.id, event))

    site_by_id = {t.id: t for t in config.towers}
    events: list[Event] = []
    while heap:
        _, _, tower_id, event = heapq.heappop(heap)
        events.append(event)
        if event.kind is not EventKind.REQUEST_ARRIVES:
            continue
        # Tower handler: echo the original timestamp after the fixed
        # processing delay; the ack may itself be lost.
        if config.packet_loss > 0.0 and rng.random() < config.packet_loss:
            continue
        tower = site_by_id[tower_id]
        ack = AckPacket(
            destination=event.payload.mob_id,
            tower=tower_id,
            tower_coord=tower.position,
            timestamp=event.payload.timestamp,
        )
        d = distance(config.mobile_true_position, tower.position)
        arrival = event.time + config.tower_processing_delay + d / c
        ack_event = Event(arrival, EventKind.ACK_ARRIVES, tower_id, ack)
        heapq.heappush(heap, (arrival, int(ack_event.kind), tower_id, ack_event))

    trace = Trace(
        events=tuple(events),
        timing=config.timing,
        towers=config.towers,
    )
    measurements = first_k_acks(trace, 3)
    fix = solve_position(
        [m.tower for m in measurements],
        [m.range_m for m in measurements],
        z_convention=NONNEGATIVE,
    )
    return trace, measurements, fix


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
    measurements = []
    for event in acks[:k]:
        ack = event.payload
        measured_arrival = quantize(event.time, trace.timing.clock_resolution)
        turnaround = measured_arrival - ack.timestamp
        range_m = distance_from_turnaround(turnaround, trace.timing)
        measurements.append(
            RangeMeasurement(
                tower=TowerSite(ack.tower, ack.tower_coord),
                turnaround=turnaround,
                range_m=range_m,
            )
        )
    return measurements


def format_trace(trace: Trace) -> str:
    """Render a trace as tab-separated lines: time, kind, tower id, detail.

    Times carry 9 decimal digits; lines appear in event (time) order. The
    output is a pure function of the trace, so identical configs produce
    byte-identical files.
    """
    lines = []
    for event in trace.events:
        if event.kind is EventKind.REQUEST_ARRIVES:
            kind = "request_arrives"
            detail = f"mob={event.payload.mob_id} sent={event.payload.timestamp:.9f}"
        else:
            kind = "ack_arrives"
            pos = event.payload.tower_coord
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


def picked_trace(
    config: ScenarioConfig, exchange: Exchange, trial_index: int
) -> tuple[list[int], list[int], tuple[Event, ...]]:
    """One trial's (arrived slots, ack slots, events) from exchange, picked with lists in config order.

    The config order of the table's events is read back from their tower ids
    and kinds, not from the table's slot arrays: event j is the request to
    config.towers[j % n], or its ack if j >= n.
    """
    n = len(config.towers)
    index = {tower.id: i for i, tower in enumerate(config.towers)}
    order = [index[e.tower_id] + n * e.kind for e in exchange.events]
    arrival_order = [j for j in order if j < n]
    loss = config.packet_loss
    if loss > 0.0:
        rng = np.random.default_rng([config.rng_seed, trial_index])
        # keep[j] for event j in config order: the request to tower j % n, or its ack if j >= n.
        keep = (rng.random(n) >= loss).tolist()
        requests = list(compress(arrival_order, map(keep.__getitem__, arrival_order)))
        keep += repeat(False, n)
        for i in compress(requests, (rng.random(len(requests)) >= loss).tolist()):
            keep[n + i] = True
        arrived = list(compress(range(2 * n), map(keep.__getitem__, order)))
        events = tuple(map(exchange.events.__getitem__, arrived))
    else:
        arrived = list(range(len(exchange.events)))
        events = exchange.events
    # An event's kind is truthy exactly for an ack (ACK_ARRIVES is 1).
    acked = list(compress(arrived, map(attrgetter("kind"), events)))
    return arrived, acked, events


def picked_first_k_acks(config: ScenarioConfig, events: tuple[Event, ...], k: int) -> list[RangeMeasurement]:
    """The first k acks of picked events, each converted afresh from its event and the config's tower."""
    acks = list(islice(filter(attrgetter("kind"), events), k))
    if len(acks) < k:
        raise InsufficientMeasurementsError(f"trace has {len(acks)} acks, need {k}")
    sites = {tower.id: tower for tower in config.towers}
    timing = config.timing
    measurements = []
    for event in acks:
        turnaround = quantize(event.time, timing.clock_resolution) - event.payload.timestamp
        range_m = distance_from_turnaround(turnaround, timing)
        measurements.append(RangeMeasurement(sites[event.tower_id], turnaround, range_m))
    return measurements
