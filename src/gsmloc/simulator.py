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

Only the loss draws differ from one trial of a config to the next. So a
config keeps an Exchange table, built by its first trial: every tower's
distance from the mobile, both arrival times and both events, already in
trace order, and each event's trace line, since none of these can fail.
Each ack's range and measurements.csv row are filled in together the first
time a trace reads that ack: converting a range can raise, and which acks
a trial reads decides whether it does. Every trial draws its losses and
keeps the slots of the events that survive, in a few numpy operations on
the table's slot arrays: the requests that arrived, taken in arrival
order, decide how many ack losses are drawn, and each kept ack maps to its
slot. The trace carries its ack slots too, so first_k_acks slices them
instead of scanning the events. first_k_acks and format_trace read the
table through its trace, and measurement_csv through first_k_acks' list
while that list is unchanged.

The fix, too, is a function of the three ack slots a trial reads, since
their ranges are fixed once converted. So the table also keeps a fix memo,
keyed by the tuple of those slots: run_scenario solves only for a triple no
earlier trial of the config has read, and trials with the same triple share
one LocationFix. A solve that raises stores nothing, so its error recurs,
as a conversion's does.

ScenarioConfig rejects a config the simulator cannot run, so a library
caller gets the ConfigError the CLI reports. Only a clock too fine to
count to the simulated times shows later, when the arrivals are quantized.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, partial
from itertools import repeat
from operator import is_
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
    """Ordered event log of one exchange plus the context to re-derive ranges.

    A trace also carries its config's exchange table, the list of the
    slots of its events there (arrived) and the list of the slots of its
    acks alone (acked), both ascending; format_trace reads the table's
    lines at arrived, first_k_acks slices acked and reads the table's
    ranges, and the trace keeps the whole table alive. None of these takes
    part in equality: two traces are equal when their events, timing and
    towers are, whichever configs they came from.
    """

    events: tuple[Event, ...]
    timing: TimingModel
    towers: tuple[TowerSite, ...]
    exchange: Exchange = field(compare=False, repr=False)
    arrived: list[int] = field(compare=False, repr=False)
    acked: list[int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated exchange: geometry, timing, seed and packet loss.

    tower_processing_delay is the fixed per-tower turnaround applied before
    the ack leaves; at the mobile it is indistinguishable from any other
    constant delay, so recovery is exact when timing.alpha equals it.
    packet_loss is an extension beyond the basic protocol and defaults off.
    request_time is absolute, and every arrival is a double near it, so a
    large one rounds the arrivals: at a Unix-epoch 1.7e9 s the spacing of
    doubles is 2.4e-7 s, about 36 m of round-trip range, and the fix moves
    by tens of metres with no error raised. Keep it small; the ranges
    depend only on the time since the request.

    Raises ConfigError for what the simulator cannot run, whoever builds
    the config: fewer than 3 towers, repeated tower ids, a timing mode
    other than round_trip, a tower or mobile coordinate above
    trilateration.MAX_MAGNITUDE, trials below 1, a negative rng_seed, a
    negative or non-finite tower_processing_delay or request_time, or
    packet_loss outside [0, 1].
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
            xyz = point.as_tuple()
            # The label costs more than the check, so it is built only for the error.
            check_magnitude(xyz, lambda: f"position {list(xyz)}")
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
        if self.rng_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.rng_seed}")
        # Written so that NaN fails every check.
        if not 0.0 <= self.tower_processing_delay < math.inf:
            raise ConfigError("tower_processing_delay must be non-negative and finite")
        if not 0.0 <= self.packet_loss <= 1.0:
            raise ConfigError(f"packet_loss must be in [0, 1], got {self.packet_loss}")
        if not 0.0 <= self.request_time < math.inf:
            raise ConfigError("request_time must be non-negative and finite")

    @cached_property
    def exchange(self) -> Exchange:
        """This config's exchange table, built on first use and kept with the config."""
        return Exchange(self)


class Exchange:
    """Everything one config's exchange can hold, computed once.

    events holds every tower's request and ack, all sharing one
    RequestPacket, in trace order; the slots are the indices into it.
    For the tower at index i of the config's towers, request_slot[i] and
    ack_slot[i] are the slots of its request and its ack (int arrays, the
    two halves of the inverse of the trace-order sort). arrival_order is
    an int array of the tower indices in request-arrival order, the order
    the ack losses are drawn in. sites[s] is the tower of the event at s,
    and ds[s] that tower's distance from mobile, the config's true
    position. A trial's trace only picks slots from this table.

    lines[s] is the trace line of the event at s, rendered with the table:
    rendering cannot fail, and every trace's output reads its lines.
    measured[s] and rows[s] hold an ack's RangeMeasurement and its
    measurements.csv row against mobile. measure fills both together the
    first time a trace reads that ack, and every later trial of the config
    reads them. They stay lazy because a conversion can raise, and which
    acks a trial reads decides whether it does; a conversion that raises
    stores nothing, so its error recurs.

    fixes maps the tuple of the slots of a trial's first three acks to the
    fix solved from their ranges, which those slots decide. solve fills it
    on a miss; a solve that raises stores nothing, so a collinear first
    three raises again on every trial that reads it. It holds at most one
    entry per distinct triple, so at most one per trial run, and lives as
    long as the table, which every trace of the config already keeps alive.
    """

    def __init__(self, config: ScenarioConfig):
        self.timing = config.timing
        towers = config.towers
        self.mobile = mobile = config.mobile_true_position
        t0 = config.request_time
        c = config.timing.c
        delay = config.tower_processing_delay
        request = RequestPacket(timestamp=t0, mob_id=MOBILE_ID)

        n = len(towers)
        ds = [distance(mobile, tower.position) for tower in towers]
        arrivals = [t0 + d / c for d in ds]
        # Summed in this order, not as t0 + 2*d/c + delay: the rounding shows in traces.
        returns = [arrival + delay + d / c for arrival, d in zip(arrivals, ds)]
        ids = [tower.id for tower in towers]
        # Event._make without its length check: a tuple.__new__ in C per event.
        make = partial(tuple.__new__, Event)
        events = list(map(make, zip(arrivals, repeat(REQUEST_ARRIVES), ids, repeat(request))))
        events += map(make, zip(returns, repeat(ACK_ARRIVES), ids, repeat(request)))
        order = sorted(range(2 * n), key=events.__getitem__)
        self.events = tuple(map(events.__getitem__, order))
        order = np.fromiter(order, dtype=np.intp, count=2 * n)
        # The inverse permutation: slot[j] is where event j, in config order, landed.
        slot = np.empty(2 * n, dtype=np.intp)
        slot[order] = np.arange(2 * n)
        self.request_slot, self.ack_slot = slot[:n], slot[n:]
        self.arrival_order = order[order < n]
        at = (order % n).tolist()
        # A comprehension, not map(towers.__getitem__): a tuple's bound __getitem__ is a slow slot wrapper.
        self.sites = [towers[i] for i in at]
        self.ds = list(map(ds.__getitem__, at))
        self.lines = list(_lines(request, self.events, self.sites))
        self.measured: list[RangeMeasurement | None] = [None] * (2 * n)
        self.rows: list[str | None] = [None] * (2 * n)
        self.fixes: dict[tuple[int, ...], LocationFix] = {}

    def measure(self, slots: Sequence[int]) -> list[RangeMeasurement | None]:
        """The range table, with the RangeMeasurement and measurements.csv row of each ack of slots filled in.

        An ack's range comes from its quantized arrival less the echoed send
        timestamp. Slots are converted in the order given; one whose
        conversion raises stays empty in both tables, and the error
        propagates. When every slot is converted already, as on most warm
        trials, one check of the rows returns the table without a loop.
        """
        measured, timing = self.measured, self.timing
        # rows[s] is None exactly when measured[s] is; a str answers == None in C.
        if None not in map(self.rows.__getitem__, slots):
            return measured
        for s in slots:
            if measured[s] is None:
                time, _, _, payload = self.events[s]
                turnaround = quantize(time, timing.clock_resolution) - payload.timestamp
                m = RangeMeasurement(self.sites[s], turnaround, distance_from_turnaround(turnaround, timing))
                self.rows[s] = _csv_row(m, self.ds[s])
                measured[s] = m
        return measured

    def solve(self, acks: Acks) -> LocationFix:
        """The fix from the ranges of acks, which first_k_acks read from this table: memoised by their slots.

        A hit returns the fix an earlier trial solved, the same object; a miss
        calls solve_position and stores its fix, unless it raises.
        """
        key = tuple(acks.slots)
        fix = self.fixes.get(key)
        if fix is None:
            fix = self.fixes[key] = solve_position(
                [m.tower for m in acks], [m.range_m for m in acks], z_convention=NONNEGATIVE
            )
        return fix


def _picked_trace(config: ScenarioConfig, exchange: Exchange, trial_index: int) -> Trace:
    """One trial's trace: the slots of its config's exchange table that survive its losses.

    The request losses are one draw per tower, in tower order. Indexing
    those by arrival_order gives the towers whose request arrived, in
    arrival order; one ack loss is drawn for each, in that order, and the
    kept ones map through ack_slot to the trial's ack slots. The arrived
    slots are those and the kept requests' slots, merged in ascending
    order. With no loss every draw is kept, so the trial picks the whole
    table.
    """
    loss = config.packet_loss
    rng = np.random.default_rng([config.rng_seed, trial_index])
    arrival_order = exchange.arrival_order
    sent = rng.random(len(config.towers)) >= loss
    # The towers whose request arrived, in arrival order: the order their ack losses are drawn in.
    requests = arrival_order[sent[arrival_order]]
    acked = exchange.ack_slot[requests[rng.random(len(requests)) >= loss]]
    acked.sort()
    arrived = np.concatenate((exchange.request_slot[requests], acked))
    arrived.sort()
    arrived, acked = arrived.tolist(), acked.tolist()
    table = exchange.events
    events = tuple([table[s] for s in arrived])
    return Trace(events, config.timing, config.towers, exchange, arrived, acked)


def run_scenario(
    config: ScenarioConfig, trial_index: int = 0
) -> tuple[Trace, list[RangeMeasurement], LocationFix]:
    """Execute one exchange and localize from the first three acks.

    For tower i at distance d_i the request arrives at t0 + d_i/c and the
    ack returns at (t0 + d_i/c) + tower_processing_delay + d_i/c. With
    packet loss, request losses are drawn in one batch in tower order,
    then ack losses in one batch in request-arrival order (ties by tower
    id); the batches give the same losses as one draw per packet in that
    order. The trace is the surviving arrivals in (time, kind, tower id)
    order. Ack arrival timestamps pass through the mobile clock's
    quantization before the turn-around time is formed, so a coarse clock
    degrades the ranges exactly as a real kernel timestamp would.

    The arrivals, their trace order, lines and ranges depend on the config
    alone, so they live in the config's exchange table, which its first
    trial builds; every trial only draws its losses and picks the
    surviving slots. The fix depends only on the slots of the first three
    acks, so it is solved once per distinct triple and kept in the table's
    fix memo (Exchange.fixes); a trial whose triple an earlier trial read
    returns that trial's LocationFix object. A solve that raises is not
    stored and raises again on every such trial.

    Returns:
        (trace, measurements, fix) where measurements are the first three
        acks by arrival time (ties by tower id) converted to ranges, and
        fix is the three-tower solve over them.

    Raises:
        ValueError: trial_index is negative.
        InsufficientMeasurementsError: fewer than 3 acks arrived (reachable
            only with packet_loss > 0).
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    exchange = config.exchange
    trace = _picked_trace(config, exchange, trial_index)
    measurements = first_k_acks(trace, 3)
    return trace, measurements, exchange.solve(measurements)


def run_trials(config: ScenarioConfig) -> list[tuple[Trace, list[RangeMeasurement], LocationFix]]:
    """Run config.trials independent trials.

    Each trial is a pure function of (config, rng_seed, trial index), so
    results do not depend on execution order and trials may be distributed
    across workers freely. Every trial picks from the config's one exchange
    table, and solves only when its first three acks' slots are a triple no
    earlier trial read; the table's fix memo then holds at most one fix per
    distinct triple, never an error.
    """
    return [run_scenario(config, trial_index=i) for i in range(config.trials)]


def _lines(request: RequestPacket, events: Iterable[Event], towers: Iterable[TowerSite]) -> Iterator[str]:
    """Each event's trace line: time, kind, tower id and detail, tab-separated.

    towers gives each event's tower, in order; every event carries request.
    """
    sent = f"mob={request.mob_id} sent={request.timestamp:.9f}"
    echo = f"echo={request.timestamp:.9f}"
    for (time, kind, tower_id, _), tower in zip(events, towers):
        if kind is REQUEST_ARRIVES:
            yield f"{time:.9f}\trequest_arrives\t{tower_id}\t{sent}"
        else:
            pos = tower.position
            yield f"{time:.9f}\tack_arrives\t{tower_id}\t{echo} tower_pos={pos.x:.3f},{pos.y:.3f},{pos.z:.3f}"


class Acks(list):
    """first_k_acks' RangeMeasurements, naming the exchange table and the slots they were read from.

    first_k_acks sets both attributes after the list is filled, which
    costs less than an __init__ of its own.
    """

    __slots__ = ("exchange", "slots")
    exchange: Exchange
    slots: list[int]


def first_k_acks(trace: Trace, k: int) -> Acks:
    """The first k acknowledgments by arrival time, converted to ranges.

    Arrival order is the trace's event order (ties already broken by tower
    id). Each ack's arrival timestamp is quantized by the trace's clock
    resolution before the turn-around time is formed against the echoed
    send timestamp. An ack's range is converted, with its measurements.csv
    row, the first time any trace of the config reads it, and read from
    its exchange table after that.
    The acks are the first k of the trace's ack slots (Trace.acked), so no
    event is scanned; the list returned names that table and those slots,
    which lets measurement_csv read the table's rows.

    Raises:
        InsufficientMeasurementsError: if the trace holds fewer than k acks.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    slots = trace.acked[:k]
    if len(slots) < k:
        raise InsufficientMeasurementsError(f"trace has {len(slots)} acks, need {k}")
    exchange = trace.exchange
    acks = Acks(map(exchange.measure(slots).__getitem__, slots))
    acks.exchange, acks.slots = exchange, slots
    return acks


def format_trace(trace: Trace) -> str:
    """Render a trace as tab-separated lines: time, kind, tower id, detail.

    Times carry 9 decimal digits; lines appear in event (time) order. The
    output is a pure function of the trace, so identical configs produce
    byte-identical files. Each line is read from the config's exchange
    table, which renders every line when it is built. A trace with no
    arrivals renders as a single newline.
    """
    if not trace.arrived:
        return "\n"
    lines = trace.exchange.lines
    picked = [lines[s] for s in trace.arrived]
    # The trailing empty item ends the text with a newline without copying it.
    picked.append("")
    return "\n".join(picked)


def measurement_csv(measurements: list[RangeMeasurement], true_position: Point3) -> str:
    """Render measurements as CSV mirroring a calibration table's columns.

    Columns: tower_id, turnaround_s, distance_m, actual_m, pct_error. Rows
    keep the measurement order (ascending turn-around time). actual_m is
    the distance from true_position to the tower, and pct_error is
    (actual_m - distance_m) / actual_m * 100, left empty when the actual
    distance is zero.

    When measurements is a list first_k_acks returned, with every item
    still its exchange table's own, and true_position is or equals the
    table's mobile, the rows come from the table, where first_k_acks
    formatted each with its range. Any other list or position is measured
    and formatted row by row, to the same text.
    """
    if _from_table(measurements, true_position):
        rows = map(measurements.exchange.rows.__getitem__, measurements.slots)
    else:
        rows = (_csv_row(m, distance(true_position, m.tower.position)) for m in measurements)
    return "\n".join(["tower_id,turnaround_s,distance_m,actual_m,pct_error", *rows, ""])


def _from_table(measurements: list[RangeMeasurement], true_position: Point3) -> bool:
    """Whether measurements are first_k_acks' list, unchanged, and true_position is its table's mobile."""
    if not isinstance(measurements, Acks):
        return False
    exchange, slots = measurements.exchange, measurements.slots
    mobile = exchange.mobile
    return (
        (true_position is mobile or true_position == mobile)
        and len(measurements) == len(slots)
        and all(map(is_, measurements, map(exchange.measured.__getitem__, slots)))
    )


def _csv_row(m: RangeMeasurement, actual: float) -> str:
    """One measurements.csv row: the percent error is left empty when the actual distance is zero."""
    pct = "" if actual == 0 else f"{percent_error(actual, m.range_m):.2f}"
    return f"{m.tower.id},{m.turnaround:.9e},{m.range_m:.3f},{actual:.3f},{pct}"
