"""Ping-trace parsing and round-trip-time extraction.

Input is the plain-text sniffer export format: one packet per line with
whitespace-separated fields

    seq  time  src  dst  ICMP  Echo (ping) request|reply

e.g. ``49 23.000103 169.254.118.52 169.254.65.4 ICMP Echo (ping) request``.
The direction comes solely from the trailing token. Timestamps are decimal
seconds with up to six fractional digits; they are held as exact integer
microseconds internally so golden comparisons never drift through floats.

A parsed trace is a ``PingLog`` and a paired one an ``RttTable``: parallel
lists, one per field, so a long capture costs a few list appends per line
rather than an object. Both are read-only sequences whose items, a
``PingRecord`` or an ``RttSample``, are built only when read, and each
compares equal to a list of the same items. Every function that takes
records or samples also accepts a plain list of them.

``parse_ping_log`` takes a fast path for the common well-formed line: ASCII
only, a direction written exactly ``request`` or ``reply``, decimal digits
for seq, and a time with exactly six fractional digits. Every other line
goes through ``parse_ping_record``, which decides it exactly as for a single
line and is the only source of malformed-line messages. The fast path
accepts nothing that parser would reject or read differently; the ASCII
test matters because ``str.isdigit`` accepts digits such as "²" that
``int`` rejects.

Each request pairs with the earliest unconsumed reply after it whose
(src, dst) is the reverse of its own; the exports carry no ICMP
sequence/id fields, so record order is the only pairing key available.
Replies on a path are therefore consumed in file order, which lets
``pair_rtts`` run as one O(n) forward pass with a FIFO of pending requests
per path. A reply timestamped before its request yields an invalid sample
flagged as a negative interval rather than being dropped.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import EmptyDataError

US_PER_S = 10**6

REQUEST = "request"
REPLY = "reply"

NEGATIVE = "negative"
MISSING_REPLY = "missing_reply"


@dataclass(frozen=True)
class PingRecord:
    """One parsed trace line."""

    seq: int
    time_us: int  # exact microseconds since trace start
    src: str
    dst: str
    direction: str  # REQUEST or REPLY

    @property
    def time(self) -> float:
        """Timestamp in seconds."""
        return self.time_us / US_PER_S


@dataclass(frozen=True)
class RttSample:
    """One paired request/reply interval, or an unmatched request."""

    request_seq: int
    reply_seq: int | None
    rtt_us: int | None  # exact microseconds; None when no reply was found
    valid: bool
    anomaly: str | None = None  # NEGATIVE or MISSING_REPLY

    @property
    def rtt(self) -> float | None:
        """Round-trip time in seconds, or None for a missing reply."""
        return None if self.rtt_us is None else self.rtt_us / US_PER_S


class _Columns(Sequence):
    """A read-only sequence stored as parallel columns; items are built when read."""

    def _item(self, index: int):
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(i) for i in range(*index.indices(len(self)))]
        n = len(self)
        if not -n <= index < n:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(index % n)

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (list, _Columns)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


@dataclass(eq=False, repr=False)
class PingLog(_Columns):
    """Parsed trace records as columns; reading item i builds its PingRecord."""

    seq: list[int]
    time_us: list[int]
    path: list[int]  # index into paths
    is_request: list[bool]
    paths: list[tuple[str, str]]  # the distinct (src, dst), in order of first appearance

    @classmethod
    def of(cls, records: Iterable[PingRecord]) -> PingLog:
        """The records as a PingLog; a PingLog is returned as it is.

        A record whose direction is not REQUEST counts as a reply.
        """
        if isinstance(records, cls):
            return records
        records = list(records)
        path_ids: dict[tuple[str, str], int] = {}
        return cls(
            [r.seq for r in records],
            [r.time_us for r in records],
            [path_ids.setdefault((r.src, r.dst), len(path_ids)) for r in records],
            [r.direction == REQUEST for r in records],
            list(path_ids),
        )

    def __len__(self) -> int:
        return len(self.seq)

    def _item(self, i: int) -> PingRecord:
        src, dst = self.paths[self.path[i]]
        return PingRecord(self.seq[i], self.time_us[i], src, dst, REQUEST if self.is_request[i] else REPLY)


@dataclass(eq=False, repr=False)
class RttTable(_Columns):
    """Paired samples as columns; reading item i builds its RttSample."""

    request_seq: list[int]
    reply_seq: list[int | None]
    rtt_us: list[int | None]
    valid: list[bool]
    anomaly: list[str | None]

    @classmethod
    def of(cls, samples: Iterable[RttSample]) -> RttTable:
        """The samples as an RttTable, flags kept; an RttTable is returned as it is."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        return cls(
            [s.request_seq for s in samples],
            [s.reply_seq for s in samples],
            [s.rtt_us for s in samples],
            [s.valid for s in samples],
            [s.anomaly for s in samples],
        )

    def __len__(self) -> int:
        return len(self.request_seq)

    def _item(self, i: int) -> RttSample:
        return RttSample(self.request_seq[i], self.reply_seq[i], self.rtt_us[i], self.valid[i], self.anomaly[i])


def parse_timestamp_us(text: str) -> int:
    """Parse decimal seconds into exact integer microseconds.

    Accepts up to six fractional digits; further digits are truncated.
    """
    whole, _, frac = text.partition(".")
    if not whole.isdigit() or (frac and not frac.isdigit()):
        raise ValueError(f"bad timestamp {text!r}")
    frac = (frac + "000000")[:6]
    return int(whole) * US_PER_S + int(frac)


def format_timestamp(time_us: int) -> str:
    """Exact inverse of parse_timestamp_us, always six fractional digits."""
    return f"{time_us // US_PER_S}.{time_us % US_PER_S:06d}"


def parse_ping_record(line: str) -> PingRecord:
    """Parse one trace line; raises ValueError for malformed input."""
    tokens = line.split()
    if len(tokens) < 5:
        raise ValueError(f"expected at least 5 fields, got {len(tokens)}")
    direction = tokens[-1].lower()
    if direction not in (REQUEST, REPLY):
        raise ValueError(f"trailing token {tokens[-1]!r} is neither request nor reply")
    return PingRecord(
        seq=int(tokens[0]),
        time_us=parse_timestamp_us(tokens[1]),
        src=tokens[2],
        dst=tokens[3],
        direction=direction,
    )


def format_ping_record(record: PingRecord) -> str:
    """Canonical tab-separated rendering; parse(format(r)) == r."""
    kind = "request" if record.direction == REQUEST else "reply"
    return (
        f"{record.seq}\t{format_timestamp(record.time_us)}\t{record.src}\t{record.dst}"
        f"\tICMP\tEcho (ping) {kind}"
    )


def parse_ping_log(text: str, warnings: list[str] | None = None) -> PingLog:
    """Parse a whole trace, one record per well-formed line, order preserved.

    Malformed lines are skipped, never fatal; pass a list as ``warnings``
    to collect a message per skipped line. Blank lines are ignored.
    """
    seq: list[int] = []
    time_us: list[int] = []
    path: list[int] = []
    is_request: list[bool] = []
    path_ids: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[-1]
        # The fast path: on an ASCII line, "digits.dddddd" minus its dot is
        # exactly the microsecond count parse_timestamp_us would give.
        if (
            len(tokens) >= 5
            and (kind == REQUEST or kind == REPLY)
            and line.isascii()
            and tokens[0].isdigit()
            and len(stamp := tokens[1]) > 7
            and stamp[-7] == "."
            and (digits := stamp[:-7] + stamp[-6:]).isdigit()
        ):
            seq.append(int(tokens[0]))
            time_us.append(int(digits))
            key = (tokens[2], tokens[3])
            request = kind == REQUEST
        else:
            try:
                record = parse_ping_record(line)
            except ValueError as exc:
                if warnings is not None:
                    warnings.append(f"line {lineno}: {exc}")
                continue
            seq.append(record.seq)
            time_us.append(record.time_us)
            key = (record.src, record.dst)
            request = record.direction == REQUEST
        path.append(path_ids.setdefault(key, len(path_ids)))
        is_request.append(request)
    return PingLog(seq, time_us, path, is_request, list(path_ids))


def pair_rtts(records: Iterable[PingRecord]) -> RttTable:
    """Pair each request with the earliest unconsumed reverse-path reply after it.

    Produces one sample per request, in request order. A reply earlier than
    its request gives valid=False with a NEGATIVE anomaly; a request with no
    following reverse-path reply gives valid=False with MISSING_REPLY.
    Every record participates in at most one pair.

    One forward pass keeps a FIFO of pending requests per (src, dst) path,
    each holding its slot in the output. A reply pops the oldest pending
    request on its reverse path; a reply with nothing pending is never used.
    This equals taking requests in file order, each claiming its earliest
    unconsumed reverse-path reply: a later request only sees replies after
    itself, which are also after every earlier request on its path, so
    replies are claimed in file order and each goes to the oldest request
    still waiting before it. Cost is O(n) in the number of records.
    """
    log = PingLog.of(records)
    path_ids = {key: i for i, key in enumerate(log.paths)}
    reverse = [path_ids.get((dst, src)) for src, dst in log.paths]
    pending: list[deque[int]] = [deque() for _ in log.paths]
    request_seq: list[int] = []
    request_time: list[int] = []
    n_requests = sum(log.is_request)
    # Every request starts unanswered; a reply fills in its slot.
    reply_seq: list[int | None] = [None] * n_requests
    rtt_us: list[int | None] = [None] * n_requests
    valid = [False] * n_requests
    anomaly: list[str | None] = [MISSING_REPLY] * n_requests
    for seq, time, path, is_request in zip(log.seq, log.time_us, log.path, log.is_request):
        if is_request:
            pending[path].append(len(request_seq))
            request_seq.append(seq)
            request_time.append(time)
            continue
        reverse_path = reverse[path]
        if reverse_path is None:
            continue
        queue = pending[reverse_path]
        if not queue:
            continue
        slot = queue.popleft()
        reply_seq[slot] = seq
        rtt_us[slot] = interval = time - request_time[slot]
        if interval < 0:
            anomaly[slot] = NEGATIVE
        else:
            valid[slot] = True
            anomaly[slot] = None
    return RttTable(request_seq, reply_seq, rtt_us, valid, anomaly)


def check_kernel_delay(kernel_delay: float) -> None:
    """Raise ValueError unless the kernel delay is finite and non-negative."""
    if not (math.isfinite(kernel_delay) and kernel_delay >= 0):
        raise ValueError(f"kernel delay must be finite and non-negative, got {kernel_delay}")


def subtract_baseline(samples: Iterable[RttSample], kernel_delay: float) -> list[float]:
    """Remove the constant kernel delay from each valid sample's RTT.

    Returns propagation times in seconds, one per valid sample in order. A
    negative result means the baseline overestimates the kernel delay for
    that sample (propagation cannot be negative); values are returned as-is
    so callers can flag them. Raises ValueError for a kernel delay that is
    negative or not finite.
    """
    check_kernel_delay(kernel_delay)
    table = RttTable.of(samples)
    return [rtt / US_PER_S - kernel_delay for rtt, valid in zip(table.rtt_us, table.valid) if valid]


def rtt_stats(samples: Iterable[RttSample]) -> dict[str, float]:
    """Summary statistics (seconds) over the valid samples only.

    Raises:
        EmptyDataError: when no sample is valid.
    """
    table = RttTable.of(samples)
    values = [rtt / US_PER_S for rtt, valid in zip(table.rtt_us, table.valid) if valid]
    if not values:
        raise EmptyDataError("no valid RTT samples to summarize")
    return {
        "count": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "max": max(values),
    }


def rtt_csv(samples: Iterable[RttSample]) -> str:
    """Render samples as CSV: request_seq, reply_seq, rtt_us, valid, anomaly."""
    table = RttTable.of(samples)
    lines = ["request_seq,reply_seq,rtt_us,valid,anomaly"]
    lines += [
        f"{request_seq},{'' if reply_seq is None else reply_seq},{'' if rtt_us is None else rtt_us},"
        f"{str(valid).lower()},{anomaly or ''}"
        for request_seq, reply_seq, rtt_us, valid, anomaly in zip(
            table.request_seq, table.reply_seq, table.rtt_us, table.valid, table.anomaly
        )
    ]
    return "\n".join(lines) + "\n"


def propagation_csv(samples: Iterable[RttSample], kernel_delay: float) -> str:
    """Render subtract_baseline as CSV: request_seq, prop_s, flagged_negative.

    One row per valid sample; a negative propagation time is flagged.
    """
    table = RttTable.of(samples)
    propagation = subtract_baseline(table, kernel_delay)
    request_seq = [seq for seq, valid in zip(table.request_seq, table.valid) if valid]
    lines = ["request_seq,prop_s,flagged_negative"]
    lines += [f"{seq},{prop:.9e},{str(prop < 0).lower()}" for seq, prop in zip(request_seq, propagation)]
    return "\n".join(lines) + "\n"


def stats_summary(stats: dict[str, float]) -> str:
    """Render rtt_stats output in milliseconds at 3 decimals."""
    lines = [f"count {stats['count']}"]
    for key in ("min", "median", "mean", "max"):
        lines.append(f"{key}_ms {stats[key] * 1e3:.3f}")
    return "\n".join(lines) + "\n"


def discrepancy_report(samples: Iterable[RttSample], warnings: list[str] | None = None) -> str:
    """List every anomalous sample and malformed line, one per line.

    Anomalies are reported, never silently dropped; a clean log yields the
    single line ``none``.
    """
    table = RttTable.of(samples)
    lines = []
    for i, anomaly in enumerate(table.anomaly):
        if anomaly == NEGATIVE:
            lines.append(
                f"negative-interval\trequest_seq={table.request_seq[i]}"
                f"\treply_seq={table.reply_seq[i]}\trtt_us={table.rtt_us[i]}"
            )
        elif anomaly == MISSING_REPLY:
            lines.append(f"missing-reply\trequest_seq={table.request_seq[i]}")
    for message in warnings or ():
        lines.append(f"malformed-line\t{message}")
    if not lines:
        lines.append("none")
    return "\n".join(lines) + "\n"
