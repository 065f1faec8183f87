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

``parse_ping_log`` reads the lines in blocks of ``STRIDE_LINES``. It joins a
block's lines around a sentinel token that none of them holds and splits
the result once; when every ninth token is a sentinel, every line has
exactly 8 tokens and each column is a stride of the token list. A block is
read by column only when it is ASCII, every seq is decimal digits, every
stamp has exactly six fractional digits, and every direction is written
exactly ``request`` or ``reply``. A block that fails is halved until its
bad lines stand alone, and a line on its own goes through
``parse_ping_record``, which decides it exactly as for a single line and is
the only source of malformed-line messages. The column read accepts
nothing that parser would reject or read differently; the ASCII test
matters because ``str.isdigit`` accepts digits such as "²" that ``int``
rejects. Blocks keep the tokens held at once to a block's worth, where a
whole-text ``split`` would hold some seven times the text.

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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from .errors import EmptyDataError

US_PER_S = 10**6

# parse_ping_log reads a trace in blocks of this many lines, so that its
# tokens stay a block's worth and not the whole text's.
STRIDE_LINES = 64
_SENTINEL = "\x00"
_DOT_AT = itemgetter(-7)

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
    lines = text.splitlines()
    # Blocks still to read, as (start, end) line indices, the next on top.
    # A block that fails the stride check is halved until its bad lines
    # stand alone, and a line on its own goes through parse_ping_record.
    spans = [(start, start + STRIDE_LINES) for start in reversed(range(0, len(lines), STRIDE_LINES))]
    while spans:
        start, end = spans.pop()
        block = lines[start:end]
        columns = _stride_columns(block)
        if columns is not None:
            seqs, dotless_stamps, srcs, dsts, kinds = columns
            seq += map(int, seqs)
            time_us += map(int, dotless_stamps)
            ids = list(map(path_ids.get, zip(srcs, dsts)))
            if None in ids:
                ids = [path_ids.setdefault(key, len(path_ids)) for key in zip(srcs, dsts)]
            path += ids
            is_request += map(REQUEST.__eq__, kinds)
        elif len(block) > 1:
            middle = start + len(block) // 2
            spans += ((middle, end), (start, middle))
        elif block[0].strip():
            try:
                record = parse_ping_record(block[0])
            except ValueError as exc:
                if warnings is not None:
                    warnings.append(f"line {start + 1}: {exc}")
                continue
            seq.append(record.seq)
            time_us.append(record.time_us)
            path.append(path_ids.setdefault((record.src, record.dst), len(path_ids)))
            is_request.append(record.direction == REQUEST)
    return PingLog(seq, time_us, path, is_request, list(path_ids))


def _stride_columns(block: list[str]) -> tuple[list[str], Iterator[str], list[str], list[str], list[str]] | None:
    """A block's seq, dotless stamp, src, dst and direction columns, or None.

    None unless the block is ASCII and every line has 8 tokens: a seq of
    digits, a stamp of digits with exactly six after the dot, src, dst,
    three tokens that parse_ping_record does not read either, and exactly
    ``request`` or ``reply``. Joining the lines around a sentinel token that
    no line holds makes one ``split`` give every line's tokens with a
    sentinel between lines; with 9n - 1 tokens, the sentinels sit at every
    ninth place exactly when each of the n lines has 8 tokens.
    """
    joined = f" {_SENTINEL} ".join(block)
    n = len(block)
    if not joined.isascii() or joined.count(_SENTINEL) != n - 1:
        return None
    tokens = joined.split()
    if len(tokens) != 9 * n - 1 or tokens[8::9].count(_SENTINEL) != n - 1:
        return None
    seqs = tokens[0::9]
    kinds = tokens[7::9]
    if not "".join(seqs).isdigit() or kinds.count(REQUEST) + kinds.count(REPLY) != n:
        return None
    # "digits.dddddd" minus its dot is the microsecond count parse_timestamp_us gives.
    stamps = tokens[1::9]
    digits = "".join(stamps)
    if (
        min(map(len, stamps)) < 8
        or set(map(_DOT_AT, stamps)) != {"."}
        or digits.count(".") != n
        or not digits.replace(".", "").isdigit()
    ):
        return None
    return seqs, map(str.replace, stamps, repeat("."), repeat("")), tokens[2::9], tokens[3::9], kinds


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
    # A trailing empty item ends the text with a newline without copying it.
    lines.append("")
    return "\n".join(lines)


def propagation_csv(samples: Iterable[RttSample], kernel_delay: float) -> str:
    """Render subtract_baseline as CSV: request_seq, prop_s, flagged_negative.

    One row per valid sample; a negative propagation time is flagged. A
    row's text after request_seq depends only on the sample's rtt_us, so it
    is formatted once per distinct rtt_us: a clean capture repeats a few
    hundred values across thousands of rows.
    """
    check_kernel_delay(kernel_delay)
    table = RttTable.of(samples)
    tails: dict[int, str] = {}
    lines = ["request_seq,prop_s,flagged_negative"]
    for seq, rtt, valid in zip(table.request_seq, table.rtt_us, table.valid):
        if valid:
            tail = tails.get(rtt)
            if tail is None:
                prop = rtt / US_PER_S - kernel_delay
                tail = tails[rtt] = f"{prop:.9e},{str(prop < 0).lower()}"
            lines.append(f"{seq},{tail}")
    lines.append("")
    return "\n".join(lines)


def stats_summary(stats: dict[str, float]) -> str:
    """Render rtt_stats output in milliseconds at 3 decimals."""
    lines = [f"count {stats['count']}"]
    for key in ("min", "median", "mean", "max"):
        lines.append(f"{key}_ms {stats[key] * 1e3:.3f}")
    lines.append("")
    return "\n".join(lines)


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
    lines.append("")
    return "\n".join(lines)
