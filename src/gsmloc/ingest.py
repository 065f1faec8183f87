"""Ping-trace parsing and round-trip-time extraction.

Input is the plain-text sniffer export format: one packet per line with
whitespace-separated fields

    seq  time  src  dst  ICMP  Echo (ping) request|reply

e.g. ``49 23.000103 169.254.118.52 169.254.65.4 ICMP Echo (ping) request``.
The direction comes solely from the trailing token. Timestamps are decimal
seconds with up to six fractional digits; they are held as exact integer
microseconds internally so golden comparisons never drift through floats.

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
from collections import defaultdict, deque
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


def parse_ping_log(text: str, warnings: list[str] | None = None) -> list[PingRecord]:
    """Parse a whole trace, one record per well-formed line, order preserved.

    Malformed lines are skipped, never fatal; pass a list as ``warnings``
    to collect a message per skipped line. Blank lines are ignored.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(parse_ping_record(line))
        except ValueError as exc:
            if warnings is not None:
                warnings.append(f"line {lineno}: {exc}")
    return records


def pair_rtts(records: list[PingRecord]) -> list[RttSample]:
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
    samples: list[RttSample | None] = []
    pending: defaultdict[tuple[str, str], deque[tuple[int, PingRecord]]] = defaultdict(deque)
    for record in records:
        if record.direction == REQUEST:
            pending[record.src, record.dst].append((len(samples), record))
            samples.append(None)
            continue
        queue = pending.get((record.dst, record.src))
        if not queue:
            continue
        slot, request = queue.popleft()
        rtt_us = record.time_us - request.time_us
        if rtt_us < 0:
            samples[slot] = RttSample(request.seq, record.seq, rtt_us, valid=False, anomaly=NEGATIVE)
        else:
            samples[slot] = RttSample(request.seq, record.seq, rtt_us, valid=True)
    for queue in pending.values():
        for slot, request in queue:
            samples[slot] = RttSample(request.seq, None, None, valid=False, anomaly=MISSING_REPLY)
    return samples


def check_kernel_delay(kernel_delay: float) -> None:
    """Raise ValueError unless the kernel delay is finite and non-negative."""
    if not (math.isfinite(kernel_delay) and kernel_delay >= 0):
        raise ValueError(f"kernel delay must be finite and non-negative, got {kernel_delay}")


def subtract_baseline(samples: list[RttSample], kernel_delay: float) -> list[float]:
    """Remove the constant kernel delay from each valid sample's RTT.

    Returns propagation times in seconds, one per valid sample in order. A
    negative result means the baseline overestimates the kernel delay for
    that sample (propagation cannot be negative); values are returned as-is
    so callers can flag them. Raises ValueError for a kernel delay that is
    negative or not finite.
    """
    check_kernel_delay(kernel_delay)
    return [s.rtt_us / US_PER_S - kernel_delay for s in samples if s.valid]


def rtt_stats(samples: list[RttSample]) -> dict[str, float]:
    """Summary statistics (seconds) over the valid samples only.

    Raises:
        EmptyDataError: when no sample is valid.
    """
    values = [s.rtt_us / US_PER_S for s in samples if s.valid]
    if not values:
        raise EmptyDataError("no valid RTT samples to summarize")
    return {
        "count": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "max": max(values),
    }


def rtt_csv(samples: list[RttSample]) -> str:
    """Render samples as CSV: request_seq, reply_seq, rtt_us, valid, anomaly."""
    lines = ["request_seq,reply_seq,rtt_us,valid,anomaly"]
    for s in samples:
        reply_seq = "" if s.reply_seq is None else str(s.reply_seq)
        rtt_us = "" if s.rtt_us is None else str(s.rtt_us)
        anomaly = s.anomaly or ""
        lines.append(f"{s.request_seq},{reply_seq},{rtt_us},{str(s.valid).lower()},{anomaly}")
    return "\n".join(lines) + "\n"


def stats_summary(stats: dict[str, float]) -> str:
    """Render rtt_stats output in milliseconds at 3 decimals."""
    lines = [f"count {stats['count']}"]
    for key in ("min", "median", "mean", "max"):
        lines.append(f"{key}_ms {stats[key] * 1e3:.3f}")
    return "\n".join(lines) + "\n"


def discrepancy_report(samples: list[RttSample], warnings: list[str] | None = None) -> str:
    """List every anomalous sample and malformed line, one per line.

    Anomalies are reported, never silently dropped; a clean log yields the
    single line ``none``.
    """
    lines = []
    for s in samples:
        if s.anomaly == NEGATIVE:
            lines.append(
                f"negative-interval\trequest_seq={s.request_seq}"
                f"\treply_seq={s.reply_seq}\trtt_us={s.rtt_us}"
            )
        elif s.anomaly == MISSING_REPLY:
            lines.append(f"missing-reply\trequest_seq={s.request_seq}")
    for message in warnings or ():
        lines.append(f"malformed-line\t{message}")
    if not lines:
        lines.append("none")
    return "\n".join(lines) + "\n"
