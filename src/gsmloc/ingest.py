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

``parse_ping_log`` reads the text in chunks of about ``CHUNK_CHARS``
characters, each ending at a "\\n", and reads each chunk's bytes as numpy
columns. Separator transitions give the token starts and ends, and the
newlines the lines; 8n tokens, each line's first after its start and each
eighth before its end, show that every line has 8 tokens. Seq and stamp
are read from right-aligned windows of up to 18 and 19 bytes, checked digit
by digit (a stamp needs exactly six digits after its one dot) and summed
against a place-value table. Each line's tail, src to direction, is
deduplicated by a hash of its bytes that is checked byte for byte, and
each distinct tail is split once for its (src, dst) and its direction,
which must be exactly ``request`` or ``reply``. A line the columns cannot
take goes alone through ``parse_ping_record``, which decides it exactly as
for a single line and is the only source of malformed-line messages: a
token count other than 0 or 8, a field that fails or runs past its
window, and any non-ASCII or control byte but tab and the CR of "\\r\\n"
("²" is a digit to ``str.isdigit`` but not to ``int``, and "\\xa0" splits
a token). A chunk holding any other line break goes line by line through
``splitlines``, whose numbering the messages use. Path ids follow the
first appearance of each (src, dst) over both kinds of line, and a chunk's
arrays keep the memory held at once to a chunk's worth, where a whole-text
``split`` would hold some seven times the text.

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
from itertools import compress
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyDataError

US_PER_S = 10**6

# parse_ping_log reads a trace in chunks of about this many characters, so
# that its byte columns stay a chunk's worth and not the whole text's.
CHUNK_CHARS = 1 << 18


def _place_values(width: int, dot: int | None = None) -> np.ndarray:
    """The place value of each byte of a number right-aligned in a window of
    ``width`` bytes, 0 at ``dot``; its last w entries serve a w-byte window."""
    digits = [j for j in range(width) if j != dot]
    places = np.zeros(width, np.int64)
    places[digits] = [10**k for k in reversed(range(len(digits)))]
    return places


# The column read takes a seq of up to 18 digits and a stamp of up to 12
# whole digits, so that each value fits an int64, and a tail (src to
# direction) of up to 64 bytes; a longer one leaves its line to
# parse_ping_record. A stamp has its dot 7 bytes from its end.
_SEQ_PLACES = _place_values(18)
_STAMP_PLACES = _place_values(19, dot=19 - 7)
_STAMP_MIN_WIDTH = 8
_TAIL_WIDTH = 64
# Odd multipliers of a tail's 64-bit words; tails of equal hash are compared byte for byte.
_TAIL_HASH = np.array(
    [
        0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93,
        0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x94D049BB133111EB, 0xBF58476D1CE4E5B9,
    ],
    np.uint64,
)
_TAB, _LF, _CR, _SPACE, _ZERO, _DOT, _QUESTION_MARK, _DEL = 0x09, 0x0A, 0x0D, 0x20, 0x30, 0x2E, 0x3F, 0x7F
_PADDING = np.full(_TAIL_WIDTH, _SPACE, np.uint8)
_COLUMNS = np.arange(_TAIL_WIDTH, dtype=np.int8)
# What splitlines breaks a line at, but "\n" and "\r".
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

REQUEST = "request"
REPLY = "reply"
_CSV_BOOL = ("false", "true")

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
    lines_before = 0
    for chunk in _chunks(text):
        columns = _chunk_columns(chunk)
        records = []
        for index, line in columns.odd_lines:
            if not line.strip():
                continue
            try:
                records.append((index, parse_ping_record(line)))
            except ValueError as exc:
                if warnings is not None:
                    warnings.append(f"line {lines_before + index + 1}: {exc}")
        lines_before += columns.n_lines
        # New paths take their ids in the order of the lines that first show them.
        firsts = columns.tail_firsts + [(index, (r.src, r.dst)) for index, r in records]
        for _, key in sorted(firsts, key=itemgetter(0)):
            path_ids.setdefault(key, len(path_ids))
        tail_path = np.array([path_ids[key] for _, key in columns.tail_firsts], np.int64)
        column_values = (
            columns.seq.tolist(),
            columns.time_us.tolist(),
            tail_path[columns.tail].tolist(),
            columns.tail_is_request[columns.tail].tolist(),
        )
        # Each record of an odd line goes in before the first column row below it.
        cuts = np.searchsorted(columns.lines, [index for index, _ in records]).tolist()
        record_values = list(zip(*((r.seq, r.time_us, path_ids[r.src, r.dst], r.direction == REQUEST) for _, r in records)))
        for out, values, inserts in zip((seq, time_us, path, is_request), column_values, record_values or [()] * 4):
            done = 0
            for cut, value in zip(cuts, inserts):
                out += values[done:cut]
                out.append(value)
                done = cut
            out += values[done:]
    return PingLog(seq, time_us, path, is_request, list(path_ids))


def _chunks(text: str) -> Iterator[str]:
    """The text in pieces of about CHUNK_CHARS characters, each ending at a
    "\\n"; a last piece without one gets one, which splitlines ignores."""
    start = 0
    while start < len(text):
        end = text.rfind("\n", start, start + CHUNK_CHARS) + 1 or text.find("\n", start + CHUNK_CHARS) + 1 or len(text)
        chunk = text[start:end]
        yield chunk if chunk.endswith("\n") else chunk + "\n"
        start = end


@dataclass
class _ChunkColumns:
    """What the column read took from a chunk, by line index within it."""

    n_lines: int
    lines: np.ndarray  # the lines read as columns, ascending
    seq: np.ndarray
    time_us: np.ndarray
    tail: np.ndarray  # each line's index into tail_firsts
    tail_firsts: list[tuple[int, tuple[str, str]]]  # each distinct tail's first line and (src, dst)
    tail_is_request: np.ndarray
    odd_lines: list[tuple[int, str]]  # every other line that is not blank, for parse_ping_record


def _chunk_columns(chunk: str) -> _ChunkColumns:
    """What the column read takes from a chunk that ends with "\\n".

    A line is read as columns when it is ASCII with no control byte but tab
    and the CR of its "\\r\\n", has 8 tokens, a seq of digits, a stamp of
    digits with exactly six after its one dot, each within its window, a tail
    (src to direction) within its window, and a direction of exactly
    ``request`` or ``reply``. Every other line that is not blank is left to
    parse_ping_record. A chunk that holds a line break other than "\\n" and
    "\\r\\n" is left to it line by line, numbered as splitlines numbers them.
    """
    # Positions count from the start of the padding, so every window fits.
    # Latin-1 keeps one byte per character: a non-ASCII one reads from 0x80
    # on, and "replace" writes a "?" for one past U+00FF, set to DEL here.
    padded = np.concatenate((_PADDING, np.frombuffer(chunk.encode("latin-1", "replace"), np.uint8)))
    if not chunk.isascii():
        marks = np.flatnonzero(padded == _QUESTION_MARK).tolist()
        padded[[at for at in marks if chunk[at - len(_PADDING)] != "?"]] = _DEL
    if "\r" in chunk and (padded[np.flatnonzero(padded == _CR) + 1] != _LF).any():
        return _splitlines_chunk(chunk)
    # Control bytes but tab, LF and CR, DEL and every non-ASCII character.
    odd_byte = (padded < _SPACE) ^ (padded == _TAB) ^ (padded == _LF) ^ (padded == _CR) | (padded >= _DEL)
    odd_at = np.flatnonzero(odd_byte) if odd_byte.any() else np.zeros(0, np.intp)
    if odd_at.size and any(map(chunk.__contains__, _OTHER_LINE_BREAKS)):
        return _splitlines_chunk(chunk)
    newlines = np.flatnonzero(padded == _LF)
    n_lines = len(newlines)
    line_before = np.concatenate(([len(_PADDING) - 1], newlines[:-1]))
    in_token = padded > _SPACE
    # The padding starts with a separator and the chunk ends with one, so token edges alternate.
    edges = np.flatnonzero(in_token[1:] != in_token[:-1]) + 1
    starts = edges[0::2]
    ends = edges[1::2]
    # 8n tokens with each line's first after its start and each eighth before
    # its end put exactly 8 on every line; otherwise count them line by line.
    if len(starts) == 8 * n_lines and (starts[::8] > line_before).all() and (ends[7::8] <= newlines).all():
        counts = np.full(n_lines, 8)
        first_token = np.arange(0, len(starts), 8)
    else:
        tokens_before = np.searchsorted(starts, newlines)
        counts = np.diff(tokens_before, prepend=0)
        first_token = tokens_before - counts
    has_odd_byte = np.zeros(n_lines, bool)
    has_odd_byte[np.searchsorted(newlines, odd_at)] = True
    lines = np.flatnonzero((counts == 8) & ~has_odd_byte)
    token = first_token[lines]
    seq, seq_ok = _read_digits(padded, starts[token], ends[token], _SEQ_PLACES)
    time_us, stamp_ok = _read_digits(padded, starts[token + 1], ends[token + 1], _STAMP_PLACES, _STAMP_MIN_WIDTH)
    tail_start = starts[token + 2]
    tail_end = ends[token + 7]
    keep = np.flatnonzero(seq_ok & stamp_ok & (tail_end - tail_start <= _TAIL_WIDTH))
    lines, seq, time_us, tail_start, tail_end = lines[keep], seq[keep], time_us[keep], tail_start[keep], tail_end[keep]
    first_row, tail = _distinct_tails(padded, tail_start, tail_end)
    tails = [
        chunk[start - len(_PADDING) : end - len(_PADDING)].split()
        for start, end in zip(tail_start[first_row].tolist(), tail_end[first_row].tolist())
    ]
    known = np.array([tokens[-1] in (REQUEST, REPLY) for tokens in tails], bool)
    tail_firsts = [(line, (tokens[0], tokens[1])) for line, tokens in zip(lines[first_row].tolist(), tails)]
    tail_is_request = np.array([tokens[-1] == REQUEST for tokens in tails], bool)
    if not known.all():
        # Lines whose direction is not exactly request or reply go to parse_ping_record.
        keep = np.flatnonzero(known[tail])
        lines, seq, time_us, tail = lines[keep], seq[keep], time_us[keep], (np.cumsum(known) - 1)[tail[keep]]
        tail_firsts = list(compress(tail_firsts, known))
        tail_is_request = tail_is_request[known]
    odd = np.ones(n_lines, bool)
    odd[lines] = False
    odd &= (counts != 0) | has_odd_byte
    odd_lines = [
        (index, chunk[start + 1 - len(_PADDING) : end - len(_PADDING)].removesuffix("\r"))
        for index, start, end in zip(
            np.flatnonzero(odd).tolist(), line_before[odd].tolist(), newlines[odd].tolist()
        )
    ]
    return _ChunkColumns(n_lines, lines, seq, time_us, tail, tail_firsts, tail_is_request, odd_lines)


def _splitlines_chunk(chunk: str) -> _ChunkColumns:
    """A chunk with no column rows: every line is left to parse_ping_record."""
    lines = chunk.splitlines()
    no_rows = np.zeros(0, np.intp)
    return _ChunkColumns(len(lines), no_rows, no_rows, no_rows, no_rows, [], no_rows.astype(bool), list(enumerate(lines)))


def _window(padded: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each token's ``width`` bytes up to its end, and which of them are its own."""
    window = sliding_window_view(padded, width)[ends - width]
    inside = _COLUMNS[:width] >= np.maximum(width - (ends - starts), 0).astype(np.int8)[:, None]
    return window, inside


def _read_digits(
    padded: np.ndarray, starts: np.ndarray, ends: np.ndarray, places: np.ndarray, min_width: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The value of each token read as a number, and which tokens are one.

    A token is one when it is ``min_width`` to ``len(places)`` bytes wide
    and, right-aligned against ``places``, has a digit at each place value
    and a "." at each 0 (see _place_values); a stamp's value read so is its
    microsecond count. The window is only as wide as the widest token.
    """
    widths = ends - starts
    width = int(np.clip(widths.max(initial=0), min_width, len(places)))
    places = places[-width:]
    window, inside = _window(padded, starts, ends, width)
    digits = window - np.uint8(_ZERO)  # a byte that is no digit reads above 9
    ok = (widths >= min_width) & (widths <= width)
    if 0 in places:
        ok &= window[:, places == 0].ravel() == _DOT
    not_digit = (digits > 9) & inside & (places > 0)
    if not_digit.any():
        ok &= ~not_digit.any(axis=1)
    return (digits * inside) @ places, ok


def _distinct_tails(padded: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct tail, and each row's index among them.

    Tails are compared by a hash of their bytes in a right-aligned window;
    when two different tails share a hash, by their bytes.
    """
    width = -(-int((ends - starts).max(initial=0)) // 8) * 8  # whole 64-bit words
    window, inside = _window(padded, starts, ends, width)
    tails = window * inside
    words = tails.view(np.uint64)
    _, first_row, tail = np.unique(words @ _TAIL_HASH[: width // 8], return_index=True, return_inverse=True)
    if not (words[first_row][tail] == words).all():
        _, first_row, tail = np.unique(
            tails.view(np.dtype((np.void, width))).ravel(), return_index=True, return_inverse=True
        )
    return first_row, tail


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
        f"{_CSV_BOOL[valid]},{anomaly or ''}"
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
                tail = tails[rtt] = f"{prop:.9e},{_CSV_BOOL[prop < 0]}"
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
