"""Ping-trace parsing and round-trip-time extraction.

Input is the plain-text sniffer export format: one packet per line with
whitespace-separated fields

    seq  time  src  dst  ICMP  Echo (ping) request|reply

e.g. ``49 23.000103 169.254.118.52 169.254.65.4 ICMP Echo (ping) request``.
The direction comes solely from the trailing token. Timestamps are decimal
seconds with up to six fractional digits; they are held as exact integer
microseconds internally so golden comparisons never drift through floats.

A parsed trace is a ``PingLog`` and a paired one an ``RttTable``: numpy
columns, one per field (int64, bool, and a uint8 anomaly code), so a
capture stays in arrays from parse to render. ``parse_ping_log`` alone
builds a ``PingLog``, which ``pair_rtts`` takes, and ``pair_rtts`` alone
builds an ``RttTable``, which the renderers take. An ``RttTable`` iterates
as ``RttSample``s, built from its columns with Python ints, bools and
``None``. Every seq fits an int64 and every stamp lies from 0 to
``INT64_MAX`` microseconds, so every interval fits an int64 too:
``parse_ping_record`` calls a line with a value past either bound
malformed.

A capture is parsed a piece at a time, each piece about ``CHUNK_CHARS``
characters of its text, ending at a "\\n" and read as UTF-8 bytes.
``pieces`` cuts text and files alike: it reads text blocks through the
io module's newline decoder, which writes "\\r\\n" and a lone "\\r" as
"\\n", and cuts each block after its last "\\n". ``parse_ping_log`` feeds
it text in slices of ``CHUNK_CHARS``, and ``analyze-log`` a file's blocks
as it decodes them, so the capture is never held whole. Every other line
break is then written as "\\n": a chunk holding a non-ASCII byte or
another line break is decoded, split by ``splitlines`` and joined by
"\\n", so that its "\\n" lines are the lines ``splitlines`` gives; a
"\\n" never falls inside a UTF-8 character, so each chunk decodes on its
own. Each chunk's bytes, copied after a padding, are read as numpy
columns. Separator transitions give the token starts and ends,
and the newlines the lines; 8n tokens, each line's first after its start
and each eighth before its end, show that every line has 8 tokens. Seq and stamp
are read from an unaligned little-endian uint64 view of the chunk, 8 bytes
a word from each token's end, the bytes before the token read as "0": each
word is checked to be 8 digits and folded to its value in three
multiply-shifts, as simdjson does. A seq takes up to 18 digits and a stamp
up to 12 whole digits, its dot and exactly six after it, so every value
fits an int64. Each line's tail, src to direction, is deduplicated by a
hash of its bytes that is checked byte for byte, and each distinct tail is
split once for its (src, dst) and its direction, which must be exactly
``request`` or ``reply``. A line the columns cannot take goes alone
through ``parse_ping_record``, which decides it exactly as for a single
line and is the only source of malformed-line messages: a token count
other than 0 or 8, a field that fails or runs past its window, and a line
holding a control byte but tab, a DEL or a non-ASCII byte ("²" is a digit
to ``str.isdigit`` but not to ``int``, and "\\xa0" splits a token). One
function takes a piece to its final columns: it puts each such line's
record in among the column rows in line order, with ``np.insert``, and
gives each new (src, dst) its path id in the order of the lines of
either kind that first show them. ``parse_ping_log`` only joins the
pieces' columns, so its arrays keep the memory held at once to a
chunk's worth, where a whole-text ``split`` would hold some seven times
the text.

Each request pairs with the earliest unconsumed reply after it whose
(src, dst) is the reverse of its own; the exports carry no ICMP
sequence/id fields, so record order is the only pairing key available.
Replies on a path are therefore consumed in file order, a FIFO of pending
requests per path. ``pair_rtts`` runs that FIFO as one vector pass: on
each path, a reply is consumed unless the requests less the replies so
far reach a new low below 0 at it, which a running minimum shows, and the
j-th consumed reply pairs with the j-th request. A reply timestamped
before its request yields an invalid sample flagged as a negative
interval rather than being dropped.

The renderers build their text from uint8 digit matrices and a mask of
the bytes each row keeps, and turn an interval into seconds as Python's
``rtt_us / 10**6`` does, exactly, also past 2**53. A propagation time is
written as ``f"{prop:.9e}"`` writes it: its ten significant digits come
from one product with an exact power of ten, and the rare row whose
rounding that product cannot decide (within 2**-20 of a half), a zero, or
a value outside [1e-13, 1e10) goes to the f-string itself. The fields are
copied into one text matrix, each freed once it is copied.
"""

from __future__ import annotations

import io
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyDataError

US_PER_S = 10**6

# parse_ping_log reads a trace in chunks of about this many bytes, or
# characters of text, so that its byte columns stay a chunk's worth and
# not the whole capture's.
CHUNK_CHARS = 1 << 18

# The column read takes a seq of up to 18 digits and a stamp of up to 12
# whole digits, so that each value fits an int64, and a tail (src to
# direction) of up to 64 bytes; a longer one leaves its line to
# parse_ping_record. A stamp has its dot 7 bytes from its end.
_SEQ_DIGITS = 18
_STAMP_WHOLE_DIGITS = 12
_TAIL_WIDTH = 64
# Odd multipliers of a tail's 64-bit words; tails of equal hash are compared byte for byte.
_TAIL_HASH = np.array(
    [
        0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93,
        0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x94D049BB133111EB, 0xBF58476D1CE4E5B9,
    ],
    np.uint64,
)
_TAB, _LF, _SPACE, _ZERO, _DOT, _DEL = 0x09, 0x0A, 0x20, 0x30, 0x2E, 0x7F
_COMMA, _MINUS, _PLUS, _LOWER_E = 0x2C, 0x2D, 0x2B, 0x65
_PADDING = np.full(_TAIL_WIDTH, _SPACE, np.uint8)
_NO_INTS = np.zeros(0, np.int64)
_NO_BOOLS = np.zeros(0, bool)
# 10**k at k; the renderers count an integer's digits against it.
_POWERS_OF_TEN = np.uint64(10) ** np.arange(20, dtype=np.uint64)
# 10.0**k at k, each exact as a float64; 10.0**23 is not.
_EXACT_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])
_COLUMNS = np.arange(_TAIL_WIDTH, dtype=np.int8)
# Eight bytes read as a little-endian uint64 word, the first byte lowest
# (see _eight_digits). _HIGH_BYTES[n] keeps a word's last n bytes.
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
_THREES = np.uint64(0x3333333333333333)
_PAIRS = np.uint64(0x000000FF000000FF)
_HUNDRED_AND_MILLION = np.uint64(100 + (10**6 << 32))
_ONE_AND_TEN_THOUSAND = np.uint64(1 + (10**4 << 32))
_HIGH_BYTES = np.array([2**64 - 2 ** (64 - 8 * n) for n in range(9)], np.uint64)

REQUEST = "request"
REPLY = "reply"
_CSV_BOOL = ("false", "true")

NEGATIVE = "negative"
MISSING_REPLY = "missing_reply"
# RttTable.anomaly indexes this.
ANOMALIES = (None, NEGATIVE, MISSING_REPLY)

INT64_MAX = 2**63 - 1


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


@dataclass(eq=False)
class PingLog:
    """Parsed trace records as int64 and bool columns, one row per record."""

    seq: np.ndarray  # int64
    time_us: np.ndarray  # int64, from 0 to INT64_MAX
    path: np.ndarray  # int64 index into paths
    is_request: np.ndarray  # bool
    paths: list[tuple[str, str]]  # the distinct (src, dst), in order of first appearance

    def __len__(self) -> int:
        return len(self.seq)


@dataclass(eq=False)
class RttTable:
    """Paired samples as int64, bool and uint8 columns, one row per request.

    The renderers read the columns. Iterating the table builds each row's
    RttSample, as the benchmark's capture workloads do to count anomalies.
    """

    request_seq: np.ndarray  # int64
    reply_seq: np.ndarray  # int64, 0 where not replied
    rtt_us: np.ndarray  # int64, 0 where not replied
    replied: np.ndarray  # bool: reply_seq and rtt_us are set, not None
    valid: np.ndarray  # bool
    anomaly: np.ndarray  # uint8 index into ANOMALIES

    def __len__(self) -> int:
        return len(self.request_seq)

    def __iter__(self) -> Iterator[RttSample]:
        columns = (self.request_seq, self.reply_seq, self.rtt_us, self.replied, self.valid, self.anomaly)
        for request_seq, reply_seq, rtt_us, replied, valid, anomaly in zip(*(c.tolist() for c in columns)):
            yield RttSample(request_seq, reply_seq if replied else None, rtt_us if replied else None, valid, ANOMALIES[anomaly])


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
    """Parse one trace line; raises ValueError for malformed input.

    A seq outside int64 or a timestamp past INT64_MAX microseconds is
    malformed, so that every record fits a PingLog's columns.
    """
    tokens = line.split()
    if len(tokens) < 5:
        raise ValueError(f"expected at least 5 fields, got {len(tokens)}")
    direction = tokens[-1].lower()
    if direction not in (REQUEST, REPLY):
        raise ValueError(f"trailing token {tokens[-1]!r} is neither request nor reply")
    seq = int(tokens[0])
    if not -INT64_MAX - 1 <= seq <= INT64_MAX:
        raise ValueError(f"seq {tokens[0]} is outside the int64 range")
    time_us = parse_timestamp_us(tokens[1])
    if time_us > INT64_MAX:
        raise ValueError(f"timestamp {tokens[1]} is past the int64 range of microseconds")
    return PingRecord(seq=seq, time_us=time_us, src=tokens[2], dst=tokens[3], direction=direction)


def format_ping_record(record: PingRecord) -> str:
    """Canonical tab-separated rendering; parse(format(r)) == r."""
    kind = "request" if record.direction == REQUEST else "reply"
    return (
        f"{record.seq}\t{format_timestamp(record.time_us)}\t{record.src}\t{record.dst}"
        f"\tICMP\tEcho (ping) {kind}"
    )


def parse_ping_log(capture: str | Iterable[bytes], warnings: list[str] | None = None) -> PingLog:
    """Parse a whole trace, one record per well-formed line, order preserved.

    The trace is text, or an iterable of pieces of its UTF-8 bytes, each
    ending at a "\\n" but the last and none empty, as ``pieces`` cuts a
    file read a block at a time; text goes through ``pieces`` in slices of
    ``CHUNK_CHARS`` characters. Each piece is parsed to its final columns
    on its own (_parse_piece), and this function joins them, so only a
    piece's worth of the trace is held at once, and the result is that of
    the joined bytes. Every line break is first written as "\\n", and a
    line with a control byte but tab, a DEL or a non-ASCII byte goes alone
    through ``parse_ping_record``. Malformed lines are skipped, never
    fatal; pass a list as ``warnings`` to collect a message per skipped
    line, numbered as ``splitlines`` numbers it. Blank lines are ignored.
    """
    chunks = capture
    if isinstance(capture, str):
        chunks = pieces(capture[start : start + CHUNK_CHARS] for start in range(0, len(capture), CHUNK_CHARS))
    # Each column's pieces, a piece's worth each, joined at the end.
    parts: tuple[list[np.ndarray], ...] = ([_NO_INTS], [_NO_INTS], [_NO_INTS], [_NO_BOOLS])
    path_ids: dict[tuple[str, str], int] = {}
    lines_before = 0
    for piece in chunks:
        n_lines, columns = _parse_piece(piece, path_ids, warnings, lines_before)
        lines_before += n_lines
        for part, column in zip(parts, columns):
            part.append(column)
    return PingLog(*map(np.concatenate, parts), list(path_ids))


def pieces(blocks: Iterable[str]) -> Iterator[bytes]:
    """The UTF-8 of the blocks' text, "\\r\\n" and a lone "\\r" read as
    "\\n", in pieces that each end at a "\\n" but the last, which may not;
    no piece is empty.

    The blocks go through the io module's newline decoder, which holds a
    block's last "\\r" until it sees whether a "\\n" follows. Each block is
    cut after its last "\\n", and the text after it is carried into the
    next piece, joined once, so a piece is about a block's worth. A lone
    surrogate is written as "surrogatepass" writes it.
    """
    decoder = io.IncrementalNewlineDecoder(None, translate=True)
    carry: list[str] = []  # the text after the last line break yielded
    for block in blocks:
        text = decoder.decode(block)
        end = text.rfind("\n") + 1
        if not end:
            carry.append(text)
            continue
        carry.append(text[:end])
        piece = "".join(carry).encode("utf-8", "surrogatepass")
        carry = [text[end:]]
        # Only the piece is held while it is parsed.
        del block, text
        yield piece
    carry.append(decoder.decode("", final=True))
    last = "".join(carry).encode("utf-8", "surrogatepass")
    if last:
        yield last


def _lf_lines(chunk: bytes) -> bytes:
    """The chunk's UTF-8 bytes with every line break splitlines finds written
    as "\\n", the chunk itself when it is ASCII with no break but "\\n"."""
    if chunk.isascii() and not any(map(chunk.__contains__, b"\r\x0b\x0c\x1c\x1d\x1e")):
        return chunk
    return ("\n".join(chunk.decode("utf-8", "surrogatepass").splitlines()) + "\n").encode("utf-8", "surrogatepass")


def _parse_piece(
    piece: bytes, path_ids: dict[tuple[str, str], int], warnings: list[str] | None, lines_before: int
) -> tuple[int, tuple[np.ndarray, ...]]:
    """A piece's line count, and the seq, time_us, path and is_request
    columns of its records, in line order.

    The piece is ended by a "\\n" if it lacks one, and its line breaks are
    written as "\\n" (_lf_lines). A line is read as columns when it has no
    control byte but tab, no DEL and no non-ASCII byte, has 8 tokens, a seq
    of digits, a stamp of digits with exactly six after its one dot, each
    within its window, a tail (src to direction) within its window, and a
    direction of exactly ``request`` or ``reply``. Every other line that is
    not blank is decoded and goes alone to parse_ping_record: its record
    goes in among the column rows in line order, and its error, numbered
    after the ``lines_before`` lines of the pieces before, into
    ``warnings``. Each (src, dst) not yet in ``path_ids`` takes the next id
    there, in the order of the lines that first show them.
    """
    if not piece.endswith(b"\n"):
        piece += b"\n"
    chunk = _lf_lines(piece)
    # Positions count from the start of the padding, so every window fits.
    padded = np.concatenate((_PADDING, np.frombuffer(chunk, np.uint8)))
    newlines = np.flatnonzero(padded == _LF)
    n_lines = len(newlines)
    # Control bytes but tab and LF, DEL and non-ASCII bytes: looked for first, as a chunk seldom holds one.
    n_usual = n_lines + np.count_nonzero(padded == _TAB)
    if np.count_nonzero(padded < _SPACE) > n_usual or _DEL in chunk or not chunk.isascii():
        odd_at = np.flatnonzero((padded < _SPACE) ^ (padded == _TAB) ^ (padded == _LF) | (padded >= _DEL))
    else:
        odd_at = np.zeros(0, np.intp)
    line_before = np.concatenate(([len(_PADDING) - 1], newlines[:-1]))
    in_token = padded > _SPACE
    # The padding starts with a separator and the chunk ends with one, so token edges alternate.
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])
    edges += 1
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
    words = _words(padded)
    seq, seq_ok = _read_number(words, starts[token], ends[token], _SEQ_DIGITS)
    time_us, stamp_ok = _read_stamp(words, starts[token + 1], ends[token + 1])
    tail_start = starts[token + 2]
    tail_end = ends[token + 7]
    keep = np.flatnonzero(seq_ok & stamp_ok & (tail_end - tail_start <= _TAIL_WIDTH))
    # Every kept value is below 10**18, so its uint64 reads as the same int64.
    seq, time_us = seq[keep].view(np.int64), time_us[keep].view(np.int64)
    lines, tail_start, tail_end = lines[keep], tail_start[keep], tail_end[keep]
    first_row, tail = _distinct_tails(padded, tail_start, tail_end)
    first_lines = lines[first_row].tolist()
    tails = [
        chunk[start - len(_PADDING) : end - len(_PADDING)].decode("ascii").split()
        for start, end in zip(tail_start[first_row].tolist(), tail_end[first_row].tolist())
    ]
    # Lines whose direction is not exactly request or reply go to parse_ping_record.
    known = [tokens[-1] in (REQUEST, REPLY) for tokens in tails]
    keep = np.array(known, bool)[tail]
    lines, seq, time_us, tail = lines[keep], seq[keep], time_us[keep], tail[keep]
    odd = np.ones(n_lines, bool)
    odd[lines] = False
    odd &= (counts != 0) | has_odd_byte
    records = []
    for index, start, end in zip(np.flatnonzero(odd).tolist(), line_before[odd].tolist(), newlines[odd].tolist()):
        line = chunk[start + 1 - len(_PADDING) : end - len(_PADDING)].decode("utf-8", "surrogatepass")
        if not line.strip():
            continue
        try:
            records.append((index, parse_ping_record(line)))
        except ValueError as exc:
            if warnings is not None:
                warnings.append(f"line {lines_before + index + 1}: {exc}")
    # New paths take their ids in the order of the lines that first show them.
    firsts = [(line, (tokens[0], tokens[1])) for line, tokens, ok in zip(first_lines, tails, known) if ok]
    firsts += [(index, (r.src, r.dst)) for index, r in records]
    for _, key in sorted(firsts, key=itemgetter(0)):
        path_ids.setdefault(key, len(path_ids))
    # A tail whose direction is neither request nor reply has no rows left, so its -1 is never read.
    tail_path = np.array([path_ids.get((tokens[0], tokens[1]), -1) for tokens in tails], np.int64)
    tail_is_request = np.array([tokens[-1] == REQUEST for tokens in tails], bool)
    columns = (seq, time_us, tail_path[tail], tail_is_request[tail])
    if records:
        # Each record of an odd line goes in before the first column row below it.
        cuts = np.searchsorted(lines, [index for index, _ in records])
        inserts = zip(*((r.seq, r.time_us, path_ids[r.src, r.dst], r.direction == REQUEST) for _, r in records))
        columns = tuple(np.insert(column, cuts, inserted) for column, inserted in zip(columns, inserts))
    return n_lines, columns


def _words(padded: np.ndarray) -> np.ndarray:
    """The 8 bytes from each position of ``padded`` on as a little-endian
    uint64: an unaligned view of the bytes, not a copy."""
    return np.ndarray((len(padded) - 7,), "<u8", padded, strides=(1,))


def _eight_digits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number each word's 8 bytes spell, first byte first, and which
    words are 8 ASCII digits.

    A byte is a digit when its high nibble is 3 and that of the byte plus 6
    is 3 too; an ASCII byte plus 6 never carries into the next byte. The
    digits are folded in three multiplications, as simdjson does (Langdale
    & Lemire, VLDB J. 2019): each byte becomes 10 times itself plus the
    next byte, so that bytes 0, 2, 4 and 6 hold the four 2-digit pairs, and
    two products weigh those by 10**6, 10**4, 100 and 1 and sum them in the
    word's high half. The arithmetic wraps as uint64 arrays do, silently.
    """
    ok = ((words & _HIGH_NIBBLES) | ((words + _SIXES) & _HIGH_NIBBLES) >> 4) == _THREES
    words = words - _ASCII_ZEROS
    words = words * 10 + (words >> 8)
    words = ((words & _PAIRS) * _HUNDRED_AND_MILLION + (words >> 16 & _PAIRS) * _ONE_AND_TEN_THOUSAND) >> 32
    return words, ok


def _own_bytes(words: np.ndarray, n_own: np.ndarray | int) -> np.ndarray:
    """Each word with all but its last ``n_own`` bytes read as "0"."""
    keep = _HIGH_BYTES[n_own]
    return words & keep | _ASCII_ZEROS & ~keep


def _read_number(
    words: np.ndarray, starts: np.ndarray, ends: np.ndarray, max_digits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each token read as a decimal number of 1 to ``max_digits`` digits,
    as uint64, and which tokens are one.

    The token is read a word (see _words) at a time from its end, each
    word's bytes before the token read as "0", and only as many words as
    the widest token needs. The value of a token that is no number is
    meaningless.
    """
    widths = ends - starts
    ok = (widths >= 1) & (widths <= max_digits)
    value = np.zeros(len(ends), np.uint64)
    for k in range(0, min(int(widths.max(initial=0)), max_digits), 8):
        digits, word_ok = _eight_digits(_own_bytes(words[ends - k - 8], np.clip(widths - k, 0, 8)))
        ok &= word_ok
        value += digits * _POWERS_OF_TEN[k]
    return value, ok


def _read_stamp(words: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each token read as a stamp, 1 to 12 digits, a "." and 6 digits, in
    microseconds as uint64, and which tokens are one (see _read_number)."""
    # The last word holds the last whole digit, the dot and the six fractional digits.
    last = words[ends - 8]
    fraction, ok = _eight_digits(_own_bytes(last, 6))
    ok &= (last >> 8 & 0xFF) == _DOT
    whole, whole_ok = _read_number(words, starts, ends - 7, _STAMP_WHOLE_DIGITS)
    return whole * US_PER_S + fraction, ok & whole_ok


def _window(padded: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each token's ``width`` bytes up to its end, and which of them are its own."""
    window = sliding_window_view(padded, width)[ends - width]
    inside = _COLUMNS[:width] >= np.maximum(width - (ends - starts), 0).astype(np.int8)[:, None]
    return window, inside


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


def pair_rtts(records: PingLog) -> RttTable:
    """Pair each request with the earliest unconsumed reverse-path reply after it.

    Produces one sample per request, in request order. A reply earlier than
    its request gives valid=False with a NEGATIVE anomaly; a request with no
    following reverse-path reply gives valid=False with MISSING_REPLY.
    Every record participates in at most one pair.

    Taking requests in file order, each claiming its earliest unconsumed
    reverse-path reply, is a FIFO of pending requests per (src, dst) path: a
    later request only sees replies after itself, which are also after every
    earlier request on its path, so replies are claimed in file order and
    each goes to the oldest request still waiting before it. A reply with
    nothing pending is never used.

    The FIFO runs as one vector pass. Each request is keyed by its own path
    and each reply by its reverse path; a reply with no reverse path is
    dropped. Within a key, in file order, let B be the requests less the
    replies so far. The pending count is B less min(0, the lowest B so far),
    so a reply is consumed iff B after it is at least min(0, the lowest B
    before it), and the j-th consumed reply pairs with the j-th request. One
    np.minimum.accumulate takes every key's running minimum at once, each
    key's B shifted below those of the keys sorted before it.
    """
    path_ids = {key: i for i, key in enumerate(records.paths)}
    reverse = np.array([path_ids.get((dst, src), -1) for src, dst in records.paths], np.int64)
    key = np.where(records.is_request, records.path, reverse[records.path])
    # File order within each key.
    order = np.flatnonzero(key >= 0)
    # The narrowest dtype that holds the keys lets the stable sort run as a radix sort.
    order = order[np.argsort(key[order].astype(np.min_scalar_type(len(records.paths))), kind="stable")]
    key = key[order]
    is_request = records.is_request[order]
    counts = np.bincount(key, minlength=len(records.paths))
    ends = np.cumsum(counts)
    starts = ends - counts
    balance = np.cumsum(np.where(is_request, 1, -1))
    balance -= np.concatenate(([0], balance))[starts][key]
    # A key's B lies within +-counts, so shifting each by starts + ends puts it at or below every earlier key's.
    shift = (starts + ends)[key]
    lowest = np.minimum.accumulate(balance - shift) + shift
    lowest_before = np.minimum(np.concatenate(([0], lowest[:-1])), 0)
    lowest_before[starts[counts > 0]] = 0
    consumed = ~is_request & (balance >= lowest_before)
    # The j-th consumed reply of a key and the j-th request of that key, as rows of records.
    requests = order[is_request]
    replies = order[consumed]
    reply_key = key[consumed]
    request_counts = np.bincount(key[is_request], minlength=len(records.paths))
    request_starts = np.cumsum(request_counts) - request_counts
    reply_counts = np.bincount(reply_key, minlength=len(records.paths))
    rank = np.arange(len(replies)) - (np.cumsum(reply_counts) - reply_counts)[reply_key]
    answered = requests[request_starts[reply_key] + rank]
    # Each answered request's slot in the output, which is in file order.
    slot = (np.cumsum(records.is_request) - 1)[answered]
    n_requests = int(np.count_nonzero(records.is_request))
    reply_seq = np.zeros(n_requests, np.int64)
    reply_seq[slot] = records.seq[replies]
    rtt_us = np.zeros(n_requests, np.int64)
    rtt_us[slot] = records.time_us[replies] - records.time_us[answered]
    replied = np.zeros(n_requests, bool)
    replied[slot] = True
    valid = replied & (rtt_us >= 0)
    anomaly = np.full(n_requests, ANOMALIES.index(MISSING_REPLY), np.uint8)
    anomaly[replied] = np.where(valid[replied], ANOMALIES.index(None), ANOMALIES.index(NEGATIVE))
    return RttTable(records.seq[records.is_request], reply_seq, rtt_us, replied, valid, anomaly)


def check_kernel_delay(kernel_delay: float) -> None:
    """Raise ValueError unless the kernel delay is finite and non-negative."""
    if not (math.isfinite(kernel_delay) and kernel_delay >= 0):
        raise ValueError(f"kernel delay must be finite and non-negative, got {kernel_delay}")


def _seconds(rtt_us: np.ndarray) -> np.ndarray:
    """Each interval in seconds, rounded once like Python's ``rtt_us / US_PER_S``.

    An int64 past 2**53 is rounded on its way to a float64, so such rare
    values are divided as Python ints instead. A valid interval is never
    negative.
    """
    seconds = rtt_us / US_PER_S
    wide = rtt_us > 2**53
    if wide.any():
        seconds[wide] = [rtt / US_PER_S for rtt in rtt_us[wide].tolist()]
    return seconds


def subtract_baseline(samples: RttTable, kernel_delay: float) -> list[float]:
    """Remove the constant kernel delay from each valid sample's RTT.

    Returns propagation times in seconds, one per valid sample in order. A
    negative result means the baseline overestimates the kernel delay for
    that sample (propagation cannot be negative); values are returned as-is
    so callers can flag them. Raises ValueError for a kernel delay that is
    negative or not finite.
    """
    check_kernel_delay(kernel_delay)
    return (_seconds(samples.rtt_us[samples.valid]) - kernel_delay).tolist()


def rtt_stats(samples: RttTable) -> dict[str, float]:
    """Summary statistics (seconds) over the valid samples only.

    The median of an even count is the mean of the two middle values, and
    the mean is the correctly rounded sum over the count, as in
    ``statistics.median`` and ``statistics.fmean``.

    Raises:
        EmptyDataError: when no sample is valid.
    """
    values = _seconds(np.sort(samples.rtt_us[samples.valid])).tolist()
    n = len(values)
    if not n:
        raise EmptyDataError("no valid RTT samples to summarize")
    middle = values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
    return {"count": n, "min": values[0], "median": middle, "mean": math.fsum(values) / n, "max": values[-1]}


def _decimals(values: np.ndarray, keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each int64 in decimal ASCII, right-aligned in a row of a uint8 matrix
    with a "-" before a negative one, and a mask of each row's own bytes;
    a row where ``keep`` is False keeps none."""
    negative = values < 0
    magnitude = values.view(np.uint64)
    magnitude = np.where(negative, np.uint64(0) - magnitude, magnitude)
    n_digits = np.maximum(np.searchsorted(_POWERS_OF_TEN, magnitude, side="right"), 1)
    width = int(n_digits.max(initial=1)) + bool(negative.any())
    # Filled a byte column at a time, each one contiguous, and returned transposed.
    text = np.empty((width, len(values)), np.uint8)
    _fill_digits(text, magnitude)
    length = n_digits + negative
    text[width - length[negative], np.flatnonzero(negative)] = _MINUS
    used = np.arange(width)[:, None] >= width - length
    if keep is not None:
        used &= keep
    return text.T, used.T


def _fill_digits(rows: np.ndarray, magnitude: np.ndarray) -> None:
    """Write the low decimal digits of each value, one per row of ``rows``,
    the last row the units."""
    for row in rows[::-1]:
        tens = magnitude // 10
        row[:] = magnitude - tens * 10
        magnitude = tens
    rows += _ZERO


def _exponentials(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float64 as ``f"{v:.9e}"`` writes it, left-aligned in a row of a
    uint8 matrix, and a mask of each row's own bytes.

    A magnitude a in [1e-13, 1e10) has a decimal exponent e from -13 to 9
    (the double 1e-13 is not below 10**-13), so its ten significant digits
    are a * 10**k rounded to an integer, k = 9 - e from 0 to 22, and each
    such 10.0**k is exact (5**22 < 2**53). With a in [2**(b-1), 2**b),
    floor((b-1) * log10(2)) is e or e - 1; where it is e - 1 the product
    reaches 10**10, and k drops by one. The product p = fl(a * 10**k) is
    then rounded once and lies below 2**34, where half an ulp is 2**-20, so
    |p - a * 10**k| <= 2**-20. Hence floor(p), plus one if p's fraction
    exceeds 1/2, is the exactly rounded mantissa unless that fraction lies
    within 2**-20 of 1/2, where the exact product may lie on the half
    (which an f-string rounds to even) or on its other side. A mantissa
    rounded up to 10**10 carries into the exponent. Those rows, zeros and
    every value outside the range are formatted by the f-string itself.
    """
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-13) & (magnitude < 1e10)
    magnitude = np.where(fast, magnitude, 1.0)
    binary = np.frexp(magnitude)[1].astype(np.int64)
    # floor(x * log10(2)) is x * 78913 >> 18 for every |x| up to 1650 (Ryu).
    k = np.minimum(9 - ((binary - 1) * 78913 >> 18), 22)
    scaled = magnitude * _EXACT_POWERS_OF_TEN[k]
    k -= scaled >= 1e10
    scaled = magnitude * _EXACT_POWERS_OF_TEN[k]
    mantissa = np.floor(scaled)
    fraction = scaled - mantissa
    fast &= np.abs(fraction - 0.5) > 2.0**-20
    digits = mantissa.astype(np.int64) + (fraction > 0.5)
    exponent = 9 - k
    carry = digits == 10**10
    digits[carry] = 10**9
    exponent += carry
    # "-d.ddddddddde+dd", a byte row at a time and returned transposed.
    text = np.empty((16, len(values)), np.uint8)
    text[0] = _MINUS
    _fill_digits(text[1:2], digits // 10**9)
    text[2] = _DOT
    _fill_digits(text[3:12], digits)
    text[12] = _LOWER_E
    text[13] = np.where(exponent < 0, _MINUS, _PLUS)
    _fill_digits(text[14:], np.abs(exponent))
    text = text.T
    used = np.ones(text.shape, bool)
    used[:, 0] = values < 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        exact, exact_used = _choices([f"{v:.9e}" for v in values[slow].tolist()], np.arange(len(slow)))
        width = max(exact.shape[1], 16)
        text = np.pad(text, ((0, 0), (0, width - 16)))
        used = np.pad(used, ((0, 0), (0, width - 16)))
        text[slow, : exact.shape[1]] = exact
        used[slow] = False
        used[slow, : exact.shape[1]] = exact_used
    return text, used


def _choices(strings: Sequence[str], codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """strings[codes[i]] left-aligned in row i of a uint8 matrix, and a mask
    of each row's own bytes; the matrix is only as wide as the strings picked."""
    picked = np.bincount(codes, minlength=len(strings)).astype(bool).tolist()
    strings = [string if pick else "" for string, pick in zip(strings, picked)]
    width = max(map(len, strings), default=0)
    text = np.frombuffer("".join(s.ljust(width) for s in strings).encode("ascii"), np.uint8)
    used = np.arange(width) < np.array([len(s) for s in strings], np.int64)[:, None]
    return text.reshape(len(strings), width)[codes], used[codes]


def _join(fields: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The fields side by side, each followed by a comma, as one text matrix
    and mask.

    A field is a uint8 text matrix with a row per line and a mask of the
    bytes of each row that are its own, as _decimals, _exponentials and
    _choices make them. Each field is copied and then taken out of
    ``fields``, so that where the list holds the only reference, the field
    is freed once it is copied.
    """
    n = len(fields[0][0])
    text = np.empty((n, sum(field_text.shape[1] + 1 for field_text, _ in fields)), np.uint8)
    used = np.ones(text.shape, bool)
    start = 0
    fields.reverse()
    while fields:
        field_text, field_used = fields.pop()
        end = start + field_text.shape[1]
        text[:, start:end] = field_text
        used[:, start:end] = field_used
        text[:, end] = _COMMA
        start = end + 1
    return text, used


def _csv(header: str, fields: list[tuple[np.ndarray, np.ndarray]]) -> str:
    """The header line, then one line per row of the fields, joined by
    commas (see _join)."""
    text, used = _join(fields)
    text[:, -1] = _LF
    kept = text[used]
    del text, used
    return header + "\n" + kept.tobytes().decode("ascii")


def rtt_csv(samples: RttTable) -> str:
    """Render samples as CSV: request_seq, reply_seq, rtt_us, valid, anomaly."""
    return _csv(
        "request_seq,reply_seq,rtt_us,valid,anomaly",
        [
            _decimals(samples.request_seq),
            _decimals(samples.reply_seq, samples.replied),
            _decimals(samples.rtt_us, samples.replied),
            _choices(_CSV_BOOL, samples.valid.view(np.uint8)),
            _choices([name or "" for name in ANOMALIES], samples.anomaly),
        ],
    )


def propagation_csv(samples: RttTable, kernel_delay: float) -> str:
    """Render subtract_baseline as CSV: request_seq, prop_s, flagged_negative.

    One row per valid sample; a negative propagation time is flagged. A
    row's text after request_seq depends only on the sample's rtt_us, so
    each distinct rtt_us is turned into seconds once, exactly as Python's
    ``rtt_us / 10**6 - kernel_delay`` (see _seconds), and its prop_s written
    once by _exponentials, which gives ``f"{prop:.9e}"`` byte for byte.
    """
    check_kernel_delay(kernel_delay)
    rows = np.flatnonzero(samples.valid)
    distinct, which = np.unique(samples.rtt_us[rows], return_inverse=True)
    prop = _seconds(distinct) - kernel_delay
    # Each distinct value's prop_s and flag, without the comma after the flag.
    tail_text, tail_used = _join([_exponentials(prop), _choices(_CSV_BOOL, (prop < 0).view(np.uint8))])
    tail = (tail_text[which, :-1], tail_used[which, :-1])
    del tail_text, tail_used
    return _csv("request_seq,prop_s,flagged_negative", [_decimals(samples.request_seq[rows]), tail])


def stats_summary(stats: dict[str, float]) -> str:
    """Render rtt_stats output in milliseconds at 3 decimals."""
    lines = [f"count {stats['count']}"]
    for key in ("min", "median", "mean", "max"):
        lines.append(f"{key}_ms {stats[key] * 1e3:.3f}")
    lines.append("")
    return "\n".join(lines)


def discrepancy_report(samples: RttTable, warnings: list[str] | None = None) -> str:
    """List every anomalous sample and malformed line, one per line.

    Anomalies are reported, never silently dropped; a clean log yields the
    single line ``none``.
    """
    rows = np.flatnonzero(samples.anomaly)
    lines = [
        f"negative-interval\trequest_seq={request_seq}\treply_seq={reply_seq}\trtt_us={rtt_us}"
        if ANOMALIES[anomaly] == NEGATIVE
        else f"missing-reply\trequest_seq={request_seq}"
        for request_seq, reply_seq, rtt_us, anomaly in zip(
            samples.request_seq[rows].tolist(),
            samples.reply_seq[rows].tolist(),
            samples.rtt_us[rows].tolist(),
            samples.anomaly[rows].tolist(),
        )
    ]
    for message in warnings or ():
        lines.append(f"malformed-line\t{message}")
    if not lines:
        lines.append("none")
    lines.append("")
    return "\n".join(lines)
