import math
import time
import tracemalloc
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from warnings import catch_warnings, simplefilter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import rendering_oracle
from pairing_oracle import fifo_pair_rtts
from pairing_oracle import pair_rtts as oracle_pair_rtts
from parsing_oracle import parse_ping_log as oracle_parse_ping_log
from parsing_oracle import records_of

from gsmloc import ingest
from gsmloc.errors import EmptyDataError
from gsmloc.ingest import (
    INT64_MAX,
    MISSING_REPLY,
    NEGATIVE,
    REPLY,
    REQUEST,
    PingRecord,
    RttSample,
    RttTable,
    discrepancy_report,
    format_ping_record,
    format_timestamp,
    pair_rtts,
    parse_ping_log,
    parse_ping_record,
    parse_timestamp_us,
    propagation_csv,
    rtt_csv,
    rtt_stats,
    stats_summary,
    subtract_baseline,
)

TEST_DATA = Path(__file__).resolve().parent / "data"

# Published per-tower RTT tables, microseconds, in row order.
TOWER1_TABLE_US = [783, 799, 690, 985, 567, 533, 671]
TOWER2_TABLE_US = [543, 664, 764, 667, 3608, 674, 645]
TOWER3_TABLE_US = [774, 694, 714, 655, 672, 778, 770]


@st.composite
def ping_records(draw):
    """0-40 records over 1-3 hosts, so src == dst paths occur, with few
    distinct timestamps, so ties and negative intervals are common."""
    hosts = ["10.0.0.1", "10.0.0.2", "10.0.0.3"][: draw(st.integers(1, 3))]
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(hosts),
                st.sampled_from(hosts),
                st.sampled_from([REQUEST, REPLY]),
                st.integers(0, 5),
            ),
            max_size=40,
        )
    )
    return [
        PingRecord(seq, time_us, src, dst, direction)
        for seq, (src, dst, direction, time_us) in enumerate(rows)
    ]


# Trace-line pieces: well-formed ones, and odd ones that str.isdigit, int
# and str.split or str.splitlines each treat their own way.
ODD_SEQS = ["²", "٣", "1²", "+7", "-7", "1_0", "007", "x", "1.5", ""]
ODD_TIMES = [
    "23", "23.", ".000103", "23.5", "23.0001039", "²3.000103", "23.00010٣", "23.²00000",
    "+23.000103", "-1.000000", "1_0.000000", "1.000_00", "1..000000", "1.000000.5", "x",
]
DIRECTIONS = ["request", "reply", "REQUEST", "Reply", "banana", "réply"]
FIELD_SEPARATORS = [" ", "\t", " \t ", "\x1f", "\u3000"]
LINE_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def trace_line(draw, ascii_only=False):
    """One trace line: blank, well-formed, or with one or more odd pieces;
    with ascii_only, no piece holds a non-ASCII character."""

    def pick(pieces):
        return st.sampled_from([p for p in pieces if p.isascii() or not ascii_only])

    if draw(st.integers(0, 9)) == 0:
        return draw(pick(["", " ", "\t", " \t\u3000"]))

    def piece(usual, odd):
        return draw(pick(odd) if draw(st.integers(0, 3)) == 0 else usual)

    seq = piece(st.integers(0, 10**6).map(str), ODD_SEQS)
    time = piece(st.integers(0, 10**8).map(lambda us: f"{us // 10**6}.{us % 10**6:06d}"), ODD_TIMES)
    direction = piece(st.sampled_from([REQUEST, REPLY]), DIRECTIONS)
    hosts = pick(["10.0.0.1", "10.0.0.2", "hôst"])
    tokens = [seq, time, draw(hosts), draw(hosts), "ICMP", "Echo", "(ping)"]
    shape = draw(st.sampled_from(["whole", "whole", "whole", "short", "extra"]))
    if shape == "short":
        tokens = tokens[: draw(st.integers(0, 4))]
    elif shape == "extra":
        tokens.insert(draw(st.integers(2, len(tokens))), "extra")
    separator = draw(pick(FIELD_SEPARATORS))
    return draw(st.sampled_from(["", " "])) + separator.join(tokens + [direction])


@st.composite
def trace_texts(draw):
    """Up to 30 lines from trace_line(), ended by "\\n" only, by "\\n" or
    "\\r\\n", or by any line break; half the texts are ASCII. parse_ping_log
    writes every line break as "\\n" before it reads columns."""
    ascii_only = draw(st.booleans())
    lines = draw(st.lists(trace_line(ascii_only), max_size=30))
    breaks = draw(st.sampled_from([["\n"], ["\n", "\r\n"], [b for b in LINE_SEPARATORS if b.isascii() or not ascii_only]]))
    separators = draw(st.lists(st.sampled_from(breaks), min_size=len(lines), max_size=len(lines)))
    return "".join(line + sep for line, sep in zip(lines, separators))


# Text parts for ingest.pieces: line ends, ASCII text, a non-ASCII letter and a lone surrogate.
PIECE_PARTS = st.one_of(
    st.sampled_from(["\n", "\r\n", "\r", "\xe9", "\udcf4"]),
    st.text(st.characters(max_codepoint=0x7E, exclude_characters="\r\n"), max_size=6),
)


@st.composite
def shifted_line(draw):
    """A line one token off the 8-token shape: a well-formed line with one
    more token at its end, or one with no seq (7 tokens, a stamp first)."""
    us = draw(st.integers(0, 10**8))
    direction = draw(st.sampled_from([REQUEST, REPLY]))
    tokens = [format_timestamp(us), "10.0.0.1", "10.0.0.2", "ICMP", "Echo", "(ping)", direction]
    if draw(st.booleans()):
        tokens = [str(us % 1000), *tokens, str(us % 1000 + 1)]
    return draw(st.sampled_from(FIELD_SEPARATORS)).join(tokens)


# Characters that leave a line to parse_ping_record when a token holds one:
# DEL, control bytes ("\x1f" also separates tokens, "\x0c" also breaks
# lines) and non-ASCII characters, such as whitespace str.split separates at.
ODD_CHARACTERS = ["\x7f", "\x00", "\x01", "\x08", "\x0e", "\x1b", "\x1f", "\x0c", "\xa0", "\u3000"]


def digit_strings(low, high):
    """Strings of low to high digits, leading zeros kept, often all nines."""
    return st.sampled_from(range(low, high + 1)).flatmap(
        lambda n: st.one_of(st.just("9" * n), st.integers(0, 10**n - 1).map(lambda value: str(value).zfill(n)))
    )


@st.composite
def wide_line(draw):
    """A well-formed line whose seq, stamp or src may run past the column
    read's windows (18 seq digits, 12 whole stamp digits, a 64-byte tail),
    and may hold a DEL, a control byte or non-ASCII whitespace in a token."""
    tokens = [
        draw(st.one_of(st.integers(0, 10**6).map(str), digit_strings(17, 25))),
        draw(st.one_of(st.integers(0, 10**8).map(format_timestamp), st.tuples(digit_strings(11, 16), digit_strings(6, 6)).map(".".join))),
        draw(st.one_of(st.just("10.0.0.1"), st.text("0123456789abcdef.:-", min_size=20, max_size=140))),
        "10.0.0.2",
        "ICMP",
        "Echo",
        "(ping)",
        draw(st.sampled_from([REQUEST, REPLY])),
    ]
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, len(tokens) - 1))
        at = draw(st.integers(0, len(tokens[k])))
        tokens[k] = tokens[k][:at] + draw(st.sampled_from(ODD_CHARACTERS)) + tokens[k][at:]
    return draw(st.sampled_from(["\t", "\t", *FIELD_SEPARATORS])).join(tokens)


@st.composite
def long_trace_texts(draw):
    """A chunk size of a few hundred bytes and a text of several chunks:
    well-formed lines, with a few runs of odd ones from trace_line(),
    shifted_line() or wide_line() anywhere. The first chunk ends inside the
    first run. Lines end in "\\n", mostly, or "\\r\\n" or another line break,
    and the last one may have none."""
    n_lines = draw(st.integers(20, 60))
    start_us = draw(st.integers(0, 10**8))
    hosts = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
    lines = [
        f"{k}\t{format_timestamp(start_us + 137 * k)}\t{hosts[k % 3]}\t{hosts[k // 3 % 3]}"
        f"\tICMP\tEcho (ping) {(REQUEST, REPLY)[k % 2]}"
        for k in range(n_lines)
    ]
    odd_line = st.one_of(trace_line(), shifted_line(), wide_line(), wide_line())
    first_at = draw(st.integers(3, 6))
    runs = [(first_at, draw(st.lists(odd_line, min_size=2, max_size=4)))]
    runs += draw(st.lists(st.tuples(st.integers(0, n_lines - 1), st.lists(odd_line, min_size=1, max_size=4)), max_size=8))
    for index, run in reversed(runs):
        lines[index : index + len(run)] = run
    separator = draw(st.sampled_from(["\n"] * 4 + ["\r\n"] * 2 + LINE_SEPARATORS))
    text = separator.join(lines) + draw(st.sampled_from([separator, ""]))
    # The bytes up to and with the separator after the first run's first line.
    chunk_chars = len("".join(line + separator for line in lines[: first_at + 1]).encode())
    return chunk_chars, text


def word_tokens(max_size):
    """1 to max_size bytes from "!" to "~", often all digits and mostly
    digits otherwise; "/" and ":", either side of the digits, are common."""
    digit = st.sampled_from(b"0123456789")
    other = st.one_of(st.sampled_from(b"/:"), st.integers(0x21, 0x7E))
    return st.one_of(
        st.lists(digit, min_size=1, max_size=max_size),
        st.lists(st.one_of(digit, digit, digit, other), min_size=1, max_size=max_size),
    ).map(bytes)


def stamp_tokens():
    """A word_tokens(24) token with a "." put in at any position, most
    often 6 bytes from its end, where a stamp has it, or with none."""
    return word_tokens(24).flatmap(
        lambda token: st.one_of(st.just(max(len(token) - 6, 0)), st.integers(0, len(token)), st.none()).map(
            lambda at: token if at is None else token[:at] + b"." + token[at:]
        )
    )


@st.composite
def placed_tokens(draw, tokens):
    """Up to 8 tokens in a chunk after the parse's padding, the first often
    at the chunk's first byte, each other one after 0 to 9 bytes that may
    be digits: the chunk, and each token's start and end in it."""
    chunk, starts, ends = ingest._PADDING.tobytes(), [], []
    for token in draw(st.lists(tokens, min_size=1, max_size=8)):
        chunk += draw(word_tokens(9)) if starts or draw(st.booleans()) else b""
        starts.append(len(chunk))
        chunk += token
        ends.append(len(chunk))
    return np.frombuffer(chunk, np.uint8), np.array(starts), np.array(ends)


def read_strictly(reader, placed, *args):
    """A word reader's values and flags for the placed tokens, and the
    tokens, with every Python warning raised: numpy warns of a wrapped
    uint64 only for a scalar, so array arithmetic must wrap silently."""
    chunk, starts, ends = placed
    with catch_warnings():
        simplefilter("error")
        value, ok = reader(ingest._words(chunk), starts, ends, *args)
    tokens = [chunk[start:end].tobytes() for start, end in zip(starts, ends)]
    return value.tolist(), ok.tolist(), tokens


@st.composite
def capture_texts(draw):
    """Trace texts for the parse, pair and render pipeline. Up to 8 hosts
    give paths with src == dst, paths with no reverse and many distinct
    paths; requests and replies in any order give lost and surplus replies
    and negative intervals, and often no valid sample at all. Seqs and
    stamps reach the int64 edges, some one past them (malformed lines), and
    intervals past 2**53 microseconds."""
    hosts = [f"10.0.0.{k}" for k in range(draw(st.integers(1, 8)))]
    seqs = st.one_of(st.integers(0, 100), st.sampled_from([INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1, -INT64_MAX - 2]))
    times = st.one_of(
        st.integers(0, 5),
        st.integers(0, 10**7),
        st.sampled_from([2**53 + 1, 1211945163729050442, INT64_MAX - 1, INT64_MAX, INT64_MAX + 1]),
        st.integers(0, INT64_MAX),
    )
    directions = st.sampled_from([REQUEST, REPLY])
    rows = draw(st.lists(st.tuples(seqs, times, st.sampled_from(hosts), st.sampled_from(hosts), directions), max_size=60))
    return "".join(format_ping_record(PingRecord(*row)) + "\n" for row in rows)


def parse_strictly(text):
    """parse_ping_log's log and warnings, with every Python warning raised:
    numpy warns of a wrapped uint8 or an overflowed int64 only that way."""
    warnings = []
    with catch_warnings():
        simplefilter("error")
        log = parse_ping_log(text, warnings)
    return log, warnings


def paths_of(records):
    """The distinct (src, dst) of the records, in order of first appearance."""
    return list(dict.fromkeys((r.src, r.dst) for r in records))


def samples_from_us(values_us):
    """The RttTable of a capture in which request i (seq i) is followed by
    its reply (seq i + 1) that many microseconds later. A negative value
    stamps the reply before its request, so it pairs as a NEGATIVE sample."""
    rows = []
    for i, rtt_us in enumerate(values_us):
        sent = max(-rtt_us, 0)
        rows += [(i, sent, "10.0.0.1", "10.0.0.2", REQUEST), (i + 1, sent + rtt_us, "10.0.0.2", "10.0.0.1", REPLY)]
    return pair_rtts(parse_ping_log("".join(format_ping_record(PingRecord(*row)) + "\n" for row in rows)))


# _exponentials' fast path takes magnitudes in [1e-13, 1e10), exponents -13 to 9;
# the draws below reach three decades past each end.
EXPONENTS = range(-16, 13)


def steps(value, ulps):
    """The double ``ulps`` steps of one ulp above (below, if negative) ``value``."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.inf if ulps > 0 else -math.inf))
    return value


def nearest_halfway(e, m):
    """The double nearest the point halfway between the 10-digit mantissas m
    and m + 1 at decimal exponent e: (2m + 1) / 2 * 10**(e - 9)."""
    return float(Fraction(2 * m + 1, 2) * Fraction(10) ** (e - 9))


@st.composite
def exponential_values(draw):
    """A double of one of four kinds: any finite one, subnormals included;
    a zero; one within 2 ulps of a power of ten; one within 2 ulps of the
    double nearest a halfway point of the tenth significant digit."""
    kind = draw(st.sampled_from(["any", "zero", "power", "halfway"]))
    if kind == "any":
        return draw(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
    if kind == "zero":
        return draw(st.sampled_from([0.0, -0.0]))
    e = draw(st.sampled_from(EXPONENTS))
    if kind == "power":
        center = float(Fraction(10) ** e)
    else:
        center = nearest_halfway(e, draw(st.integers(10**9, 10**10 - 1)))
    return draw(st.sampled_from([1.0, -1.0])) * steps(center, draw(st.integers(-2, 2)))


def exponential_texts(values):
    """_exponentials' text of each value, read back through its mask, with every warning an error."""
    with catch_warnings():
        simplefilter("error")
        text, used = ingest._exponentials(np.array(values, np.float64))
    return [row[mask].tobytes().decode("ascii") for row, mask in zip(text, used)]


class TestParsing:
    def test_request_line(self):
        rec = parse_ping_record(
            "49 23.000103 169.254.118.52 169.254.65.4 ICMP Echo (ping) request"
        )
        assert rec.seq == 49
        assert rec.time_us == 23000103
        assert rec.time == pytest.approx(23.000103)
        assert rec.src == "169.254.118.52"
        assert rec.dst == "169.254.65.4"
        assert rec.direction == REQUEST

    def test_reply_line(self):
        rec = parse_ping_record(
            "50 23.000793 169.254.65.4 169.254.118.52 ICMP Echo (ping) reply"
        )
        assert rec.direction == REPLY

    def test_empty_input(self):
        assert records_of(parse_ping_log("")) == []

    def test_malformed_lines_become_warnings(self):
        text = "\n".join(
            [
                "49 23.000103 169.254.118.52 169.254.65.4 ICMP Echo (ping) request",
                "not a packet line",
                "x 1.0 a b ICMP Echo (ping) request",
                "51 24.000186 169.254.118.52 169.254.65.4 ICMP Echo (ping) banana",
                "",
            ]
        )
        warnings = []
        records = parse_ping_log(text, warnings)
        assert len(records) == 1
        assert len(warnings) == 3
        assert all("line" in w for w in warnings)

    @settings(max_examples=500, deadline=None)
    @given(trace_texts())
    def test_matches_record_per_line_oracle(self, text):
        expected_warnings = []
        expected = oracle_parse_ping_log(text, expected_warnings)
        records, warnings = parse_strictly(text)
        assert records_of(records) == expected
        assert records.paths == paths_of(expected)
        assert warnings == expected_warnings
        assert records_of(parse_ping_log(text)) == expected

    @settings(max_examples=300, deadline=None)
    @given(long_trace_texts())
    def test_long_texts_match_record_per_line_oracle(self, chunked_text):
        chunk_chars, text = chunked_text
        expected_warnings = []
        expected = oracle_parse_ping_log(text, expected_warnings)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_CHARS", chunk_chars)
            records, warnings = parse_strictly(text)
        assert records_of(records) == expected
        assert records.paths == paths_of(expected)
        assert warnings == expected_warnings

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(trace_texts(), long_trace_texts().map(itemgetter(1))), st.data())
    def test_pieces_parse_like_their_joined_bytes(self, text, data):
        # Pieces that each end at a "\n" but the last, as analyze-log reads a file.
        capture = text.encode()
        ends = [i + 1 for i, byte in enumerate(capture) if byte == ord("\n")]
        cuts = sorted(data.draw(st.sets(st.sampled_from(ends))) if ends else ())
        pieces = [capture[a:b] for a, b in zip([0, *cuts], [*cuts, len(capture)]) if a < b]
        from_text, text_warnings = parse_strictly(text)
        from_pieces, pieces_warnings = parse_strictly(iter(pieces))
        assert records_of(from_pieces) == records_of(from_text)
        assert from_pieces.paths == from_text.paths
        assert pieces_warnings == text_warnings

    @settings(max_examples=300, deadline=None)
    @given(st.lists(PIECE_PARTS, max_size=40).map("".join), st.lists(st.integers(0, 160), max_size=8))
    @example("a\r\nb\r", [2, 2, 5])
    @example("\udcf4\r", [])
    def test_pieces_cut_text_blocks_at_line_breaks(self, text, cuts):
        # Blocks cut anywhere, empty ones too: inside a "\r\n", before or after a lone surrogate.
        cuts = sorted(min(cut, len(text)) for cut in cuts)
        blocks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        pieces = list(ingest.pieces(iter(blocks)))
        assert b"".join(pieces) == text.replace("\r\n", "\n").replace("\r", "\n").encode("utf-8", "surrogatepass")
        assert all(piece.endswith(b"\n") for piece in pieces[:-1])
        assert all(pieces)

    @settings(max_examples=300, deadline=None)
    @given(placed_tokens(word_tokens(24)))
    def test_word_reads_take_seqs_as_int_does(self, placed):
        values, oks, tokens = read_strictly(ingest._read_number, placed, ingest._SEQ_DIGITS)
        for value, ok, token in zip(values, oks, tokens):
            assert ok == (token.isdigit() and len(token) <= 18), token
            if ok:
                assert value == int(token)

    @settings(max_examples=300, deadline=None)
    @given(placed_tokens(stamp_tokens()))
    def test_word_reads_take_stamps_of_six_fraction_digits(self, placed):
        values, oks, tokens = read_strictly(ingest._read_stamp, placed)
        for value, ok, token in zip(values, oks, tokens):
            whole, _, fraction = token.partition(b".")
            stamp = whole.isdigit() and len(whole) <= 12 and fraction.isdigit() and len(fraction) == 6
            assert ok == stamp, token
            if ok:
                assert value == parse_timestamp_us(token.decode())

    @pytest.mark.parametrize(
        "line",
        [
            # The widest seq, stamp and tail each window takes, and one byte more.
            "999999999999999999\t999999999999.999999\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request",
            "9999999999999999999\t1.000000\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request",
            "1\t9999999999999.999999\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request",
            "1\t1.000000\t" + "a" * 30 + "\t10.0.0.2\tICMP\tEcho (ping) request",
            "1\t1.000000\t" + "a" * 31 + "\t10.0.0.2\tICMP\tEcho (ping) request",
            # A stamp of 7 bytes with its dot 7 from the end, which has no whole digit.
            "1\t.000100\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request",
            # DEL and non-ASCII letters are token bytes to str.split, non-ASCII whitespace is not.
            "1\t1.000000\t10.0.\x7f0.1\t10.0.0.2\tICMP\tEcho (ping) request",
            "1\t1.000000\th\xf4st\t10.0.0.2\tICMP\tEcho (ping) request",
            "1\t1.000000\t10.0.0.1\xa010.0.0.3\t10.0.0.2\tICMP\tEcho (ping) request",
            "1\t1.000000\t10.0.0.1\t10.0.0.2\tICMP\tEcho\u3000(ping) request",
            # A lone surrogate, as errors="surrogateescape" decodes a stray byte.
            "1\t1.000000\th\udcf4st\t10.0.0.2\tICMP\tEcho (ping) request",
        ],
    )
    def test_window_edges_and_odd_bytes_match_the_oracle(self, line):
        text = f"1\t0.500000\t10.0.0.5\t10.0.0.6\tICMP\tEcho (ping) reply\n{line}\n"
        expected_warnings = []
        expected = oracle_parse_ping_log(text, expected_warnings)
        records, warnings = parse_strictly(text)
        assert records_of(records) == expected
        assert warnings == expected_warnings

    def test_path_ids_follow_first_appearance_across_both_paths(self):
        # parse_ping_record alone takes line 2 ("REQUEST"), whose path is new
        # before the column lines 3 and 4 of the same chunk show theirs.
        text = (
            "1\t0.100000\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request\n"
            "2\t0.200000\t10.0.0.9\t10.0.0.1\tICMP\tEcho (ping) REQUEST\n"
            "3\t0.300000\t10.0.0.2\t10.0.0.1\tICMP\tEcho (ping) reply\n"
            "4\t0.400000\t10.0.0.1\t10.0.0.9\tICMP\tEcho (ping) reply\n"
            "5\t0.500000\t10.0.0.9\t10.0.0.1\tICMP\tEcho (ping) request\n"
        )
        log = parse_ping_log(text)
        expected = oracle_parse_ping_log(text)
        assert records_of(log) == expected
        assert log.paths == [("10.0.0.1", "10.0.0.2"), ("10.0.0.9", "10.0.0.1"), ("10.0.0.2", "10.0.0.1"), ("10.0.0.1", "10.0.0.9")]
        assert log.paths == paths_of(expected)
        assert log.path.tolist() == [0, 1, 2, 3, 1]

    def test_colliding_tail_hashes_fall_back_to_exact_comparison(self, monkeypatch, tower1_log):
        # With every multiplier 0 every tail hashes alike; only the exact comparison tells them apart.
        monkeypatch.setattr(ingest, "_TAIL_HASH", np.zeros_like(ingest._TAIL_HASH))
        text = tower1_log + (TEST_DATA / "pairing_capture.log").read_text()
        expected_warnings = []
        expected = oracle_parse_ping_log(text, expected_warnings)
        records, warnings = parse_strictly(text)
        assert len(paths_of(expected)) > 2
        assert records_of(records) == expected
        assert records.paths == paths_of(expected)
        assert warnings == expected_warnings

    def test_shifted_tokens_do_not_align(self):
        # 9 tokens then 7: 16 tokens with the literals in place, yet no line is a record.
        text = "1 0.100000 a b ICMP Echo (ping) request 5\n0.200000 a b ICMP Echo (ping) reply\n"
        warnings = []
        assert records_of(parse_ping_log(text, warnings)) == []
        assert [w.partition(":")[0] for w in warnings] == ["line 1", "line 2"]
        expected_warnings = []
        oracle_parse_ping_log(text, expected_warnings)
        assert warnings == expected_warnings

    @pytest.mark.parametrize(
        "line_break, non_ascii, calls", [("\n", True, 1), ("\r\n", False, 0), ("\r", False, 0), ("\x0c", False, 0)]
    )
    def test_only_odd_lines_go_to_the_single_line_parser(self, monkeypatch, line_break, non_ascii, calls):
        # 4000 well-formed lines, with "hôst" as the src of one when non_ascii; only that line is odd.
        # A chunk of "\r\n" or "\r" lines reaches _lf_lines with its line ends already read as "\n".
        lines = [
            f"{k + 1}\t{format_timestamp(1000 + 25_000 * k)}\t169.254.118.52\t169.254.65.{k // 2 % 4 + 1}"
            f"\tICMP\tEcho (ping) {(REQUEST, REPLY)[k % 2]}"
            for k in range(4000)
        ]
        if non_ascii:
            lines[1234] = lines[1234].replace("169.254.118.52", "h\xf4st")
        text = line_break.join(lines) + line_break
        expected_warnings = []
        expected = oracle_parse_ping_log(text, expected_warnings)
        parsed, kept = [], []
        lf_lines = ingest._lf_lines
        monkeypatch.setattr(ingest, "parse_ping_record", lambda line: parsed.append(line) or parse_ping_record(line))

        def spy_lf_lines(chunk):
            lf = lf_lines(chunk)
            kept.append(lf is chunk)
            return lf

        monkeypatch.setattr(ingest, "_lf_lines", spy_lf_lines)
        records, warnings = parse_strictly(text)
        assert len(parsed) == calls
        assert kept and all(kept) == ("\r" in line_break)
        assert records_of(records) == expected
        assert records.paths == paths_of(expected)
        assert warnings == expected_warnings

    def test_peak_memory_stays_near_the_text(self):
        # A clean 40 000-line capture; a whole-text split() would hold some 7x its size.
        towers = [f"169.254.65.{k}" for k in range(1, 5)]
        text = "".join(
            f"{k + 1}\t{format_timestamp(1000 + 25_000 * k)}\t169.254.118.52\t{towers[k // 2 % 4]}"
            f"\tICMP\tEcho (ping) {(REQUEST, REPLY)[k % 2]}\n"
            for k in range(40_000)
        )
        tracemalloc.start()
        try:
            records = parse_ping_log(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 40_000
        assert peak < 4 * len(text)

    @pytest.mark.parametrize(
        "seq, time_us, fits",
        [
            (INT64_MAX, 1, True),
            (INT64_MAX + 1, 1, False),
            (-INT64_MAX - 1, 1, True),
            (-INT64_MAX - 2, 1, False),
            (1, INT64_MAX, True),
            (1, INT64_MAX + 1, False),
        ],
    )
    def test_values_must_fit_an_int64(self, seq, time_us, fits):
        record = PingRecord(seq, time_us, "10.0.0.1", "10.0.0.2", REQUEST)
        line = format_ping_record(record)
        warnings = []
        if fits:
            assert parse_ping_record(line) == record
            assert records_of(parse_ping_log(line, warnings)) == [record]
            assert warnings == []
        else:
            with pytest.raises(ValueError, match="int64"):
                parse_ping_record(line)
            assert records_of(parse_ping_log(line, warnings)) == []
            assert len(warnings) == 1 and "int64" in warnings[0]

    def test_timestamp_exact_microseconds(self):
        assert parse_timestamp_us("21.000091") == 21000091
        assert parse_timestamp_us("3.5") == 3500000
        assert parse_timestamp_us("7") == 7000000
        # digits beyond microseconds truncate
        assert parse_timestamp_us("1.2345678") == 1234567

    def test_parse_format_parse_fixed_point(self, tower1_log, tower2_log, tower3_log):
        for text in (tower1_log, tower2_log, tower3_log):
            records = records_of(parse_ping_log(text))
            rendered = "\n".join(format_ping_record(r) for r in records)
            assert records_of(parse_ping_log(rendered)) == records


class TestColumns:
    TEXT = "\n".join(
        [
            "1 1.000000 10.0.0.1 10.0.0.2 ICMP Echo (ping) request",
            "2 1.000500 10.0.0.2 10.0.0.1 ICMP Echo (ping) reply",
            "3 2.000000 10.0.0.1 10.0.0.3 ICMP Echo (ping) request",
        ]
    )

    def test_table_reads_like_a_list_of_samples(self):
        table = pair_rtts(parse_ping_log(self.TEXT))
        expected = [
            RttSample(1, 2, 500, valid=True),
            RttSample(3, None, None, valid=False, anomaly=MISSING_REPLY),
        ]
        assert len(table) == 2 and list(table) == expected
        assert rtt_csv(table) == rendering_oracle.rtt_csv(expected)
        assert discrepancy_report(table, ["line 9: x"]) == rendering_oracle.discrepancy_report(expected, ["line 9: x"])


class TestPairing:
    def test_tower1_pairs(self, tower1_log):
        samples = pair_rtts(parse_ping_log(tower1_log))
        assert len(samples) == 7
        by_request = {s.request_seq: s for s in samples}
        assert by_request[49].rtt_us == 690
        assert by_request[49].valid
        assert by_request[45].rtt_us == -17
        assert not by_request[45].valid
        assert by_request[45].anomaly == NEGATIVE
        assert by_request[45].reply_seq == 46

    def test_tower3_first_pair(self, tower3_log):
        samples = list(pair_rtts(parse_ping_log(tower3_log)))
        assert samples[0].request_seq == 21
        assert samples[0].rtt_us == 774

    def test_missing_reply(self):
        text = "\n".join(
            [
                "1 1.000000 10.0.0.1 10.0.0.2 ICMP Echo (ping) request",
                "2 1.000500 10.0.0.2 10.0.0.1 ICMP Echo (ping) reply",
                "3 2.000000 10.0.0.1 10.0.0.2 ICMP Echo (ping) request",
            ]
        )
        samples = list(pair_rtts(parse_ping_log(text)))
        assert samples[0].valid and samples[0].rtt_us == 500
        assert not samples[1].valid
        assert samples[1].anomaly == MISSING_REPLY
        assert samples[1].reply_seq is None

    def test_reply_consumed_at_most_once(self):
        text = "\n".join(
            [
                "1 1.000000 10.0.0.1 10.0.0.2 ICMP Echo (ping) request",
                "2 1.000100 10.0.0.1 10.0.0.2 ICMP Echo (ping) request",
                "3 1.000500 10.0.0.2 10.0.0.1 ICMP Echo (ping) reply",
            ]
        )
        samples = list(pair_rtts(parse_ping_log(text)))
        assert samples[0].reply_seq == 3
        assert samples[1].anomaly == MISSING_REPLY

    def test_valid_samples_have_nonnegative_rtt(self, tower1_log, tower2_log, tower3_log):
        for text in (tower1_log, tower2_log, tower3_log):
            for sample in pair_rtts(parse_ping_log(text)):
                if sample.valid:
                    assert sample.rtt_us >= 0

    @settings(max_examples=500, deadline=None)
    @given(ping_records())
    def test_matches_quadratic_oracle(self, records):
        expected = oracle_pair_rtts(records)
        log = parse_ping_log("".join(format_ping_record(record) + "\n" for record in records))
        assert records_of(log) == records
        assert list(pair_rtts(log)) == expected
        assert fifo_pair_rtts(records) == expected

    @settings(max_examples=300, deadline=None)
    @given(trace_texts())
    def test_parsed_log_pairs_like_the_oracles(self, text):
        expected = oracle_pair_rtts(oracle_parse_ping_log(text))
        table = pair_rtts(parse_ping_log(text))
        assert isinstance(table, RttTable)
        assert list(table) == expected

    def test_all_replies_missing_is_linear(self):
        # The worst case for per-request rescanning: nothing ever pairs.
        records = parse_ping_log(
            "".join(f"{seq}\t{format_timestamp(seq * 1000)}\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request\n" for seq in range(16_000))
        )
        start = time.perf_counter()
        samples = pair_rtts(records)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert [s.request_seq for s in samples] == list(range(16_000))
        assert all(s.anomaly == MISSING_REPLY and not s.valid for s in samples)


class TestPublishedTables:
    """Parsed traces against the published per-tower RTT tables.

    The traces and tables disagree in a few rows; the required agreement
    levels pin exactly how self-consistent the published data is.
    """

    @staticmethod
    def matches_within(samples, table_us, tol_us):
        computed = [s.rtt_us for s in samples]
        assert len(computed) == len(table_us)
        return sum(
            1
            for got, want in zip(computed, table_us)
            if got is not None and abs(got - want) <= tol_us
        )

    def test_tower2_trace_matches_table_exactly_in_6_of_7(self, tower2_log):
        samples = pair_rtts(parse_ping_log(tower2_log))
        assert self.matches_within(samples, TOWER2_TABLE_US, 0) >= 6

    def test_tower3_trace_matches_table_within_1us_in_6_of_7(self, tower3_log):
        samples = pair_rtts(parse_ping_log(tower3_log))
        assert self.matches_within(samples, TOWER3_TABLE_US, 1) >= 6

    def test_tower1_trace_matches_table_in_3_of_7(self, tower1_log):
        samples = pair_rtts(parse_ping_log(tower1_log))
        assert self.matches_within(samples, TOWER1_TABLE_US, 0) >= 3

    def test_tower1_discrepancies_pinned(self, tower1_log, golden_dir):
        samples = pair_rtts(parse_ping_log(tower1_log))
        report = discrepancy_report(samples)
        golden = (golden_dir / "tower1_discrepancies.txt").read_text()
        assert report == golden


class TestBaseline:
    def test_subtracts_kernel_delay(self):
        samples = samples_from_us([690])
        assert subtract_baseline(samples, 0.000600) == [pytest.approx(0.000090, abs=1e-12)]

    def test_zero_when_baseline_equals_rtt(self):
        samples = samples_from_us([690])
        assert subtract_baseline(samples, 0.000690) == [pytest.approx(0.0, abs=1e-12)]

    def test_negative_result_signals_overestimate(self):
        samples = samples_from_us([567])
        (value,) = subtract_baseline(samples, 0.000600)
        assert value == pytest.approx(-0.000033, abs=1e-12)

    def test_invalid_samples_skipped(self):
        samples = samples_from_us([690, -17])
        assert list(samples)[1].anomaly == NEGATIVE
        assert len(subtract_baseline(samples, 0.0001)) == 1

    def test_rejects_negative_baseline(self):
        with pytest.raises(ValueError):
            subtract_baseline(samples_from_us([]), -1e-6)

    @pytest.mark.parametrize("kernel_delay", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_baseline(self, kernel_delay):
        with pytest.raises(ValueError):
            subtract_baseline(samples_from_us([690]), kernel_delay)


class TestStats:
    def test_tower3_table_extremes(self):
        stats = rtt_stats(samples_from_us(TOWER3_TABLE_US))
        assert stats["min"] == pytest.approx(0.655e-3)
        assert stats["max"] == pytest.approx(0.778e-3)
        assert stats["count"] == 7

    def test_tower2_table_outlier_and_median(self):
        stats = rtt_stats(samples_from_us(TOWER2_TABLE_US))
        assert stats["max"] == pytest.approx(3.608e-3)
        assert stats["median"] == pytest.approx(0.667e-3)

    def test_single_sample(self):
        stats = rtt_stats(samples_from_us([500]))
        assert stats["min"] == stats["median"] == stats["mean"] == stats["max"]

    def test_only_invalid_samples_raise(self):
        samples = samples_from_us([-5])
        assert list(samples)[0].anomaly == NEGATIVE
        with pytest.raises(EmptyDataError):
            rtt_stats(samples)

    def test_summary_is_milliseconds_3_decimals(self):
        text = stats_summary(rtt_stats(samples_from_us(TOWER3_TABLE_US)))
        assert "min_ms 0.655" in text
        assert "max_ms 0.778" in text
        assert text.startswith("count 7\n")


class TestRenderers:
    def test_rtt_csv_shape(self, tower1_log):
        samples = pair_rtts(parse_ping_log(tower1_log))
        lines = rtt_csv(samples).splitlines()
        assert lines[0] == "request_seq,reply_seq,rtt_us,valid,anomaly"
        assert lines[1] == "45,46,-17,false,negative"
        assert lines[3] == "49,50,690,true,"

    def test_propagation_csv_rows_follow_valid_samples(self):
        samples = samples_from_us([690, 567, -17])
        assert propagation_csv(samples, 0.0006) == (
            "request_seq,prop_s,flagged_negative\n"
            "0,9.000000000e-05,false\n"
            "1,-3.300000000e-05,true\n"
        )

    def test_discrepancy_report_clean_log(self):
        samples = samples_from_us([100, 200])
        assert discrepancy_report(samples) == "none\n"

    def test_discrepancy_report_includes_warnings(self):
        report = discrepancy_report(samples_from_us([]), warnings=["line 3: expected at least 5 fields, got 2"])
        assert "malformed-line" in report

    def test_intervals_past_2_53_us_round_like_python_ints(self):
        # float64(n) / 1e6 rounds twice for these n, and differs from n / 10**6.
        wide = [2**53 + 1, 1211945163729050442, 8457106966114034084, -4381379356234776829]
        assert all(np.float64(n) / 1e6 != n / 10**6 for n in wide)
        values = wide + [INT64_MAX, 690, 567]
        samples = samples_from_us(values)
        expected = list(samples)
        # The negative one pairs as a NEGATIVE sample: rendered, but left out of the seconds.
        assert [s.valid for s in expected] == [True, True, True, False, True, True, True]
        for k in (len(values), len(values) - 1):  # an even count of valid samples, then an odd one
            assert rtt_stats(samples_from_us(values[:k])) == rendering_oracle.rtt_stats(expected[:k])
        assert subtract_baseline(samples, 0.0005) == rendering_oracle.subtract_baseline(expected, 0.0005)
        assert propagation_csv(samples, 0.0005) == rendering_oracle.propagation_csv(expected, 0.0005)
        assert rtt_csv(samples) == rendering_oracle.rtt_csv(expected)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(exponential_values(), min_size=1, max_size=12))
    def test_exponentials_write_like_the_f_string(self, values):
        assert exponential_texts(values) == [f"{v:.9e}" for v in values]

    def test_exponentials_at_the_edges_of_every_decade(self):
        # Seeded: 200 halfway points per decimal exponent and every double
        # within 2 ulps of each, plus every power of ten and its neighbours.
        rng = np.random.default_rng(18)
        centers = [float(Fraction(10) ** e) for e in EXPONENTS]
        for e in EXPONENTS:
            centers += [nearest_halfway(e, m) for m in rng.integers(10**9, 10**10, 200).tolist()]
        values = [sign * steps(c, k) for c in centers for k in range(-2, 3) for sign in (1.0, -1.0)]
        values += [9999999999.5, 1234567890.5, 0.5e-13, 1e-13, 1e10, math.inf, -math.inf, math.nan, 5e-324, 1.7e308]
        assert exponential_texts(values) == [f"{v:.9e}" for v in values]

    def test_exponentials_scale_only_by_exact_powers_of_ten(self):
        # The fast path's error bound needs a * 10**k rounded once, so every
        # scale factor must be 10**k exactly; the double 1e-13, its range's
        # lowest magnitude, is not below 10**-13 and needs k = 22 at most.
        powers = ingest._EXACT_POWERS_OF_TEN
        assert [Fraction(p) for p in powers.tolist()] == [Fraction(10**k) for k in range(23)]
        assert Fraction(1e-13) >= Fraction(1, 10**13)

    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_propagation_nearly_cancels(self, ulps):
        # Kernel delays within a few ulps of rtt / 10**6, so prop_s is 0 or a
        # few ulps of the RTT: below the fast path's range but for 2**53 + 1 us.
        values = [690, 567, 1, 999_999, 2**53 + 1]
        samples = samples_from_us(values)
        expected = list(samples)
        for rtt in values:
            kernel_delay = steps(rtt / 10**6, ulps)
            text = propagation_csv(samples, kernel_delay)
            assert text == rendering_oracle.propagation_csv(expected, kernel_delay)
        assert "0.000000000e+00,false" in propagation_csv(samples, 567 / 10**6)

    @settings(max_examples=400, deadline=None)
    @given(capture_texts(), st.one_of(st.just(0.0), st.floats(0, 10)))
    def test_pipeline_matches_the_oracle_pipeline(self, text, kernel_delay):
        warnings, expected_warnings = [], []
        table = pair_rtts(parse_ping_log(text, warnings))
        expected = oracle_pair_rtts(oracle_parse_ping_log(text, expected_warnings))
        assert warnings == expected_warnings
        assert rtt_csv(table) == rendering_oracle.rtt_csv(expected)
        assert discrepancy_report(table, warnings) == rendering_oracle.discrepancy_report(expected, expected_warnings)
        assert propagation_csv(table, kernel_delay) == rendering_oracle.propagation_csv(expected, kernel_delay)
        assert subtract_baseline(table, kernel_delay) == rendering_oracle.subtract_baseline(expected, kernel_delay)
        if any(s.valid for s in expected):
            assert rtt_stats(table) == rendering_oracle.rtt_stats(expected)
        else:
            with pytest.raises(EmptyDataError):
                rtt_stats(table)
            with pytest.raises(EmptyDataError):
                rendering_oracle.rtt_stats(expected)

    def test_pipeline_peak_memory_stays_near_the_text(self):
        # A clean 40 000-line capture: one host pings 4 towers in turn, and
        # each reply comes back 400 to 4000 us after its request.
        towers = [f"169.254.65.{k}" for k in range(1, 5)]
        lines = []
        for k in range(20_000):
            mobile, tower, sent = "169.254.118.52", towers[k % 4], 1000 + 50_000 * k
            lines.append(f"{2 * k + 1}\t{format_timestamp(sent)}\t{mobile}\t{tower}\tICMP\tEcho (ping) request\n")
            lines.append(f"{2 * k + 2}\t{format_timestamp(sent + 400 + k * 7 % 3600)}\t{tower}\t{mobile}\tICMP\tEcho (ping) reply\n")
        text = "".join(lines)
        tracemalloc.start()
        try:
            table = pair_rtts(parse_ping_log(text))
            outputs = [
                rtt_csv(table),
                stats_summary(rtt_stats(table)),
                discrepancy_report(table),
                propagation_csv(table, 0.0005),
            ]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 20_000 and outputs[2] == "none\n"
        assert peak < 4 * len(text)
