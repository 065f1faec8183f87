import math
import time
import tracemalloc
from pathlib import Path
from warnings import catch_warnings, simplefilter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import rendering_oracle
from pairing_oracle import fifo_pair_rtts
from pairing_oracle import pair_rtts as oracle_pair_rtts
from parsing_oracle import parse_ping_log as oracle_parse_ping_log

from gsmloc import ingest
from gsmloc.errors import EmptyDataError
from gsmloc.ingest import (
    ANOMALIES,
    INT64_MAX,
    MISSING_REPLY,
    NEGATIVE,
    REPLY,
    REQUEST,
    PingLog,
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
def trace_line(draw):
    """One trace line: blank, well-formed, or with one or more odd pieces."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", " ", "\t", " \t\u3000"]))

    def piece(usual, odd):
        return draw(st.sampled_from(odd) if draw(st.integers(0, 3)) == 0 else usual)

    seq = piece(st.integers(0, 10**6).map(str), ODD_SEQS)
    time = piece(st.integers(0, 10**8).map(lambda us: f"{us // 10**6}.{us % 10**6:06d}"), ODD_TIMES)
    direction = piece(st.sampled_from([REQUEST, REPLY]), DIRECTIONS)
    hosts = st.sampled_from(["10.0.0.1", "10.0.0.2", "hôst"])
    tokens = [seq, time, draw(hosts), draw(hosts), "ICMP", "Echo", "(ping)"]
    shape = draw(st.sampled_from(["whole", "whole", "whole", "short", "extra"]))
    if shape == "short":
        tokens = tokens[: draw(st.integers(0, 4))]
    elif shape == "extra":
        tokens.insert(draw(st.integers(2, len(tokens))), "extra")
    separator = draw(st.sampled_from(FIELD_SEPARATORS))
    return draw(st.sampled_from(["", " "])) + separator.join(tokens + [direction])


@st.composite
def trace_texts(draw):
    """Up to 30 lines from trace_line(), ended by "\\n" only, by "\\n" or
    "\\r\\n", or by any line break: parse_ping_log reads columns only from
    the first two kinds of text."""
    lines = draw(st.lists(trace_line(), max_size=30))
    breaks = draw(st.sampled_from([["\n"], ["\n", "\r\n"], LINE_SEPARATORS]))
    separators = draw(st.lists(st.sampled_from(breaks), min_size=len(lines), max_size=len(lines)))
    return "".join(line + sep for line, sep in zip(lines, separators))


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
# lines) and non-ASCII whitespace, which str.split separates at.
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
    """A chunk size of a few hundred characters and a text of several chunks:
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
    # Up to and with the separator after the first run's first line.
    chunk_chars = sum(map(len, lines[: first_at + 1])) + (first_at + 1) * len(separator)
    return chunk_chars, text


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


def samples_from_us(values_us):
    return [
        RttSample(request_seq=i, reply_seq=i + 1, rtt_us=v, valid=True)
        for i, v in enumerate(values_us)
    ]


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
        assert parse_ping_log("") == []

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
        assert list(records) == expected
        assert records == expected
        assert records.paths == PingLog.of(expected).paths
        assert warnings == expected_warnings
        assert parse_ping_log(text) == expected

    @settings(max_examples=300, deadline=None)
    @given(long_trace_texts())
    def test_long_texts_match_record_per_line_oracle(self, chunked_text):
        chunk_chars, text = chunked_text
        expected_warnings = []
        expected = oracle_parse_ping_log(text, expected_warnings)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_CHARS", chunk_chars)
            records, warnings = parse_strictly(text)
        assert records == expected
        assert records.paths == PingLog.of(expected).paths
        assert warnings == expected_warnings

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
        ],
    )
    def test_window_edges_and_odd_bytes_match_the_oracle(self, line):
        text = f"1\t0.500000\t10.0.0.5\t10.0.0.6\tICMP\tEcho (ping) reply\n{line}\n"
        expected_warnings = []
        expected = oracle_parse_ping_log(text, expected_warnings)
        records, warnings = parse_strictly(text)
        assert records == expected
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
        assert log == expected
        assert log.paths == [("10.0.0.1", "10.0.0.2"), ("10.0.0.9", "10.0.0.1"), ("10.0.0.2", "10.0.0.1"), ("10.0.0.1", "10.0.0.9")]
        assert log.paths == PingLog.of(expected).paths
        assert log.path.tolist() == [0, 1, 2, 3, 1]

    def test_colliding_tail_hashes_fall_back_to_exact_comparison(self, monkeypatch, tower1_log):
        # With every multiplier 0 every tail hashes alike; only the exact comparison tells them apart.
        monkeypatch.setattr(ingest, "_TAIL_HASH", np.zeros_like(ingest._TAIL_HASH))
        text = tower1_log + (TEST_DATA / "pairing_capture.log").read_text()
        expected_warnings = []
        expected = oracle_parse_ping_log(text, expected_warnings)
        records, warnings = parse_strictly(text)
        assert len(PingLog.of(expected).paths) > 2
        assert records == expected
        assert records.paths == PingLog.of(expected).paths
        assert warnings == expected_warnings

    def test_shifted_tokens_do_not_align(self):
        # 9 tokens then 7: 16 tokens with the literals in place, yet no line is a record.
        text = "1 0.100000 a b ICMP Echo (ping) request 5\n0.200000 a b ICMP Echo (ping) reply\n"
        warnings = []
        assert parse_ping_log(text, warnings) == []
        assert [w.partition(":")[0] for w in warnings] == ["line 1", "line 2"]
        expected_warnings = []
        oracle_parse_ping_log(text, expected_warnings)
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
            assert parse_ping_log(line, warnings) == PingLog.of([record]) == [record]
            assert warnings == []
        else:
            with pytest.raises(ValueError, match="int64"):
                parse_ping_record(line)
            assert parse_ping_log(line, warnings) == []
            assert len(warnings) == 1 and "int64" in warnings[0]
            with pytest.raises(ValueError, match="int64"):
                PingLog.of([record])

    def test_log_rejects_a_negative_time(self):
        with pytest.raises(ValueError, match="negative"):
            PingLog.of([PingRecord(1, -1, "10.0.0.1", "10.0.0.2", REQUEST)])

    def test_timestamp_exact_microseconds(self):
        assert parse_timestamp_us("21.000091") == 21000091
        assert parse_timestamp_us("3.5") == 3500000
        assert parse_timestamp_us("7") == 7000000
        # digits beyond microseconds truncate
        assert parse_timestamp_us("1.2345678") == 1234567

    def test_parse_format_parse_fixed_point(self, tower1_log, tower2_log, tower3_log):
        for text in (tower1_log, tower2_log, tower3_log):
            records = parse_ping_log(text)
            rendered = "\n".join(format_ping_record(r) for r in records)
            assert parse_ping_log(rendered) == records


class TestColumns:
    TEXT = "\n".join(
        [
            "1 1.000000 10.0.0.1 10.0.0.2 ICMP Echo (ping) request",
            "2 1.000500 10.0.0.2 10.0.0.1 ICMP Echo (ping) reply",
            "3 2.000000 10.0.0.1 10.0.0.3 ICMP Echo (ping) request",
        ]
    )

    def test_log_reads_like_a_list_of_records(self):
        log = parse_ping_log(self.TEXT)
        assert isinstance(log, PingLog)
        records = [parse_ping_record(line) for line in self.TEXT.splitlines()]
        assert len(log) == 3
        assert log[0] == records[0] and log[-1] == records[2]
        assert log[1:] == records[1:]
        assert log == records and log != records[:2]
        assert records == log
        with pytest.raises(IndexError):
            log[3]
        with pytest.raises(IndexError):
            log[-4]
        assert log.paths == [("10.0.0.1", "10.0.0.2"), ("10.0.0.2", "10.0.0.1"), ("10.0.0.1", "10.0.0.3")]
        assert PingLog.of(records) == log and PingLog.of(log) is log

    def test_table_keeps_hand_built_flags(self):
        # an unusual combination no pairing produces: invalid, no anomaly
        samples = [RttSample(1, 2, 500, valid=True), RttSample(3, 4, 700, valid=False)]
        table = RttTable.of(samples)
        assert table == samples and table.valid.tolist() == [True, False]
        assert [ANOMALIES[code] for code in table.anomaly.tolist()] == [None, None]
        assert rtt_stats(samples)["count"] == 1
        assert rtt_csv(samples).splitlines()[2] == "3,4,700,false,"
        assert discrepancy_report(samples) == "none\n"

    @pytest.mark.parametrize(
        "sample",
        [
            RttSample(1, 2, None, valid=False),
            RttSample(1, None, 5, valid=False),
            RttSample(1, 2, 5, valid=True, anomaly="late"),
            RttSample(INT64_MAX + 1, 2, 5, valid=True),
        ],
    )
    def test_table_rejects_what_its_columns_cannot_hold(self, sample):
        with pytest.raises(ValueError):
            RttTable.of([sample])

    def test_table_reads_like_a_list_of_samples(self):
        table = pair_rtts(parse_ping_log(self.TEXT))
        expected = [
            RttSample(1, 2, 500, valid=True),
            RttSample(3, None, None, valid=False, anomaly=MISSING_REPLY),
        ]
        assert table == expected and table[-1] == expected[1] and table[:1] == expected[:1]
        assert rtt_csv(table) == rtt_csv(expected)
        assert discrepancy_report(table, ["line 9: x"]) == discrepancy_report(expected, ["line 9: x"])


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
        samples = pair_rtts(parse_ping_log(tower3_log))
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
        samples = pair_rtts(parse_ping_log(text))
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
        samples = pair_rtts(parse_ping_log(text))
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
        assert pair_rtts(records) == expected
        assert fifo_pair_rtts(records) == expected

    @settings(max_examples=300, deadline=None)
    @given(trace_texts())
    def test_parsed_log_pairs_like_the_oracles(self, text):
        expected = oracle_pair_rtts(oracle_parse_ping_log(text))
        table = pair_rtts(parse_ping_log(text))
        assert isinstance(table, RttTable)
        assert list(table) == expected
        assert pair_rtts(list(parse_ping_log(text))) == expected

    def test_all_replies_missing_is_linear(self):
        # The worst case for per-request rescanning: nothing ever pairs.
        records = [
            PingRecord(seq, seq * 1000, "10.0.0.1", "10.0.0.2", REQUEST)
            for seq in range(16_000)
        ]
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
        samples = samples_from_us([690]) + [
            RttSample(9, 10, -17, valid=False, anomaly=NEGATIVE)
        ]
        assert len(subtract_baseline(samples, 0.0001)) == 1

    def test_rejects_negative_baseline(self):
        with pytest.raises(ValueError):
            subtract_baseline([], -1e-6)

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
        samples = [RttSample(1, 2, -5, valid=False, anomaly=NEGATIVE)]
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
        samples = samples_from_us([690, 567]) + [RttSample(9, 10, -17, valid=False, anomaly=NEGATIVE)]
        assert propagation_csv(samples, 0.0006) == (
            "request_seq,prop_s,flagged_negative\n"
            "0,9.000000000e-05,false\n"
            "1,-3.300000000e-05,true\n"
        )

    def test_discrepancy_report_clean_log(self):
        samples = samples_from_us([100, 200])
        assert discrepancy_report(samples) == "none\n"

    def test_discrepancy_report_includes_warnings(self):
        report = discrepancy_report([], warnings=["line 3: expected at least 5 fields, got 2"])
        assert "malformed-line" in report

    def test_intervals_past_2_53_us_round_like_python_ints(self):
        # float64(n) / 1e6 rounds twice for these n, and differs from n / 10**6.
        wide = [2**53 + 1, 1211945163729050442, 8457106966114034084, -4381379356234776829]
        assert all(np.float64(n) / 1e6 != n / 10**6 for n in wide)
        samples = samples_from_us(wide + [INT64_MAX, 690, 567])
        for k in (len(samples), len(samples) - 1):  # an odd count, then an even one
            assert rtt_stats(samples[:k]) == rendering_oracle.rtt_stats(samples[:k])
        assert subtract_baseline(samples, 0.0005) == rendering_oracle.subtract_baseline(samples, 0.0005)
        assert propagation_csv(samples, 0.0005) == rendering_oracle.propagation_csv(samples, 0.0005)
        assert rtt_csv(samples) == rendering_oracle.rtt_csv(samples)

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
