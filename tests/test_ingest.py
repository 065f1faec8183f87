import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pairing_oracle import pair_rtts as oracle_pair_rtts
from parsing_oracle import parse_ping_log as oracle_parse_ping_log

from gsmloc.errors import EmptyDataError
from gsmloc.ingest import (
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
    lines = draw(st.lists(trace_line(), max_size=30))
    separators = draw(st.lists(st.sampled_from(LINE_SEPARATORS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + sep for line, sep in zip(lines, separators))


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
        warnings, expected_warnings = [], []
        expected = oracle_parse_ping_log(text, expected_warnings)
        records = parse_ping_log(text, warnings)
        assert list(records) == expected
        assert records == expected
        assert warnings == expected_warnings
        assert parse_ping_log(text) == expected

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
        assert table == samples and table.valid == [True, False] and table.anomaly == [None, None]
        assert rtt_stats(samples)["count"] == 1
        assert rtt_csv(samples).splitlines()[2] == "3,4,700,false,"
        assert discrepancy_report(samples) == "none\n"

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
        assert pair_rtts(records) == oracle_pair_rtts(records)

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
