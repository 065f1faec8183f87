import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parsing_oracle import parse_ping_log as oracle_parse_ping_log

from gsmloc import cli, ingest
from gsmloc.cli import main
from gsmloc.ingest import MISSING_REPLY, NEGATIVE, REPLY, REQUEST, PingRecord, format_ping_record

HEX_CONFIG = {
    "towers": {"hex": {"center": [0, 0, 0], "radius": 500.0, "rings": 1}},
    "mobile": [120.0, 60.0, 0.0],
    "timing": {"alpha": 0.0, "c": 3.0e8, "mode": "round_trip", "clock_resolution": 0.0},
    "seed": 7,
}


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return path


def manifest_without_timestamp(path):
    record = json.loads(path.read_text())
    record.pop("created_utc")
    return record


# name: (command-line arguments with inputs under tests/data, exit code)
RUN_GOLDENS = {
    "simulate_lossless": (["simulate", "simulate_lossless.json"], 0),
    "locate_worked_example": (["locate", "locate_worked_example.txt"], 0),
    "analyze_log_pairing_capture": (["analyze-log", "pairing_capture.log", "--baseline", "0.0007"], 0),
    "analyze_log_odd_lines_capture": (["analyze-log", "odd_lines_capture.log", "--baseline", "0.0007"], 0),
    "feasibility_microsecond_clock": (["feasibility", "--range", "175", "--clock", "1e-6"], 1),
    "feasibility_tenth_microsecond_clock": (["feasibility", "--range", "175", "--clock", "1e-7"], 0),
}


def golden_run_argv(golden_dir, name, out):
    data = golden_dir.parent
    args = [str(data / a) if (data / a).is_file() else a for a in RUN_GOLDENS[name][0]]
    return [*args, "-o", str(out)]


@pytest.mark.parametrize("name", sorted(RUN_GOLDENS))
def test_run_matches_goldens(tmp_path, golden_dir, capsys, name):
    # The manifest is compared as text, so key order and layout are pinned;
    # only its created_utc entry is cut out.
    args, code = RUN_GOLDENS[name]
    out = tmp_path / "out"
    assert main(golden_run_argv(golden_dir, name, out)) == code
    expected = golden_dir / "runs" / name
    assert capsys.readouterr().out == (expected / "stdout.txt").read_text()
    manifest = (out / f"{args[0].replace('-', '_')}_manifest.json").read_text()
    manifest, count = re.subn(r',\n  "created_utc": "\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ"', "", manifest)
    assert count == 1
    assert manifest == (expected / "manifest.json").read_text()


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("name", sorted(RUN_GOLDENS))
def test_unwritable_out_dir_exit_2(tmp_path, golden_dir, capsys, name, under_file):
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n")
    out = blocker / "out" if under_file else blocker
    assert main(golden_run_argv(golden_dir, name, out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""
    assert blocker.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("name", ["simulate_lossless", "analyze_log_pairing_capture"])
def test_failed_write_leaves_no_file(tmp_path, golden_dir, capsys, monkeypatch, name):
    write_text, calls = Path.write_text, []

    def fail_third(path, *args, **kwargs):
        calls.append(path)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_third)
    out = tmp_path / "out"
    assert main(golden_run_argv(golden_dir, name, out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""
    assert len(calls) == 3
    assert list(out.iterdir()) == []


class TestSimulate:
    def test_writes_table_shaped_csv(self, tmp_path):
        config = write_config(tmp_path / "scenario.json", HEX_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", str(config), "-o", str(out)]) == 0
        lines = (out / "measurements.csv").read_text().splitlines()
        assert lines[0] == "tower_id,turnaround_s,distance_m,actual_m,pct_error"
        assert len(lines) == 7  # six towers, ordered by turnaround
        turnarounds = [float(line.split(",")[1]) for line in lines[1:]]
        assert turnarounds == sorted(turnarounds)
        assert (out / "trace.tsv").exists()
        assert (out / "fix.txt").read_text().startswith("position ")
        assert (out / "simulate_manifest.json").exists()

    def test_two_towers_is_invalid_config(self, tmp_path, capsys):
        bad = dict(HEX_CONFIG)
        bad["towers"] = {"sites": [{"position": [0, 0, 0]}, {"position": [10, 0, 0]}]}
        config = write_config(tmp_path / "bad.json", bad)
        assert main(["simulate", str(config), "-o", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # nothing written on failure

    def test_collinear_towers_exit_3(self, tmp_path):
        bad = dict(HEX_CONFIG)
        bad["towers"] = {
            "sites": [
                {"position": [0, 0, 0]},
                {"position": [100, 0, 0]},
                {"position": [200, 0, 0]},
            ]
        }
        config = write_config(tmp_path / "collinear.json", bad)
        assert main(["simulate", str(config), "-o", str(tmp_path / "out")]) == 3

    def test_more_than_one_trial_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "trials.json", dict(HEX_CONFIG, trials=3))
        out = tmp_path / "out"
        assert main(["simulate", str(config), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trials" in err
        assert not out.exists()

    def test_delay_above_processing_time_exit_2(self, tmp_path, capsys):
        # alpha larger than the towers' processing delay makes every
        # turn-around time negative after calibration
        bad = dict(HEX_CONFIG, timing=dict(HEX_CONFIG["timing"], alpha=1e-3))
        config = write_config(tmp_path / "alpha.json", bad)
        out = tmp_path / "out"
        assert main(["simulate", str(config), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: turnaround ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"tower_processing_delay": float("nan")},
            {"request_time": float("inf")},
            {"timing": {"c": float("nan")}},
            {"timing": {"clock_resolution": float("inf")}},
        ],
        ids=["delay-nan", "request-time-inf", "c-nan", "clock-inf"],
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, override):
        # json.dumps writes NaN and Infinity, which json.loads reads back
        config = write_config(tmp_path / "scenario.json", dict(HEX_CONFIG, **override))
        out = tmp_path / "out"
        assert main(["simulate", str(config), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"towers": {"sites": [{"position": [1e200, 0, 0]}, {"position": [0, 1e200, 0]}, {"position": [0, 0, 0]}]}},
            {"towers": {"hex": {"center": [0, 0, 0], "radius": 1e200}}},
            {"mobile": [0, 0, -1e200]},
            {"timing": dict(HEX_CONFIG["timing"], mode="one_way")},
            {"timing": dict(HEX_CONFIG["timing"], clock_resolution=1e-9), "request_time": 1e300},
            {"timing": []},
            {"towers": {"hex": {"center": [0, 0, 0], "radius": 500.0, "rings": 1.9}}},
            {"seed": 3.7},
            {"trials": 1.9},
            {"seed": True},
            {"towers": {"sites": [{"id": "0", "position": [0, 0, 0]}, {"position": [9, 0, 0]}, {"position": [0, 9, 0]}]}},
            {"towers": {"hex": {"center": [0, 0, 0], "radius": "500", "rings": 1}}},
            {"towers": {"hex": {"center": [0, "0", 0], "radius": 500.0, "rings": 1}}},
            {"towers": {"sites": [{"position": [0, 0, 0]}, {"position": [9, False, 0]}, {"position": [0, 9, 0]}]}},
            {"mobile": [True, 60, 0]},
            {"timing": dict(HEX_CONFIG["timing"], alpha="0")},
            {"timing": dict(HEX_CONFIG["timing"], c="3e8")},
            {"timing": dict(HEX_CONFIG["timing"], clock_resolution=None)},
            {"tower_processing_delay": "0"},
            {"request_time": [0.25]},
            {"packet_loss": "0.0"},
            {"packet_loss": True},
            {"request_time": 10**400},
            {"towers": {"hex": {"center": [0, 0, 0], "radius": 500.0, "rings": 101}}},
            {"packet_los": 0.9},
            {"towers": {"hex": {"center": [0, 0, 0], "radius": 500.0, "ring": 3}}},
            {"towers": dict(HEX_CONFIG["towers"], sites=[{"position": [0, 0, 0]}, {"position": [9, 0, 0]},
                                                         {"position": [0, 9, 0]}])},
            {"towers": {"sites": [{"position": [0, 0, 0], "pos": [1, 0, 0]}, {"position": [9, 0, 0]},
                                  {"position": [0, 9, 0]}]}},
            {"timing": dict(HEX_CONFIG["timing"], clock=1e-9)},
            {"seed": -1},
            {"seed": -1, "packet_loss": 0.1},
        ],
        ids=[
            "huge-sites", "huge-hex", "huge-mobile", "one-way", "clock-overflows", "timing-list",
            "rings-fraction", "seed-fraction", "trials-fraction", "seed-bool", "id-string",
            "radius-string", "center-string", "position-bool", "mobile-bool", "alpha-string", "c-string",
            "clock-null", "delay-string", "request-time-list", "loss-string", "loss-bool", "int-overflows-float",
            "rings-101", "unknown-key", "hex-unknown-key", "hex-and-sites", "site-unknown-key", "timing-unknown-key",
            "seed-negative", "seed-negative-lossy",
        ],
    )
    def test_unrunnable_config_exit_2(self, tmp_path, capsys, override):
        config = write_config(tmp_path / "scenario.json", dict(HEX_CONFIG, **override))
        out = tmp_path / "out"
        assert main(["simulate", str(config), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"packet_loss": True}, "packet_loss must be a number, got True"),
            ({"timing": dict(HEX_CONFIG["timing"], c="3e8")}, "c must be a number, got '3e8'"),
            ({"mobile": [120.0, None, 0.0]}, "mobile[1] must be a number, got None"),
            (
                {"towers": {"sites": [{"position": [1e200, 0, 0]}, {"position": [0, 1e200, 0]}, {"position": [0, 0, 0]}]}},
                "numbers must be finite and at most 1e+75 in absolute value, got position [1e+200, 0.0, 0.0]",
            ),
            ({"seed": -1, "packet_loss": 0.1}, "seed must be >= 0, got -1"),
        ],
        ids=["loss-bool", "c-string", "mobile-null", "huge-sites", "seed-negative"],
    )
    def test_non_number_field_names_the_key(self, tmp_path, capsys, override, message):
        config = write_config(tmp_path / "scenario.json", dict(HEX_CONFIG, **override))
        assert main(["simulate", str(config), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"), "-o", str(tmp_path)]) == 2

    def test_config_starting_with_a_bom_exit_2(self, tmp_path, capsys):
        # The config is read as text, which keeps the BOM; json.loads rejects it there.
        config = tmp_path / "scenario.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps(HEX_CONFIG).encode())
        out = tmp_path / "out"
        assert main(["simulate", str(config), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {config} is not valid JSON: Unexpected UTF-8 BOM")
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path / "scenario.json", HEX_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(config), "-o", str(out_a)]) == 0
        assert main(["simulate", str(config), "-o", str(out_b)]) == 0
        for name in ("trace.tsv", "measurements.csv", "fix.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert manifest_without_timestamp(
            out_a / "simulate_manifest.json"
        ) == manifest_without_timestamp(out_b / "simulate_manifest.json")

    @pytest.mark.parametrize("name", ["lossless", "lossy", "lossy_hex"])
    def test_matches_goldens(self, tmp_path, golden_dir, name):
        # lossy: seed 1 loses the request to tower 5 and the ack from
        # tower 0, and towers 3/7 and 2/6 tie in distance.
        # lossy_hex: a 90-tower cell where seed 5 loses 10 requests (one of
        # them to tower 4, among the nearest three) and 9 acks.
        config = golden_dir.parent / f"simulate_{name}.json"
        out = tmp_path / "out"
        assert main(["simulate", str(config), "-o", str(out)]) == 0
        for file_name in ("trace.tsv", "measurements.csv", "fix.txt"):
            expected = golden_dir / "simulate" / name / file_name
            assert (out / file_name).read_bytes() == expected.read_bytes(), file_name

    def test_digest_tracks_content_not_formatting(self, tmp_path):
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(HEX_CONFIG, indent=4, sort_keys=True))
        compact = write_config(tmp_path / "compact.json", HEX_CONFIG)
        changed = dict(HEX_CONFIG, seed=8)
        other = write_config(tmp_path / "other.json", changed)
        outs = [tmp_path / n for n in ("p", "c", "o")]
        for cfg, out in zip((pretty, compact, other), outs):
            assert main(["simulate", str(cfg), "-o", str(out)]) == 0
        digests = [
            json.loads((out / "simulate_manifest.json").read_text())["config_digest"]
            for out in outs
        ]
        assert digests[0] == digests[1]
        assert digests[2] != digests[0]


class TestLocate:
    def test_three_tower_worked_example(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text(
            "# id x y z range\n"
            "0 0 0 0 7.0710678118654755\n"
            "1 10 0 0 9.486832980505138\n"
            "2 0 10 0 8.366600265340756\n"
        )
        assert main(["locate", str(rows), "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "position 3.000000" in out.replace("000000000", "000000")
        assert "3.000000000 4.000000000 5.000000000" in out
        assert "three-tower-quadratic" in out

    def test_four_towers_use_least_squares(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text(
            "0 0 0 0 7.0710678118654755\n"
            "1 10 0 0 9.486832980505138\n"
            "2 0 10 0 8.366600265340756\n"
            "3 0 0 10 7.0710678118654755\n"
        )
        assert main(["locate", str(rows), "-o", str(tmp_path)]) == 0
        assert "least-squares" in capsys.readouterr().out

    def test_nonpositive_branch_flag(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text(
            "0 0 0 0 7.0710678118654755\n"
            "1 10 0 0 9.486832980505138\n"
            "2 0 10 0 8.366600265340756\n"
        )
        assert main(
            ["locate", str(rows), "--z-convention", "nonpositive", "-o", str(tmp_path)]
        ) == 0
        assert "-5.000000000" in capsys.readouterr().out

    def test_collinear_exit_3(self, tmp_path):
        rows = tmp_path / "rows.txt"
        rows.write_text("0 0 0 0 1\n1 5 0 0 1\n2 9 0 0 1\n")
        assert main(["locate", str(rows), "-o", str(tmp_path)]) == 3

    def test_too_few_rows_exit_2(self, tmp_path):
        rows = tmp_path / "rows.txt"
        rows.write_text("0 0 0 0 1\n1 5 0 0 1\n")
        assert main(["locate", str(rows), "-o", str(tmp_path)]) == 2

    def test_collinear_error_line(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("0 0 0 0 1\n1 5 0 0 1\n2 9 0 0 1\n")
        main(["locate", str(rows), "-o", str(tmp_path)])
        assert capsys.readouterr().err.startswith("error: degenerate geometry: ")

    def test_unreadable_input_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["locate", str(missing), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "bad_row",
        [
            "0 0 0 0 -1",  # negative range
            "0 nan 0 0 1",
            "0 0 inf 0 1",
            "0 0 0 0 nan",
            "0 0 0 0 inf",
            "-1 0 0 0 1",  # negative tower id
            "2 0 0 0 1",  # repeats the id of the last good row
        ],
    )
    def test_bad_row_exit_2(self, tmp_path, capsys, bad_row):
        rows = tmp_path / "rows.txt"
        rows.write_text(f"{bad_row}\n1 10 0 0 9.486832980505138\n2 0 10 0 8.366600265340756\n")
        out = tmp_path / "out"
        assert main(["locate", str(rows), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_tilted_coplanar_towers_solve(self, tmp_path, capsys):
        # Four towers on a tilted plane, which least squares over all rows
        # used to judge rank 3, fixing a point 155 m off tower 3's sphere.
        rows = tmp_path / "rows.txt"
        rows.write_text(
            "0 113.7322098189112 492.0066662056868 -831.3746610014272 195.51953520789013\n"
            "1 312.01507700487855 498.60417867710413 -822.0211493123784 298.7104318058191\n"
            "2 74.67840144748376 372.7385333141496 -832.1118946344205 309.33900771213854\n"
            "3 75.07482422159755 674.0331170775182 -834.9153534683003 47.57484813568919\n"
        )
        assert main(["locate", str(rows), "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "z_branch nonnegative" in out
        residuals = [float(line.split()[-1]) for line in out.splitlines() if "residual" in line]
        assert len(residuals) == 4 and max(residuals) <= 1e-6

    @pytest.mark.parametrize("convention, z", [("nonnegative", "5.000000000"), ("nonpositive", "-5.000000000")])
    def test_four_flat_towers_take_the_convention(self, tmp_path, capsys, convention, z):
        rows = tmp_path / "rows.txt"
        rows.write_text(
            "0 0 0 0 7.0710678118654755\n"
            "1 10 0 0 9.486832980505138\n"
            "2 0 10 0 8.366600265340756\n"
            "3 10 10 0 10.488088481701515\n"
        )
        argv = ["locate", str(rows), "--z-convention", convention, "-o", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"position 3.000000000 4.000000000 {z}\n" in out
        assert f"method least-squares\nz_branch {convention}\n" in out

    @pytest.mark.parametrize("n", [4, 6])
    def test_collinear_four_or_more_exit_3(self, tmp_path, capsys, n):
        rows = tmp_path / "rows.txt"
        rows.write_text("".join(f"{i} {3 * i} {-2 * i} {i} 4\n" for i in range(n)))
        assert main(["locate", str(rows), "-o", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: degenerate geometry: ")

    @pytest.mark.parametrize("fourth", ["", "3 0 0 1e200 1\n"])
    def test_huge_numbers_exit_2(self, tmp_path, capsys, fourth):
        rows = tmp_path / "rows.txt"
        rows.write_text("0 1e200 0 0 1\n1 0 1e200 0 1\n2 0 0 0 1e200\n" + fourth)
        out = tmp_path / "out"
        assert main(["locate", str(rows), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_overflowing_fix_exit_3(self, tmp_path, capsys):
        # towers 1e-300 m apart cannot separate ranges that differ by 1e75 m
        rows = tmp_path / "rows.txt"
        rows.write_text("0 0 0 0 1e75\n1 1e-300 0 0 1\n2 0 1e-300 0 1\n3 0 0 1e-300 1\n")
        assert main(["locate", str(rows), "-o", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: degenerate geometry: ")

    def test_overflowing_coplanar_fix_exit_3(self, tmp_path):
        # Towers 1e-80 m apart put the fix about 1e230 m out, where its squared
        # lengths overflow. Run as a process, so that a numpy warning would
        # reach stderr.
        rows = tmp_path / "rows.txt"
        rows.write_text("0 0 0 0 1e75\n1 1e-80 0 0 1\n2 0 1e-80 0 1\n3 1e-80 1e-80 0 1\n")
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "gsmloc.cli", "locate", str(rows), "-o", str(out)],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 3
        assert result.stderr == "error: degenerate geometry: the fix overflows for these towers and ranges\n"
        assert result.stdout == ""
        assert not out.exists()

    def test_unresolvable_tower_plane_exit_3(self, tmp_path):
        # Five towers around 1e-114 m apart, whose plane normal has a length
        # that underflows to 0. Run as a process with warnings as errors, so
        # that a numpy warning would reach stderr or change the exit.
        rows = tmp_path / "rows.txt"
        rows.write_text(
            "0 -1.4725384132971868e-114 9.348708136814765e-116 -8.576876979819554e-116 8.335182738654189e-113\n"
            "1 -1.6748781899547912e-114 -9.820564355975896e-116 6.38189393004369e-89 6.563088438349182e-86\n"
            "2 -9.242280965806416e-113 -8.011473251796368e-91 1.826358056653218e-112 8.750318957610661e-109\n"
            "3 8.206519757213115e-119 2.240324654839915e-109 -9.628502186863375e-113 6.21655845777134e-110\n"
            "4 -3.214868955938345e-114 3.48561229308079e-101 -3.1198807004794215e-87 5.353664634603665e-103\n"
        )
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gsmloc.cli", "locate", str(rows), "-o", str(out)],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 3
        assert result.stderr == (
            "error: degenerate geometry: the towers' plane cannot be resolved at this scale"
            " (its normal has length 0)\n"
        )
        assert result.stdout == ""
        assert not out.exists()

    def test_tiny_triangle_is_not_called_collinear(self, tmp_path):
        # A right triangle with 1e-100 m legs: the squares of its normal's
        # components underflow, but its area does not, so the towers are not
        # collinear. Warnings are errors, as in the test above.
        rows = tmp_path / "rows.txt"
        rows.write_text("0 0 0 0 1e75\n1 1e-100 0 0 1\n2 0 1e-100 0 1\n")
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gsmloc.cli", "locate", str(rows), "-o", str(out)],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 3
        assert result.stderr.startswith("error: degenerate geometry: ")
        assert result.stderr.count("\n") == 1
        assert "collinear" not in result.stderr
        assert not out.exists()

    @given(
        st.integers(0, 308),
        st.lists(
            st.tuples(*[st.tuples(st.floats(-9.99, 9.99), st.floats(0.0, 1.0))] * 4),
            min_size=3,
            max_size=5,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_magnitude_exits_cleanly(self, tmp_path_factory, top, draws):
        # Every number is m * 10**e with |m| < 10 and e spread over [0, top].
        lines = []
        for i, row in enumerate(draws):
            x, y, z, r = (m * 10.0 ** round(share * top) for m, share in row)
            lines.append(f"{i} {x!r} {y!r} {z!r} {abs(r)!r}\n")
        tmp = tmp_path_factory.mktemp("locate")
        rows = tmp / "rows.txt"
        rows.write_text("".join(lines))
        code = main(["locate", str(rows), "-o", str(tmp / "out")])
        assert code in (0, 2, 3)
        assert (tmp / "out").exists() == (code == 0)

    def test_inconsistent_ranges_still_exit_0(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("0 0 0 0 1\n1 10 0 0 1\n2 0 10 0 1\n")
        assert main(["locate", str(rows), "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        residuals = [float(line.split()[-1]) for line in out.splitlines() if "residual" in line]
        assert max(residuals) > 1.0


class TestAnalyzeLog:
    def test_tower2_stats_and_outputs(self, tmp_path, tower2_log, capsys):
        log = tmp_path / "tower2.log"
        log.write_text(tower2_log)
        out = tmp_path / "out"
        assert main(["analyze-log", str(log), "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "max_ms 3.608" in stdout
        assert (out / "rtt.csv").exists()
        assert (out / "stats.txt").exists()
        assert (out / "discrepancies.txt").read_text() == "none\n"

    def test_tower1_flags_negative_pair(self, tmp_path, tower1_log):
        log = tmp_path / "tower1.log"
        log.write_text(tower1_log)
        out = tmp_path / "out"
        assert main(["analyze-log", str(log), "-o", str(out)]) == 0
        report = (out / "discrepancies.txt").read_text()
        assert "request_seq=45" in report
        assert "reply_seq=46" in report
        assert "negative-interval" in report

    def test_baseline_writes_propagation(self, tmp_path, tower3_log):
        log = tmp_path / "tower3.log"
        log.write_text(tower3_log)
        out = tmp_path / "out"
        assert main(["analyze-log", str(log), "--baseline", "0.0006", "-o", str(out)]) == 0
        lines = (out / "propagation.csv").read_text().splitlines()
        assert lines[0] == "request_seq,prop_s,flagged_negative"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.000174, abs=1e-9)

    def test_empty_log_exit_4(self, tmp_path):
        log = tmp_path / "empty.log"
        log.write_text("")
        assert main(["analyze-log", str(log), "-o", str(tmp_path / "out")]) == 4
        assert not (tmp_path / "out").exists()

    def test_unreadable_log_exit_2(self, tmp_path):
        assert main(["analyze-log", str(tmp_path / "missing.log"), "-o", str(tmp_path)]) == 2

    def test_unreadable_log_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.log"
        main(["analyze-log", str(missing), "-o", str(tmp_path)])
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")

    def test_no_pairs_error_line(self, tmp_path, capsys):
        log = tmp_path / "empty.log"
        log.write_text("")
        main(["analyze-log", str(log), "-o", str(tmp_path / "out")])
        assert capsys.readouterr().err == "error: no valid request/reply pairs in log\n"

    @pytest.mark.parametrize("baseline", ["nan", "inf", "-1"])
    def test_bad_baseline_exit_2_before_reading_log(self, tmp_path, tower3_log, capsys, baseline):
        log = tmp_path / "tower3.log"
        log.write_text(tower3_log)
        out = tmp_path / "out"
        assert main(["analyze-log", str(log), "--baseline", baseline, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --baseline")
        assert not out.exists()
        missing = tmp_path / "missing.log"
        assert main(["analyze-log", str(missing), "--baseline", baseline, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --baseline")

    def test_pairing_capture_matches_goldens(self, tmp_path, golden_dir):
        # Two interleaved paths, a lost reply that shifts later pairs, an
        # orphan reply, a negative interval, a src == dst path, a trailing
        # unanswered request and two malformed lines.
        log = golden_dir.parent / "pairing_capture.log"
        out = tmp_path / "out"
        assert main(["analyze-log", str(log), "--baseline", "0.0007", "-o", str(out)]) == 0
        expected = sorted((golden_dir / "pairing_capture").iterdir())
        assert [path.name for path in expected] == [
            "discrepancies.txt", "propagation.csv", "rtt.csv", "stats.txt"
        ]
        for path in expected:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_odd_lines_capture_matches_goldens(self, tmp_path, golden_dir):
        # Lines off the well-formed shape: Unicode digits, signs and
        # underscores in seq and time, upper-case directions, extra and
        # missing fields, 0 or 7 fraction digits, blank lines, and \r\n,
        # \x0b, \x0c, \x1c, \x85, \u2028 and \u2029 line separators that
        # number the malformed-line warnings.
        log = golden_dir.parent / "odd_lines_capture.log"
        out = tmp_path / "out"
        assert main(["analyze-log", str(log), "--baseline", "0.0007", "-o", str(out)]) == 0
        expected = sorted((golden_dir / "odd_lines_capture").iterdir())
        assert [path.name for path in expected] == [
            "discrepancies.txt", "propagation.csv", "rtt.csv", "stats.txt"
        ]
        for path in expected:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_calls_the_names_the_benchmark_traces(self, tmp_path, golden_dir, monkeypatch):
        # perfbench's traced run wraps these gsmloc.cli module globals; if
        # analyze-log stopped calling them, its per-layer metrics would read 0.
        results = {}

        def spy(name):
            original = getattr(cli, name)

            def wrapper(*args):
                results.setdefault(name, []).append((args, original(*args)))
                return results[name][-1][1]

            monkeypatch.setattr(cli, name, wrapper)

        spy("parse_ping_log")
        spy("pair_rtts")
        log = golden_dir.parent / "odd_lines_capture.log"
        assert main(["analyze-log", str(log), "-o", str(tmp_path / "out")]) == 0
        [((_, warnings), records)] = results["parse_ping_log"]
        [(_, samples)] = results["pair_rtts"]
        # parse_ping_log reads the capture from an iterator of its pieces, spent by now.
        text = log.read_text()
        assert len(records) == len(oracle_parse_ping_log(text)) == 23
        assert len(records) + len(warnings) == sum(1 for line in text.splitlines() if line.strip())
        flags = [(s.valid, s.anomaly) for s in samples]
        assert flags == [(True, None)] * 10 + [(False, NEGATIVE), (False, MISSING_REPLY)]


# analyze-log's traced peak on a capture of about 8 MB, at most this many
# bytes per byte of the capture. The capture is read, hashed and parsed a
# piece at a time, and its parsed log dropped once it is paired, so the
# peak is pairing's and rendering's, about 1.7 bytes per capture byte. A
# run that holds the capture's bytes whole peaks at about 2.7.
PEAK_PER_CAPTURE_BYTE = 2.2


def test_analyze_log_peak_memory_is_a_fraction_of_the_capture_held_whole(tmp_path, capsys):
    mobile, towers = "169.254.118.52", [f"169.254.65.{k}" for k in range(4)]
    path = tmp_path / "capture.log"
    with path.open("w") as capture:
        for i in range(57_000):
            tower, sent = towers[i % 4], i * 250_000
            capture.write(format_ping_record(PingRecord(2 * i, sent, mobile, tower, REQUEST)) + "\n")
            capture.write(format_ping_record(PingRecord(2 * i + 1, sent + 600 + i % 97, tower, mobile, REPLY)) + "\n")
    size = path.stat().st_size
    assert 7.5e6 < size < 8.5e6
    tracemalloc.start()
    try:
        assert main(["analyze-log", str(path), "--baseline", "0.0005", "-o", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("count 57000\n")
    assert peak < PEAK_PER_CAPTURE_BYTE * size, f"peak {peak / size:.2f} bytes per capture byte"


class TestFeasibility:
    def test_microsecond_clock_infeasible(self, tmp_path, capsys):
        code = main(
            ["feasibility", "--range", "175", "--clock", "1e-6", "-o", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "5.833e-07" in out
        assert "NOT feasible" in out

    def test_tenth_microsecond_clock_feasible(self, tmp_path, capsys):
        code = main(
            ["feasibility", "--range", "175", "--clock", "1e-7", "-o", str(tmp_path)]
        )
        assert code == 0
        assert "NOT" not in capsys.readouterr().out

    def test_nonpositive_range_exit_2(self, tmp_path):
        assert main(["feasibility", "--range", "0", "--clock", "1e-6", "-o", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--range", "nan"),
            ("--range", "inf"),
            ("--clock", "-1"),
            ("--clock", "nan"),
            ("--clock", "inf"),
            ("--c", "0"),
            ("--c", "-1"),
            ("--c", "nan"),
            ("--c", "inf"),
        ],
    )
    def test_bad_number_exit_2(self, tmp_path, capsys, flag, value):
        args = {"--range": "175", "--clock": "1e-6", "--c": "3e8", flag: value}
        out = tmp_path / "out"
        argv = ["feasibility", *(item for pair in args.items() for item in pair), "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not out.exists()

    def test_manifest_written(self, tmp_path):
        main(["feasibility", "--range", "175", "--clock", "1e-6", "-o", str(tmp_path)])
        record = json.loads((tmp_path / "feasibility_manifest.json").read_text())
        assert record["command"] == "feasibility"
        assert record["seed"] is None


def test_a_second_call_builds_no_parser(tmp_path, capsys, monkeypatch):
    # Building the parser takes about ten times as long as a parse, and the capture workloads call main per op.
    argv = ["feasibility", "--range", "175", "--clock", "1e-7", "-o", str(tmp_path)]
    assert main(argv) == cli.EXIT_OK
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    assert main(argv) == cli.EXIT_OK
    assert built == []
    # A usage error reads as that of a parser built afresh.
    with pytest.raises(SystemExit) as kept:
        main(["feasibility", "--range", "x"])
    kept_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser.__wrapped__().parse_args(["feasibility", "--range", "x"])
    assert kept.value.code == fresh.value.code == cli.EXIT_BAD_INPUT
    assert kept_err == capsys.readouterr().err



# Each command's input: valid text, then the bytes ff fe, which are not UTF-8.
NOT_UTF8 = {
    "analyze-log": (
        "analyze-log",
        b"1\t1.000000\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request\n"
        b"2\t1.000700\t10.0.0.2\t10.0.0.1\tICMP\tEcho (ping) reply\n"
        b"\xff\xfe junk\n",
    ),
    # 300 KiB of valid lines first: the capture's first pieces are parsed before the bad bytes are read.
    "analyze-log-after-300k": (
        "analyze-log",
        b"1\t1.000000\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request\n" * (300 * 1024 // 50)
        + b"\xff\xfe junk\n",
    ),
    "locate": ("locate", b"0 0 0 0 1\n1 10 0 0 1\n2 0 10 0 1\n# \xff\xfe\n"),
    "simulate": ("simulate", json.dumps(HEX_CONFIG).encode()[:-1] + b', "note": "\xff\xfe"}'),
}


@pytest.mark.parametrize("name", sorted(NOT_UTF8))
def test_non_utf8_input_exit_2(tmp_path, capsys, name):
    # Rejected, not decoded with replacements: analyze-log digests the text.
    command, data = NOT_UTF8[name]
    path = tmp_path / "input"
    path.write_bytes(data)
    out = tmp_path / "out"
    assert main([command, str(path), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: cannot read {re.escape(str(path))}: 'utf-8' codec can't decode [^\n]*\n", captured.err)
    assert not out.exists()


READ_INPUTS = {
    "lf": b"a\nb\n",
    "crlf": b"a\r\nb\r\n",
    "lone-cr": b"a\rb\r",
    "mixed": b"a\r\nb\rc\nd\r\r\ne\n\r",
    "bom": b"\xef\xbb\xbfa\r\nb",
    "non-ascii": "²  x\r\né\r".encode(),
    "empty": b"",
    "bad-byte-late": b"x\r\n" * 5000 + b"\xff\r\n",
    # Past the first block of ingest.CHUNK_CHARS bytes, so the error counts the blocks before it.
    "bad-byte-past-first-chunk": b"x\r\n" * 100_000 + b"\xff\r\n",
    "truncated": b"a\r\n\xc3",
}


def check_reads_like_read_text(path):
    """_read_input returns path.read_text(), and _read_chunks' pieces join to
    its UTF-8, each but the last ending at a line break and none empty;
    where read_text raises, both raise a ConfigError naming the same error."""
    try:
        expected = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        for read in (cli._read_input, lambda path: list(cli._read_chunks(path))):
            with pytest.raises(cli.ConfigError) as raised:
                read(path)
            assert str(raised.value) == f"cannot read {path}: {exc}"
    else:
        assert cli._read_input(path) == expected
        pieces = list(cli._read_chunks(path))
        assert b"".join(pieces) == expected.encode()
        assert all(piece.endswith(b"\n") for piece in pieces[:-1])
        assert all(pieces)


@pytest.mark.parametrize("name", sorted(READ_INPUTS))
def test_read_input_reads_like_read_text(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(READ_INPUTS[name])
    check_reads_like_read_text(path)


# Line ends, ASCII text, multi-byte characters, a BOM, and bytes that are not UTF-8.
READ_PARTS = st.one_of(
    st.sampled_from([b"\n", b"\r\n", b"\r", "é".encode(), "€".encode(), "😀".encode(), b"\xef\xbb\xbf"]),
    st.text(st.characters(max_codepoint=0x7E, exclude_characters="\r\n"), max_size=6).map(str.encode),
    st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xe2\x82", b"\xed\xa0\x80"]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.lists(READ_PARTS, max_size=40).map(b"".join), chunk_chars=st.integers(1, 64))
def test_read_chunks_reads_like_read_text_at_any_block_size(tmp_path_factory, data, chunk_chars):
    # Blocks of 1 to 64 bytes end inside \r\n pairs and multi-byte characters.
    path = tmp_path_factory.mktemp("read") / "input"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_CHARS", chunk_chars)
        check_reads_like_read_text(path)


# A request and its reply, so that analyze-log writes a manifest.
PAIR = "1\t1.000000\t10.0.0.1\t10.0.0.2\tICMP\tEcho (ping) request\n2\t1.000700\t10.0.0.2\t10.0.0.1\tICMP\tEcho (ping) reply\n"
DIGEST_CAPTURES = {
    "lf": PAIR.encode(),
    "crlf": PAIR.replace("\n", "\r\n").encode(),
    "lone-cr": PAIR.replace("\n", "\r").encode(),
    "bom": ("\ufeff\n" + PAIR).encode(),
    "non-ascii": ("h\xf4st \u2028 \xb2\r\n" + PAIR).encode(),
}


@pytest.mark.parametrize("name", sorted(DIGEST_CAPTURES))
def test_analyze_log_digests_the_text_read_text_reads(tmp_path, name):
    # The digest is defined on the text; analyze-log hashes the bytes it parses.
    path = tmp_path / "capture.log"
    path.write_bytes(DIGEST_CAPTURES[name])
    out = tmp_path / "out"
    assert main(["analyze-log", str(path), "-o", str(out)]) == 0
    log_sha256 = hashlib.sha256(path.read_text(encoding="utf-8").encode()).hexdigest()
    manifest = json.loads((out / "analyze_log_manifest.json").read_text())
    assert manifest["config_digest"] == cli.config_digest({"log_sha256": log_sha256, "baseline": None})


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    # A malformed line's text reaches discrepancies.txt; under the C locale
    # an output written in the locale's encoding could not hold it.
    log = tmp_path / "capture.log"
    log.write_text(PAIR + "3 2.0 h\xf4st x ICMP Echo (ping) r\xe9ply\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    locales = {
        "c": {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        "utf8": {"LC_ALL": "C.UTF-8", "LANG": "C.UTF-8", "PYTHONUTF8": "1"},
    }
    reports = {}
    for name, env in locales.items():
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "gsmloc.cli", "analyze-log", str(log), "-o", str(out)],
            env=dict(os.environ, PYTHONPATH=src, **env),
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        reports[name] = (out / "discrepancies.txt").read_bytes()
    assert reports["c"] == reports["utf8"]
    assert "line 3: trailing token 'r\xe9ply'".encode() in reports["c"]
