"""tools/stage_times.py on analyze-log, simulate and feasibility, on failed runs and on the README's lines."""

import contextlib
import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gsmloc import cli, ingest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("stage_times", ROOT / "tools" / "stage_times.py")
stage_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_times)

TOWER1 = str(ROOT / "data" / "tower1_ping.log")
ANALYZE = ["parse_ping_log", "pair_rtts", "rtt_csv", "rtt_stats", "stats_summary", "discrepancy_report"]
README = (ROOT / "README.md").read_text(encoding="utf-8").split("## Benchmark\n")[1].split("\n## ")[0]
README_LINES = [line for line in README.splitlines() if line.startswith("PYTHONPATH=src python3 tools/stage_times.py")]


def _rows(capsys, argv, code=cli.EXIT_OK):
    """The printed rows' names, once the columns' types and the total's sums are checked."""
    assert stage_times.main(["--rounds", "2", *argv]) == code
    lines = capsys.readouterr().out.splitlines()[1:]  # below the header
    table = {row[0]: (float(row[1]), int(row[2]), float(row[3]), int(row[4])) for row in map(str.split, lines)}
    *rows, total = table.values()
    assert all(ms >= 0 and faults >= 0 and calls >= 1 for ms, faults, _, calls in rows)
    assert total[0] == pytest.approx(sum(row[0] for row in rows), abs=0.01)
    assert total[1:] == (sum(row[1] for row in rows), max(row[2] for row in rows), sum(row[3] for row in rows))
    return list(table)


@pytest.mark.parametrize("baseline", [None, "0.0005"])
def test_prints_each_stage_and_the_total(capsys, baseline):
    flags = [] if baseline is None else ["--baseline", baseline]
    stages = ANALYZE if baseline is None else ["check_kernel_delay", *ANALYZE, "propagation_csv"]
    assert _rows(capsys, ["analyze-log", TOWER1, *flags]) == [*stages, "_write_all", "cli", "total"]


def test_simulate_rows(capsys):
    rows = ["hex_cell_layout", "run_scenario", "first_k_acks", "format_trace", "measurement_csv", "_write_all", "cli"]
    assert _rows(capsys, ["simulate", str(ROOT / "tests" / "data" / "simulate_lossy_hex.json")]) == [*rows, "total"]


def test_a_feasibility_verdict_prints_the_table(capsys):
    argv = ["feasibility", "--range", "1", "--clock", "1e-3"]
    assert _rows(capsys, argv, cli.EXIT_INFEASIBLE) == ["required_precision", "_write_all", "cli", "total"]


def test_a_failed_command_prints_its_error_line_and_no_table(capsys):
    assert stage_times.main(["analyze-log", "/nonexistent.log"]) == cli.EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: cannot read /nonexistent.log: ")


@pytest.mark.parametrize("argv", [["analyze-log", TOWER1], ["analyze-log", "/nonexistent.log"], ["analyze-log"]])
def test_every_wrapped_global_is_put_back(capsys, argv):
    before = dict(vars(cli))
    with pytest.raises(SystemExit) if argv == ["analyze-log"] else contextlib.nullcontext():
        stage_times.main(["--rounds", "1", *argv])
    assert all(vars(cli)[name] is value for name, value in before.items())
    assert cli.parse_ping_log is ingest.parse_ping_log


def test_rejects_fewer_than_one_round():
    with pytest.raises(SystemExit):
        stage_times.main(["--rounds", "0", "feasibility", "--range", "1", "--clock", "1e-9"])


def test_the_readme_shows_the_tool():
    assert len(README_LINES) >= 2


@pytest.mark.parametrize("line", README_LINES)
def test_each_readme_line_runs_with_one_round(line):
    script, *command = shlex.split(line)[2:]
    command = command[2:] if command[:1] == ["--rounds"] else command
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, script, "--rounds", "1", *command], cwd=ROOT, env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
