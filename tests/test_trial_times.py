"""tools/trial_times.py on the lossy hex config and on one where every trial fails."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("trial_times", ROOT / "tools" / "trial_times.py")
trial_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trial_times)

LOSSY_HEX = ROOT / "tests" / "data" / "simulate_lossy_hex.json"
ROWS = ["pick", "first_k_acks", "solve", "solve.hit", "solve.miss", "format_trace", "measurement_csv", "total", "no_fix"]


def _table(capsys, argv):
    assert trial_times.main(argv) == 0
    return {row[0]: row[1:] for row in (line.split() for line in capsys.readouterr().out.splitlines())}


def test_prints_each_stage_the_memo_counts_and_the_total(capsys):
    table = _table(capsys, [str(LOSSY_HEX), "--trials", "30"])
    assert list(table) == ROWS
    hits, misses, no_fix = int(table["solve.hit"][2]), int(table["solve.miss"][2]), int(table["no_fix"][0])
    assert hits + misses + no_fix == 30 and hits > 0 and misses > 0
    stages = [float(table[name][0]) for name in trial_times.STAGES]
    assert all(ms >= 0 for ms in stages)
    assert float(table["total"][0]) == pytest.approx(sum(stages), abs=1e-3)


def test_trials_that_all_fail_print_no_medians(tmp_path, capsys):
    config = dict(json.loads(LOSSY_HEX.read_text()), packet_loss=1.0)
    path = tmp_path / "lost.json"
    path.write_text(json.dumps(config))
    table = _table(capsys, [str(path), "--trials", "3"])
    assert table["no_fix"] == ["3", "trials"]
    assert table["solve.hit"] == ["-", "ms", "0", "trials"]
    assert all(table[name] == ["-", "ms"] for name in trial_times.STAGES)
    assert table["total"] == ["0.0000", "ms"]


def test_rejects_fewer_than_one_trial():
    with pytest.raises(SystemExit):
        trial_times.main([str(LOSSY_HEX), "--trials", "0"])
