"""tools/stage_times.py on a small generated capture."""

import importlib.util
from pathlib import Path

import pytest

from gsmloc.ingest import REPLY, REQUEST, PingRecord, format_ping_record

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("stage_times", ROOT / "tools" / "stage_times.py")
stage_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_times)

STAGES = ["read+parse", "pair", "rtt_csv", "stats", "discrepancies", "write"]


@pytest.fixture
def capture(tmp_path):
    lines = []
    for i in range(50):
        lines.append(format_ping_record(PingRecord(2 * i, i * 10**6, "10.0.0.1", "10.0.0.2", REQUEST)))
        lines.append(format_ping_record(PingRecord(2 * i + 1, i * 10**6 + 700 + i, "10.0.0.2", "10.0.0.1", REPLY)))
    path = tmp_path / "capture.log"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("baseline", [None, 0.0005])
def test_prints_each_stage_and_the_total(capture, capsys, baseline):
    argv = [str(capture), "--rounds", "2"] + ([] if baseline is None else ["--baseline", str(baseline)])
    assert stage_times.main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    expected = STAGES if baseline is None else STAGES[:5] + ["propagation_csv"] + STAGES[5:]
    assert [row[0] for row in rows] == expected + ["total"]
    # name, median ms, "ms", traced peak, "MB", "peak"
    assert all(row[2] == "ms" and float(row[1]) >= 0 and row[4:] == ["MB", "peak"] for row in rows)
    assert all(float(row[3]) > 0 for row in rows)
    total = float(rows[-1][1])
    assert total == pytest.approx(sum(float(row[1]) for row in rows[:-1]), abs=0.01)
    assert float(rows[-1][3]) == max(float(row[3]) for row in rows[:-1])
