"""Verdicts of tools/bench_pairs.py on hand-made pairs; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
OPS = SPECS["ops_per_s"]  # higher is better, bound 0.2
P50 = SPECS["op_ms.p50"]  # lower is better, bound 0.25

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]  # median 100, Q3 - Q1 = 1.5


def shifted(values, by):
    return [v + by for v in values]


def test_clear_gain():
    entry = bench_pairs.compare(PARENT, shifted(PARENT, 40.0), OPS)
    assert entry["change_wins"] == 10
    assert entry["verdict"] == "gain"
    assert entry["parent"]["median"] == 100.0 and entry["change"]["median"] == 140.0


def test_gain_on_a_lower_is_better_metric():
    assert bench_pairs.compare(PARENT, shifted(PARENT, -40.0), P50)["verdict"] == "gain"
    assert bench_pairs.compare(PARENT, shifted(PARENT, 40.0), P50)["verdict"] == "worse"


def test_nine_wins_suffice_eight_do_not():
    change = shifted(PARENT, 10.0)
    change[0] = PARENT[0] - 1.0
    assert bench_pairs.compare(PARENT, change, OPS)["change_wins"] == 9
    assert bench_pairs.compare(PARENT, change, OPS)["verdict"] == "gain"
    change[1] = PARENT[1]  # a tie counts for neither side
    assert bench_pairs.compare(PARENT, change, OPS)["change_wins"] == 8
    assert bench_pairs.compare(PARENT, change, OPS)["verdict"] == "within"


def test_every_pair_won_but_inside_the_parent_spread():
    entry = bench_pairs.compare(PARENT, shifted(PARENT, 1.0), OPS)
    assert entry["change_wins"] == 10
    assert entry["verdict"] == "within"


@pytest.mark.parametrize("by, verdict", [(-19.0, "within"), (-21.0, "worse")])
def test_worse_means_beyond_the_bound(by, verdict):
    # ops_per_s has bound 0.2: a median 20% below the parent's is still within.
    assert bench_pairs.compare(PARENT, shifted(PARENT, by), OPS)["verdict"] == verdict


WIDE = [80.0, 120.0] * 5  # median 100, Q3 - Q1 = 40, wider than ops_per_s's bound of 20


def test_a_spread_wider_than_the_bound_is_unresolved():
    assert bench_pairs.compare(WIDE, WIDE, OPS)["verdict"] == "unresolved"
    entry = bench_pairs.compare(WIDE, [119.0] * 10, OPS)
    assert entry["change_wins"] == 5 and entry["verdict"] == "unresolved"
    assert bench_pairs.compare(WIDE, [125.0] * 10, P50)["verdict"] == "unresolved"


def test_a_change_beating_every_parent_run_is_resolved():
    # 121 beats every parent run, but by less than the parent's spread: no gain
    entry = bench_pairs.compare(WIDE, [121.0] * 10, OPS)
    assert entry["change_wins"] == 10 and entry["verdict"] == "within"
    assert bench_pairs.compare(WIDE, [79.0] * 10, P50)["verdict"] == "within"


def test_table_has_a_line_per_metric():
    results = {
        "locate-batch": {
            "pairs": 10,
            "metrics": {
                "ops_per_s": bench_pairs.compare(PARENT, shifted(PARENT, 40.0), OPS),
                "op_ms.p50": bench_pairs.compare(PARENT, PARENT, P50),
            },
        }
    }
    lines = bench_pairs.verdict_table(results).splitlines()
    assert lines[0].split() == ["workload", "metric", "parent", "change", "wins", "verdict"]
    assert lines[1].split() == ["locate-batch", "ops_per_s", "100", "140", "10/10", "gain"]
    assert lines[2].split() == ["locate-batch", "op_ms.p50", "100", "100", "0/10", "within"]


def runs(failed, attempted=1000, correct=True, n=10):
    return [{"correct": correct, "attempted": attempted, "failed": failed} for _ in range(n)]


def test_ops_counts_per_side():
    entry = bench_pairs.operations({"parent": runs(2), "change": runs(1)})
    assert entry["attempted"] == {"parent": 10000, "change": 10000}
    assert entry["failed_ops"] == {"parent": 20, "change": 10}
    assert entry["correct"] == {"parent": 10, "change": 10}
    assert entry["ops_verdict"] == "within"


@pytest.mark.parametrize(
    "change, verdict",
    [
        (runs(0), "within"),
        (runs(2), "within"),  # the same share
        (runs(4, attempted=2000), "within"),  # more failures, but a smaller share
        (runs(3), "worse"),
        (runs(7, attempted=3000), "worse"),  # 0.233% against 0.2%
        (runs(0)[:-1] + runs(0, correct=False, n=1), "worse"),
    ],
)
def test_ops_verdict_is_the_failed_share_and_correctness(change, verdict):
    assert bench_pairs.operations({"parent": runs(2), "change": change})["ops_verdict"] == verdict


def test_a_parent_run_that_is_not_correct_does_not_make_the_change_worse():
    parent = runs(0)[:-1] + runs(0, correct=False, n=1)
    assert bench_pairs.operations({"parent": parent, "change": runs(0)})["ops_verdict"] == "within"


def test_table_has_an_ops_line_per_workload():
    result = {
        "pairs": 10,
        **bench_pairs.operations({"parent": runs(0), "change": runs(3)}),
        "metrics": {"ops_per_s": bench_pairs.compare(PARENT, PARENT, OPS)},
    }
    lines = bench_pairs.verdict_table({"sim-sweep": result}).splitlines()
    assert lines[1].split() == ["sim-sweep", "ops_per_s", "100", "100", "0/10", "within"]
    assert lines[2].split() == ["sim-sweep", "failed_ops", "0/10000", "30/10000", "10/10", "worse"]


PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def traced_run(**values):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def test_per_layer_keeps_each_side_in_benchmark_order_without_a_verdict():
    runs = {
        "parent": traced_run(**{"simulator.us_per_event": 2.2, "simulator.run_scenario.self.s": 4e-4}),
        "change": traced_run(**{"simulator.run_scenario.self.s": 2e-4, "simulator.us_per_event": 0.8}),
    }
    entry = bench_pairs.per_layer(runs, PER_LAYER)
    assert list(entry) == ["simulator.run_scenario.self.s", "simulator.us_per_event"]
    assert entry["simulator.run_scenario.self.s"] == {"unit": "s", "better": "lower", "parent": 4e-4, "change": 2e-4}
    assert entry["simulator.us_per_event"] == {"unit": "us", "better": "lower", "parent": 2.2, "change": 0.8}


def test_per_layer_leaves_out_a_metric_one_side_lacks():
    runs = {
        "parent": traced_run(**{"simulator.events": 117.0, "simulator.render.s": 4.7e-4}),
        "change": traced_run(**{"simulator.events": 117.0}),
    }
    assert list(bench_pairs.per_layer(runs, PER_LAYER)) == ["simulator.events"]


@pytest.mark.parametrize("seeds", ["1,,2", "1,x", "", "1.5"])
def test_seeds_that_are_not_integers_are_a_usage_error(capsys, seeds):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--out", "unused.json", "--seeds", seeds])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.count("error:") == 1
    assert err.endswith(f"error: argument --seeds: expected comma-separated integers, got {seeds!r}\n")
