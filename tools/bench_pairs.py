"""Benchmark a change against its parent in alternating pairs; write BENCH_<n>.json.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \
        --seeds 2 --trace-seed 2 --out BENCH_9.json

Each commit is exported with ``git archive`` into its own temporary
directory, so uncommitted files never take part. For every workload in the
change's ``BENCHMARK.json``, pair i runs ``perfbench/run.py --trace 0``
once in each copy, the parent first on even i and the change first on odd
i, with seed ``seeds[i % len(seeds)]`` and the run length set in
``BENCHMARK.json``. The JSON holds, per workload, end-to-end metric and
side, the median, first and third quartiles (``statistics.quantiles``,
inclusive method) and the number of runs, and per metric the number of
pairs the change won (ties count for neither side) and a verdict, next to
the commits, seeds, host, and Python and numpy versions. A run that exits
nonzero or prints no result line stops the script. The verdicts are also
printed as a table on stdout:

    gain        the change won at least 9 in 10 of the pairs, and its
                median is better than the parent's by more than the
                parent's Q3 - Q1;
    worse       the change's median is worse than the parent's by more
                than the metric's ``bound`` in ``BENCHMARK.json``, a
                fraction of the parent's median;
    unresolved  neither of those, but the parent's own Q3 - Q1 is wider
                than that bound, so the runs cannot tell a change inside
                it from none, unless every change run beats every parent
                run;
    within      anything else.

Each workload also records, per side, its correct runs and its attempted
and failed operations, and gets an ``ops_verdict``: ``worse`` when the
change failed a larger share of its attempted operations than the parent
did, or when any change run is not correct; ``within`` otherwise. Its line
in the table shows failed/attempted operations per side and, under
``wins``, the change's correct runs.

With ``--trace-seed S``, each workload also gets one traced run
(``perfbench/run.py --trace 1``, seed S) per side, parent first, after its
pairs. Its per-layer metrics, those named under ``per_layer`` in
``BENCHMARK.json``, go under the workload's ``per_layer`` with the value
of each side. They get no verdict: one traced run is a breakdown of where
the time goes, not a gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy  # a dependency of the benchmarked program; its version is recorded

SIDES = ("parent", "change")


def export(commit: str, dest: Path) -> str:
    """Write the tree of ``commit`` into ``dest``; return the full commit id."""
    commit_id = subprocess.run(
        ["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit_id], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit_id


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its result line."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} in {tree} exited {child.returncode}: {child.stderr.strip()}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def compare(parent: list[float], change: list[float], spec: dict) -> dict:
    """One metric's paired runs, pair i being (parent[i], change[i]), as a report entry.

    spec is the metric's ``end_to_end`` entry in ``BENCHMARK.json``.
    """
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    sides = {"parent": summary(parent), "change": summary(change)}
    gained = sign * (sides["change"]["median"] - sides["parent"]["median"])
    spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    bound = spec["bound"] * abs(sides["parent"]["median"])
    if wins >= math.ceil(0.9 * len(parent)) and gained > spread:
        verdict = "gain"
    elif gained < -bound:
        verdict = "worse"
    elif spread > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"unit": spec["unit"], "better": spec["better"], **sides, "change_wins": wins, "verdict": verdict}


def operations(runs: dict) -> dict:
    """A workload's operation counts per side and its ops verdict.

    runs maps each side to its runs' result lines.
    """
    totals = {
        key: {side: sum(run[field] for run in runs[side]) for side in SIDES}
        for key, field in (("correct", "correct"), ("attempted", "attempted"), ("failed_ops", "failed"))
    }
    failed, attempted = totals["failed_ops"], totals["attempted"]
    # The failed shares compared without a division, which a side with no attempted op would fail.
    larger_share = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    worse = larger_share or not all(run["correct"] for run in runs["change"])
    return {**totals, "ops_verdict": "worse" if worse else "within"}


def per_layer(runs: dict, specs: list[dict]) -> dict:
    """Each per-layer metric of one traced run per side, without a verdict.

    runs maps each side to its traced run's result line; specs is the
    ``per_layer`` list of ``BENCHMARK.json``. A metric missing from either
    run is left out.
    """
    return {
        spec["name"]: {
            "unit": spec["unit"],
            "better": spec["better"],
            **{side: runs[side]["metrics"][spec["name"]]["value"] for side in SIDES},
        }
        for spec in specs
        if all(spec["name"] in runs[side]["metrics"] for side in SIDES)
    }


def verdict_table(results: dict) -> str:
    """The verdicts of a report's ``workloads`` section, one metric a line.

    A workload with an ops verdict gets one more line; reports written
    before it existed (BENCH_6.json, BENCH_7.json) have none.
    """
    lines = [f"{'workload':<14} {'metric':<12} {'parent':>12} {'change':>12} {'wins':>7}  verdict"]
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            lines.append(
                f"{workload:<14} {name:<12} {metric['parent']['median']:>12.5g}"
                f" {metric['change']['median']:>12.5g} {metric['change_wins']:>3}/{result['pairs']:<3}"
                f"  {metric['verdict']}"
            )
        if "ops_verdict" in result:
            failed = {side: f"{result['failed_ops'][side]}/{result['attempted'][side]}" for side in SIDES}
            lines.append(
                f"{workload:<14} {'failed_ops':<12} {failed['parent']:>12} {failed['change']:>12}"
                f" {result['correct']['change']:>3}/{result['pairs']:<3}  {result['ops_verdict']}"
            )
    return "\n".join(lines) + "\n"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", required=True, help="commit of the change side")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds, used in turn")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per side per workload on this seed")
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
        trees = {side: Path(workdir) / side for side in SIDES}
        commits = {}
        for side, commit in zip(SIDES, (args.parent, args.change)):
            trees[side].mkdir()
            commits[side] = export(commit, trees[side])
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        end_to_end = {metric["name"]: metric for metric in benchmark["end_to_end"]}

        results = {}
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[side].append(run_once(trees[side], workload, seed, benchmark["run_seconds"]))
                    print(f"{workload} pair {i} {side}: correct={runs[side][-1]['correct']}", file=sys.stderr)
            metrics = {}
            for name, spec in end_to_end.items():
                values = {
                    side: [run["metrics"][name]["value"] for run in runs[side] if name in run["metrics"]]
                    for side in SIDES
                }
                if not all(len(v) == args.pairs for v in values.values()):
                    continue  # a metric left out of some run, e.g. latencies with no result
                metrics[name] = compare(values["parent"], values["change"], spec)
            results[workload] = {"pairs": args.pairs, **operations(runs), "metrics": metrics}
            if args.trace_seed is not None:
                traced = {
                    side: run_once(trees[side], workload, args.trace_seed, benchmark["run_seconds"], trace=1)
                    for side in SIDES
                }
                results[workload]["per_layer"] = per_layer(traced, benchmark["per_layer"])

    report = {
        "commits": commits,
        "seeds": seeds,
        "trace_seed": args.trace_seed,
        "run_seconds": benchmark["run_seconds"],
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "release": platform.release(),
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive')",
        "workloads": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(verdict_table(results), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
