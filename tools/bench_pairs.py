"""Benchmark a change against its parent in alternating pairs; write BENCH_<n>.json.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \
        --seeds 2 --out BENCH_6.json

Each commit is exported with ``git archive`` into its own temporary
directory, so uncommitted files never take part. For every workload in the
change's ``BENCHMARK.json``, pair i runs ``perfbench/run.py --trace 0``
once in each copy, the parent first on even i and the change first on odd
i, with seed ``seeds[i % len(seeds)]`` and the run length set in
``BENCHMARK.json``. The JSON holds, per workload, end-to-end metric and
side, the median, first and third quartiles (``statistics.quantiles``,
inclusive method) and the number of runs, and per metric the number of
pairs the change won (ties count for neither side), next to the commits,
seeds, host, and Python and numpy versions. A run that exits nonzero or
prints no result line stops the script.
"""

from __future__ import annotations

import argparse
import json
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


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``; its result line."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
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
                sign = 1 if spec["better"] == "higher" else -1
                wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
                metrics[name] = {
                    "unit": spec["unit"],
                    "better": spec["better"],
                    **{side: summary(values[side]) for side in SIDES},
                    "change_wins": wins,
                }
            results[workload] = {
                "pairs": args.pairs,
                "correct": {side: sum(run["correct"] for run in runs[side]) for side in SIDES},
                "failed_ops": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
                "metrics": metrics,
            }

    report = {
        "commits": commits,
        "seeds": seeds,
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
