"""gsmloc benchmark: one workload, one seed, one line of JSON results.

Run from the repository root:

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each exists): capture-clean,
capture-lossy, sim-sweep, locate-batch. The package is not installed; the
program runs from ``src`` on PYTHONPATH, single-threaded, with BLAS threads
pinned to one.

Every time is scaled by the machine's speed at the moment it was measured,
gauged by a fixed reference loop on the same CPU (see ``speed.py``); the
raw times are in the line before the result.

``--trace 0`` prints the end-to-end metrics:
    setup_s      median over 12 fresh interpreters of the time the
                 ``import gsmloc.cli`` statement takes (cold start, before
                 any work; the fixed interpreter boot before it is left out)
    peak_rss_mb  peak resident memory of the workload process (the inputs
                 are made, and the oracle run, in a child process; the
                 info line gives the part held before the first operation)
    ops_per_s     operations with a result per second of operation time
                  (analyze-log runs, trials with a fix, or fixes)
    op_ms.p50     median latency of operations with a result
    op_ms.p90     90th percentile latency of operations with a result
    result_ratio  operations with a result over attempted ones; the rest
                  are checked no-fixes (see ``workloads.py``) or failures
When no operation returns a result, ``ops_per_s`` and ``result_ratio`` read
0 and the latencies are left out.

``--trace 1`` prints the per-layer metrics from a traced run: layer self
times (mean seconds per operation), counts (mean per operation), failure
ratios by reason, scaling-probe figures and the cost of tracing. Metrics of
a layer the workload does not reach read 0.

Each run checks every output; a wrong output makes ``correct`` false. The
line before the result holds the environment, the failures by reason, and
the no-fixes and accepted oddities by reason (``outcomes``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from speed import SpeedProbe, speed_factor

WORKLOADS = ("capture-clean", "capture-lossy", "sim-sweep", "locate-batch")
SETUP_SPAWNS = 6  # before the workload, and as many again after it
OUT_DIR = Path(".perfbench_out")


# Set for this process and everything it starts: the program runs from src,
# string hashes (and dict layouts) are the same every run, and BLAS runs on
# one thread.
PROGRAM_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


# Times the import inside a fresh interpreter.
COLD_IMPORT = """
import time
start = time.perf_counter()
import gsmloc.cli
print(time.perf_counter() - start)
"""


def setup_laps() -> list[tuple[float, float]]:
    """(raw, speed-scaled) seconds for fresh interpreters to import gsmloc.cli.

    Each lap is scaled by the reference timings just before and after it.
    """
    laps = []
    with SpeedProbe() as probe:
        before = probe.seconds(0.04)
        for _ in range(SETUP_SPAWNS):
            child = subprocess.run([sys.executable, "-c", COLD_IMPORT], check=True,
                                   capture_output=True, text=True, timeout=60)
            raw = float(child.stdout)
            after = probe.seconds(0.04)
            laps.append((raw, raw * speed_factor(before, after)))
            before = after
    return laps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not Path("src/gsmloc/cli.py").is_file():
        print("error: run from the repository root; src/gsmloc is missing", file=sys.stderr)
        return 2
    os.environ.update(PROGRAM_ENV)
    # Everything the benchmark starts inherits this: the program and the
    # speed probe run on the same CPU, so the probe gauges the CPU the
    # program runs on (see speed.py).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    laps = []
    try:
        # Cold starts are timed in two batches, either side of the workload,
        # because a shared host's speed can drift over seconds.
        if not args.trace:
            laps += setup_laps()
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            check=True, stdout=subprocess.DEVNULL, timeout=150,
        )
        if not args.trace:
            laps += setup_laps()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = json.loads(result_path.read_text())

    metrics = report["metrics"]
    raw = report.get("raw", {})
    if laps and report["correct"]:
        metrics["setup_s"] = (statistics.median(scaled for _, scaled in laps), "s")
        raw["setup_s"] = statistics.median(lap for lap, _ in laps)
    info = {k: report.get(k) for k in ("workload", "seed", "errors", "failures", "outcomes", "rss_before_ops_mb", "env", "trace_file")}
    info["raw"] = raw
    print(json.dumps(info))
    failed = sum(report["failures"].values())
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
