"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` with ``src`` on PYTHONPATH and BLAS threads pinned to
one. Untraced (``--trace 0``), it runs the closed loop for ``--seconds`` of
wall time and reports the end-to-end figures. Traced (``--trace 1``), it
runs every operation twice, once bare and once with layer spans installed,
alternating which goes first, so the tracing overhead is the ratio of the
two; then it runs the workload's scaling probes and writes the spans to a
JSON-lines file next to the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy

from speed import REFERENCE_SHARE, SpeedProbe, speed_factor
from tracer import Tracer
from workloads import WORKLOADS, OpFailed, WrongOutput, checking

SLICE_S = 0.1  # seconds of operations between two timings of the reference loop
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics that are mean self seconds per operation, by span name.
SELF_SECONDS = {
    "ingest.parse_ping_log.s": "ingest.parse_ping_log",
    "ingest.pair_rtts.s": "ingest.pair_rtts",
    "ingest.render.s": "ingest.render",
    "cli.self.s": "cli.analyze_log",
    "simulator.run_scenario.self.s": "simulator.run_scenario",
    "simulator.first_k_acks.s": "simulator.first_k_acks",
    "simulator.render.s": "simulator.render",
    "trilateration.solve_position.s": "trilateration.solve_position",
    "trilateration.multilaterate_lsq.s": "trilateration.multilaterate_lsq",
}
# Per-layer metrics that are mean counts per operation.
PER_OP_COUNTS = (
    "ingest.records",
    "ingest.malformed",
    "ingest.missing_replies",
    "ingest.negative_intervals",
    "cli.bytes_written",
    "simulator.events",
    "simulator.acks_lost",
    "timing.conversions",
    "geometry.distance.calls",
    "trilateration.z_clamped",
)


def environment() -> dict:
    commit = "unknown"
    if Path(".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in PIN_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, with statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def attempt(run, i: int):
    """One operation: (result, None), or (None, the exception it raised)."""
    try:
        return run(i), None
    except WrongOutput:
        raise
    except Exception as exc:  # judged by settle(), after the timing
        return None, exc


def settle(workload, i: int, result, exc, failures: Counter, outcomes: Counter) -> bool:
    """Check one operation's outcome; True when it returned a result.

    A checked no-fix is tallied in ``outcomes`` by reason, as is an accepted
    oddity of a result; any other raise or a nonzero exit is a failure,
    tallied in ``failures``.
    """
    with checking(f"op {i}"):
        if exc is None:
            note = workload.check(i, result)
        else:
            note = workload.no_fix(i, exc)
            if note is None:
                failures[str(exc) if isinstance(exc, OpFailed) else type(exc).__name__] += 1
                return False
    if note is not None:
        outcomes[note] += 1
    return exc is None


def closed_loop(seconds: float, step, probe: SpeedProbe) -> list[float]:
    """Call ``step(i)`` for i = 0, 1, ... for ``seconds`` of wall time.

    The run is cut into slices of about SLICE_S; the reference loop is timed
    between slices, and each operation gets the speed factor of its slice
    (see speed.py). Returns the factor per operation.
    """
    factors = array("d")
    deadline = perf_counter() + seconds
    before = probe.seconds(REFERENCE_SHARE * SLICE_S)
    i = 0
    while perf_counter() < deadline:
        slice_start = perf_counter()
        slice_end = min(deadline, slice_start + SLICE_S)
        first = i
        while True:
            step(i)
            i += 1
            if perf_counter() >= slice_end:
                break
        after = probe.seconds(min(0.1, REFERENCE_SHARE * (perf_counter() - slice_start)))
        factors.extend([speed_factor(before, after)] * (i - first))
        before = after
    return factors


def untraced(workload, seconds: float, probe: SpeedProbe) -> dict:
    failures, outcomes = Counter(), Counter()
    # compact arrays, so that bookkeeping barely moves peak memory
    elapsed_ns, ok_flags = array("q"), array("b")

    def step(i):
        start = perf_counter_ns()
        result, exc = attempt(workload.run, i)
        elapsed_ns.append(perf_counter_ns() - start)
        ok_flags.append(settle(workload, i, result, exc, failures, outcomes))

    factors = closed_loop(seconds, step, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = list(zip(elapsed_ns, ok_flags))
    scaled_total = sum(ns * f for ns, f in zip(elapsed_ns, factors)) / 1e9
    raw_total = sum(elapsed_ns) / 1e9
    raw_ms = [ns / 1e6 for ns, ok in ops if ok]
    scaled_ms = [ns * f / 1e6 for (ns, ok), f in zip(ops, factors) if ok]
    n_ok = len(raw_ms)
    metrics = {
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (n_ok / scaled_total, "1/s"),
        "result_ratio": (n_ok / len(ops), "ratio"),
    }
    raw = {"speed_factor.median": statistics.median(factors), "ops_per_s": n_ok / raw_total}
    if n_ok:  # latencies are of operations with a result; with none, they are left out
        metrics["op_ms.p50"] = (statistics.median(scaled_ms), "ms")
        metrics["op_ms.p90"] = (percentile(scaled_ms, 90), "ms")
        raw["op_ms.p50"] = statistics.median(raw_ms)
        raw["op_ms.p90"] = percentile(raw_ms, 90)
    return {"attempted": len(ops), "failures": failures, "outcomes": outcomes, "metrics": metrics, "raw": raw}


def traced(workload, tracer: Tracer, seconds: float, setup_factor: float, probe: SpeedProbe) -> dict:
    failures, outcomes = Counter(), Counter()
    bare_ns = [0]
    root = tracer.span("op", workload.run)

    def step(i):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install(i)
                try:
                    result, exc = attempt(root, i)
                finally:
                    tracer.uninstall()
            else:
                start = perf_counter_ns()
                attempt(workload.run, i)
                bare_ns[0] += perf_counter_ns() - start
        workload.observe(tracer)
        settle(workload, i, result, exc, failures, outcomes)

    factors = closed_loop(seconds, step, probe)
    n = len(factors)
    weight = dict(enumerate(factors))
    weight[-1] = setup_factor
    self_ns, total_ns, calls = tracer.self_times(weight)
    setup_ns, _, _ = tracer.self_times(weight, setup=True)
    counts = tracer.counts
    metrics = {name: (self_ns[span] / n / 1e9, "s") for name, span in SELF_SECONDS.items()}
    metrics.update({name: (counts[name] / n, "count") for name in PER_OP_COUNTS})
    metrics["cli.analyze_log.s"] = (total_ns["cli.analyze_log"] / n / 1e9, "s")
    metrics["cli.bytes_written"] = (counts["cli.bytes_written"] / n, "B")
    metrics["ingest.valid_ratio"] = (counts["ingest.valid"] / max(1, counts["ingest.samples"]), "ratio")
    metrics["geometry.hex_cell_layout.s"] = (setup_ns["geometry.hex_cell_layout"] / 1e9, "s")
    for span in ("trilateration.solve_position", "trilateration.multilaterate_lsq"):
        metrics[span + ".calls"] = (calls[span] / n, "count")
    metrics["trilateration.degenerate"] = (
        tracer.errors("trilateration.", "DegenerateGeometryError") / n, "count")
    metrics["simulator.no_fix.lt3_acks"] = (outcomes["lt3_acks"] / n, "ratio")
    metrics["simulator.no_fix.collinear"] = (outcomes["collinear"] / n, "ratio")
    metrics["trilateration.z_off_plane"] = (outcomes["z_off_plane"] / n, "ratio")
    # both sides of each pair ran within the same slice, so raw times compare
    traced_raw_ns = sum(s[2] - s[1] for s in tracer.spans if s[0] == "op")
    metrics["trace.overhead_ratio"] = (traced_raw_ns / bare_ns[0], "ratio")
    metrics["trace.uncovered_share"] = (self_ns["op"] / total_ns["op"], "ratio")

    before = probe.seconds(0.05)
    probes = workload.probes()
    factor = speed_factor(before, probe.seconds(0.05))
    metrics["ingest.pair_rtts.scaling_exp"] = (probes.get("ingest.pair_rtts.scaling_exp", 0.0), "1")
    metrics["simulator.us_per_event"] = (probes.get("simulator.us_per_event", 0.0) * factor, "us")
    raw = {"speed_factor.median": statistics.median(factors)}
    return {"attempted": n, "failures": failures, "outcomes": outcomes, "metrics": metrics, "raw": raw}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    cls, options = WORKLOADS[args.workload]
    tracer = Tracer()
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=args.result.parent))
    report = {"workload": args.workload, "seed": args.seed, "correct": True, "errors": []}
    try:
        with SpeedProbe() as probe:
            if args.trace:
                cls.trace_targets(tracer)
                tracer.install(-1)  # set-up spans, such as laying out hex cells
            before = probe.seconds(0.05)
            try:
                workload = cls(args.seed, workdir, **options)
            finally:
                tracer.uninstall()
            setup_factor = speed_factor(before, probe.seconds(0.05))
            tracer.counts.clear()
            # memory held before any operation: interpreter, imports, inputs
            # and the expected outputs the checks compare against
            report["rss_before_ops_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # warm-up: the first call pays for lazy imports and cold caches
            attempt(workload.run, 0)
            if args.trace:
                report.update(traced(workload, tracer, args.seconds, setup_factor, probe))
                trace_path = args.result.with_suffix(".spans.jsonl")
                tracer.write(trace_path)
                report["trace_file"] = str(trace_path)
            else:
                report.update(untraced(workload, args.seconds, probe))
    except WrongOutput as exc:
        report.update(correct=False, errors=[str(exc)], attempted=1, failures={}, outcomes={}, metrics={})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = environment()
    args.result.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
