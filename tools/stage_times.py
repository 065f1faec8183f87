"""Time each stage of ``gsmloc analyze-log`` on one capture, in one process.

Run from the repository root:

    PYTHONPATH=src python3 tools/stage_times.py capture.log --baseline 0.0005

The stages are the calls ``analyze-log`` makes, in its order: read+parse
(the file read a block at a time and decoded, its line ends translated,
each piece added to the sha256 digest and parsed), pair,
``rtt_csv``, stats (``rtt_stats`` and ``stats_summary``), discrepancies,
``propagation_csv`` (only with ``--baseline``) and write (the output
files, into a temporary directory). As in ``analyze-log``, the parsed log
is dropped once it is paired. Each round runs every stage once, in that
order, so the stages interleave; the first round warms the caches and is
not counted. The table gives each stage's median wall time in
milliseconds over the counted rounds, and their sum. One more round then
runs under tracemalloc, apart from the timed ones so that tracing does
not slow them: it gives each stage's peak of traced memory in MB, what the
stages before it still hold included, and the total line the highest.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from gsmloc import cli


def one_round(path: Path, baseline: float | None, out_dir: Path) -> dict[str, tuple[float, float]]:
    """Run every stage once, as analyze-log runs it: each one's wall time in
    ms and its peak of traced memory in MB, 0 unless tracemalloc traces."""
    stages = {}

    def timed(name, call, *args):
        tracemalloc.reset_peak()
        start = time.perf_counter()
        result = call(*args)
        stages[name] = ((time.perf_counter() - start) * 1e3, tracemalloc.get_traced_memory()[1] / 1e6)
        return result

    def read_and_parse():
        digest = hashlib.sha256()
        records = cli.parse_ping_log(cli._hashed(cli._read_chunks(path), digest), warnings)
        digest.hexdigest()
        return records

    warnings: list[str] = []
    records = timed("read+parse", read_and_parse)
    samples = timed("pair", cli.pair_rtts, records)
    del records
    files = {
        "rtt.csv": timed("rtt_csv", cli.rtt_csv, samples),
        "stats.txt": timed("stats", lambda: cli.stats_summary(cli.rtt_stats(samples))),
        "discrepancies.txt": timed("discrepancies", cli.discrepancy_report, samples, warnings),
    }
    if baseline is not None:
        files["propagation.csv"] = timed("propagation_csv", cli.propagation_csv, samples, baseline)
    timed("write", cli._write_all, out_dir, files)
    return stages


def stage_times(path: Path, baseline: float | None, rounds: int) -> dict[str, tuple[float, float]]:
    """Each stage's median wall time in ms over ``rounds`` rounds after a
    warm-up round, and its traced peak in MB from one more, traced round."""
    with tempfile.TemporaryDirectory(prefix="stage_times_") as out_dir:
        one_round(path, baseline, Path(out_dir))
        times = [one_round(path, baseline, Path(out_dir)) for _ in range(rounds)]
        tracemalloc.start()
        try:
            traced = one_round(path, baseline, Path(out_dir))
        finally:
            tracemalloc.stop()
    return {name: (statistics.median(round_[name][0] for round_ in times), traced[name][1]) for name in traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("capture", type=Path, help="ping capture, as analyze-log reads it")
    parser.add_argument("--baseline", type=float, help="kernel delay in seconds; adds the propagation_csv stage")
    parser.add_argument("--rounds", type=int, default=15, help="counted rounds (default 15)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    stages = stage_times(args.capture, args.baseline, args.rounds)
    for name, (ms, peak_mb) in stages.items():
        print(f"{name:<16}{ms:9.3f} ms{peak_mb:9.2f} MB peak")
    total_ms = sum(ms for ms, _ in stages.values())
    print(f"{'total':<16}{total_ms:9.3f} ms{max(peak for _, peak in stages.values()):9.2f} MB peak")
    return 0


if __name__ == "__main__":
    sys.exit(main())
