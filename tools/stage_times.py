"""Time each stage of ``gsmloc analyze-log`` on one capture, in one process.

Run from the repository root:

    PYTHONPATH=src python3 tools/stage_times.py capture.log --baseline 0.0005

The stages are the calls ``analyze-log`` makes, in its order: read (the
file's bytes, line ends translated), parse, pair, ``rtt_csv``, stats
(``rtt_stats`` and ``stats_summary``), discrepancies, ``propagation_csv``
(only with ``--baseline``), sha256 (the digest of the bytes read) and
write (the output files, into a temporary directory). Each round runs every stage once, in
that order, so the stages interleave; the first round warms the caches
and is not counted. The table gives each stage's median wall time in
milliseconds over the counted rounds, and their sum.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

from gsmloc import cli


def one_round(path: Path, baseline: float | None, out_dir: Path) -> dict[str, float]:
    """Run every stage once, as analyze-log runs it; each one's wall time in ms."""
    times = {}

    def timed(name, call, *args):
        start = time.perf_counter()
        result = call(*args)
        times[name] = (time.perf_counter() - start) * 1e3
        return result

    data = timed("read", cli._read_input, path)
    warnings: list[str] = []
    records = timed("parse", cli.parse_ping_log, data, warnings)
    samples = timed("pair", cli.pair_rtts, records)
    files = {
        "rtt.csv": timed("rtt_csv", cli.rtt_csv, samples),
        "stats.txt": timed("stats", lambda: cli.stats_summary(cli.rtt_stats(samples))),
        "discrepancies.txt": timed("discrepancies", cli.discrepancy_report, samples, warnings),
    }
    if baseline is not None:
        files["propagation.csv"] = timed("propagation_csv", cli.propagation_csv, samples, baseline)
    timed("sha256", lambda: hashlib.sha256(data).hexdigest())
    timed("write", cli._write_all, out_dir, files)
    return times


def stage_times(path: Path, baseline: float | None, rounds: int) -> dict[str, float]:
    """Each stage's median wall time in ms over ``rounds`` rounds after a warm-up round."""
    with tempfile.TemporaryDirectory(prefix="stage_times_") as out_dir:
        one_round(path, baseline, Path(out_dir))
        times = [one_round(path, baseline, Path(out_dir)) for _ in range(rounds)]
    return {name: statistics.median(round_[name] for round_ in times) for name in times[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("capture", type=Path, help="ping capture, as analyze-log reads it")
    parser.add_argument("--baseline", type=float, help="kernel delay in seconds; adds the propagation_csv stage")
    parser.add_argument("--rounds", type=int, default=15, help="counted rounds (default 15)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    medians = stage_times(args.capture, args.baseline, args.rounds)
    for name, ms in medians.items():
        print(f"{name:<16}{ms:9.3f} ms")
    print(f"{'total':<16}{sum(medians.values()):9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
