"""Time each stage of one gsmloc command line, in one process.

    PYTHONPATH=src python3 tools/stage_times.py --rounds 15 analyze-log capture.log --baseline 0.0005

A stage is a function ``gsmloc.cli`` imports from another gsmloc module, or
``cli._write_all``, wrapped for the run and put back after it. ``cli.main``
runs the command into a temporary -o directory, stdout swallowed: to warm up,
--rounds counted times, then under tracemalloc. Per stage, in first-call
order: median ms and minor page faults, traced peak MB and calls per round;
then ``cli`` (main less the stages) and ``total``. A failed command prints
main's ``error:`` line and no table, and the tool exits with main's code; a
feasibility verdict (exit 1) prints the table.
"""

import argparse
import contextlib
import inspect
import io
import statistics
import sys
import tempfile
import time
import tracemalloc
from resource import RUSAGE_SELF, getrusage

from gsmloc import cli


def _peak_mb() -> float:
    """The traced peak in MB since the last call; 0 unless tracemalloc traces."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    return peak / 1e6


def measure(argv: list[str], rounds: int) -> tuple[int, dict[str, list]]:
    """main's exit code and, unless its warm-up fails, per stage then "cli": [ms, faults, peak MB, calls]."""
    rows: dict[str, list] = {}  # this round's; "cli" holds the peak outside stages, moved last at the end

    def wrap(name, fn):
        def timed(*args, **kwargs):
            rows["cli"][2] = max(rows["cli"][2], _peak_mb())
            row = rows.setdefault(name, [0.0, 0, 0.0, 0])
            faults, start = getrusage(RUSAGE_SELF).ru_minflt, time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[0] += (time.perf_counter() - start) * 1e3
                row[1] += getrusage(RUSAGE_SELF).ru_minflt - faults
                row[2] = max(row[2], _peak_mb())
                row[3] += 1

        return timed

    def one_round(out_dir: str) -> tuple[int, dict[str, list]]:
        rows.clear()
        rows["cli"] = [0.0, 0, 0.0, 1]
        faults, start = getrusage(RUSAGE_SELF).ru_minflt, time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "-o", out_dir])
        ms, faults = (time.perf_counter() - start) * 1e3, getrusage(RUSAGE_SELF).ru_minflt - faults
        outside_mb = max(rows.pop("cli")[2], _peak_mb())
        rows["cli"] = [ms - sum(r[0] for r in rows.values()), faults - sum(r[1] for r in rows.values()), outside_mb, 1]
        return code, dict(rows)

    # The stages: cli's globals that are functions of another gsmloc module, and _write_all.
    others = {name for name in sys.modules if name.startswith("gsmloc.")} - {cli.__name__}
    originals = {name: v for name, v in vars(cli).items() if inspect.isfunction(v) and v.__module__ in others}
    originals["_write_all"] = cli._write_all
    try:
        for name, fn in originals.items():
            setattr(cli, name, wrap(name, fn))
        with tempfile.TemporaryDirectory(prefix="stage_times_") as out_dir:
            code, _ = one_round(out_dir)
            if code not in (cli.EXIT_OK, cli.EXIT_INFEASIBLE):
                return code, {}
            counted = [one_round(out_dir)[1] for _ in range(rounds)]
            tracemalloc.start()
            try:
                table = one_round(out_dir)[1]
            finally:
                tracemalloc.stop()
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    for name, row in table.items():
        row[:2] = statistics.median(r[name][0] for r in counted), statistics.median_low(r[name][1] for r in counted)
    return code, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--rounds", type=int, default=15, help="counted rounds (default 15)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="a gsmloc command line, without -o")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    code, table = measure(args.command, args.rounds)
    if table:
        ms, faults, peaks, calls = zip(*table.values())
        table["total"] = [sum(ms), sum(faults), max(peaks), sum(calls)]
        print(f"{'stage':<20}{'ms':>11}{'faults':>8}{'peak MB':>9}{'calls':>7}")
        for name, (ms, faults, peak_mb, calls) in table.items():
            print(f"{name:<20}{ms:11.4f}{faults:8d}{peak_mb:9.2f}{calls:7d}")
    return code


if __name__ == "__main__":
    sys.exit(main())
