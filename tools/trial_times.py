"""Time each stage of a warm ``gsmloc simulate`` trial on one config, in one process.

Run from the repository root:

    PYTHONPATH=src python3 tools/trial_times.py tests/data/simulate_lossy_hex.json --trials 400

The config is built as ``simulate`` builds it; its ``trials`` field is not
read. A warm-up trial (index 0) builds the config's exchange table, and
trials 1 to N are timed. The stages are the calls ``run_scenario`` and
``simulate`` make, in their order: pick (the trial's ``default_rng``, its
loss draws and its surviving slots), ``first_k_acks`` (the first three),
solve (the table's fix memo, which calls ``solve_position`` on a miss),
``format_trace`` and ``measurement_csv`` (with ``first_k_acks`` over every
ack, which it renders; as in ``simulate``, the ack count is the length of
the trace's ack slots, ``Trace.acked``). The table gives each stage's
median wall time in milliseconds over the timed trials, and their sum.
Below solve, ``solve.hit`` and ``solve.miss`` give the median over the
trials whose first three slots an earlier trial had, or had not, read, and
how many trials each counts. A trial that raises (fewer than 3 acks, a
collinear first three, a range that fails to convert) is counted under
``no_fix`` and adds no time to any median.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from gsmloc import cli, simulator
from gsmloc.errors import GsmlocError

STAGES = ("pick", "first_k_acks", "solve", "format_trace", "measurement_csv")


def one_trial(config: simulator.ScenarioConfig, trial_index: int) -> dict[str, float]:
    """Run one trial's stages, as simulate runs them; each one's wall time in ms, and "hit" for a memo hit."""
    times = {}

    def timed(name, call, *args):
        start = time.perf_counter()
        result = call(*args)
        times[name] = (time.perf_counter() - start) * 1e3
        return result

    exchange = config.exchange
    trace = timed("pick", simulator._picked_trace, config, exchange, trial_index)
    acks = timed("first_k_acks", simulator.first_k_acks, trace, 3)
    times["hit"] = tuple(acks.slots) in exchange.fixes
    timed("solve", exchange.solve, acks)
    timed("format_trace", simulator.format_trace, trace)

    def render():
        return simulator.measurement_csv(simulator.first_k_acks(trace, len(trace.acked)), config.mobile_true_position)

    timed("measurement_csv", render)
    return times


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def trial_times(config: simulator.ScenarioConfig, trials: int) -> tuple[list[tuple[str, float | None, int | None]], int]:
    """(name, median ms, trials counted) per stage over trials 1 to ``trials``, solve.hit and solve.miss after solve; and no_fix."""
    try:
        one_trial(config, 0)
    except GsmlocError:
        pass  # the table is built by then; the warm-up trial may have no fix
    timed, no_fix = [], 0
    for trial_index in range(1, trials + 1):
        try:
            timed.append(one_trial(config, trial_index))
        except GsmlocError:
            no_fix += 1
    rows = []
    for name in STAGES:
        rows.append((name, _median([t[name] for t in timed]), None))
        if name == "solve":
            for label, hit in (("solve.hit", True), ("solve.miss", False)):
                picked = [t["solve"] for t in timed if t["hit"] is hit]
                rows.append((label, _median(picked), len(picked)))
    return rows, no_fix


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("config", type=Path, help="scenario config, as simulate reads it")
    parser.add_argument("--trials", type=int, default=400, help="timed trials (default 400)")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    config, _ = cli.load_scenario_config(args.config)
    rows, no_fix = trial_times(config, args.trials)
    for name, ms, count in rows:
        shown = "-" if ms is None else f"{ms:.4f}"
        print(f"{name:<16}{shown:>9} ms" + ("" if count is None else f"  {count} trials"))
    total = sum(ms or 0.0 for name, ms, _ in rows if name in STAGES)
    print(f"{'total':<16}{total:9.4f} ms")
    print(f"{'no_fix':<16}{no_fix:>9} trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
