"""A fixed pure-Python reference loop that gauges the machine's current speed.

On a shared host the same work can take twice as long from one few-second
stretch to the next, and every Python workload here slows down together
with this loop. The benchmark times the loop between slices of the
workload and scales each slice's times by ``speed_factor`` =
``REFERENCE_S`` / (measured loop time), so every reported time reads as if
the machine ran at the speed where the loop takes ``REFERENCE_S``. The raw
times are reported too.

The loop runs in a child process of its own (``SpeedProbe``), while the
process that asked waits for the answer. It shares no heap, garbage
collector or interpreter state with the program under test, so a program
change, such as a bigger working set or a cache, cannot move the loop's
time, and moves the scaled times in full.

The benchmark pins itself, and so the program and the probe, to one CPU,
so that the probe gauges the CPU the program runs on. Unpinned, the
probe's speed tracked the program's poorly on the capture workloads, and
scaling widened their spread across seeds instead of narrowing it.

The loop mixes the kinds of work the workloads do: splitting and parsing
text, building small objects, sorting, float arithmetic, dict lookups,
numpy calls on tiny arrays, and a scan over tens of thousands of objects
in shuffled memory order, the way pairing scans a parsed capture.

Run as a script, this file is the probe: for each line on stdin holding a
budget in seconds it prints the mean loop time over that budget.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Nominal seconds of one reference_loop() call: about its typical time in the
# probe on the 2-vCPU x86-64 machine where the benchmark was defined, so
# scaled times there read close to wall time.
REFERENCE_S = 0.031
REFERENCE_SHARE = 0.25  # reference time per unit of measured time
_ROWS = 1_200
_SOLVES = 120
_POOL_ROWS = 60_000


@dataclass(frozen=True)
class _Row:
    seq: int
    t: float
    tag: str


_pool: list[_Row] = []  # built on first use, then only read


def reference_loop() -> float:
    if not _pool:
        _pool.extend(_Row(i, float(i), f"t{i % 7}") for i in range(_POOL_ROWS))
        random.Random(0).shuffle(_pool)
    hits = 0
    for r in _pool:
        if r.tag == "t3" and r.seq > hits:
            hits += 1
    rows = []
    for i in range(_ROWS):
        seq, t, tag = f"{i}\t{i * 7919 % 100_003}.{i % 997:06d}\tab{i % 13}".split("\t")
        rows.append(_Row(int(seq), float(t), tag))
    rows.sort(key=lambda r: (r.t, r.seq))
    by_tag: dict[str, float] = {}
    for r in rows:
        by_tag[r.tag] = by_tag.get(r.tag, 0.0) + math.hypot(r.t, r.seq) / (1.0 + r.seq)
    total = sum(by_tag.values()) + hits
    a = np.array([[1.0, 2.0, 0.5], [-0.5, 1.0, 3.0]])
    for k in range(_SOLVES):
        b = np.array([k, 1.0 - k])
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        total += float(np.linalg.norm(np.cross(a[0], x)))
    return total


def reference_seconds(budget: float) -> float:
    """Mean wall time of one reference loop, over loops run for ``budget`` seconds (at least one)."""
    loops = 0
    start = perf_counter()
    while True:
        reference_loop()
        loops += 1
        elapsed = perf_counter() - start
        if elapsed >= budget:
            return elapsed / loops


def speed_factor(before: float, after: float) -> float:
    """Scale for times measured between two reference timings."""
    return 2.0 * REFERENCE_S / (before + after)


class SpeedProbe:
    """The reference loop in a child process, timed on request."""

    def __enter__(self) -> "SpeedProbe":
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        self.seconds(0.0)  # waits until the child has paid numpy's lazy set-up
        return self

    def seconds(self, budget: float) -> float:
        """Mean wall time of one reference loop, as ``reference_seconds(budget)``."""
        self._child.stdin.write(f"{budget!r}\n")
        self._child.stdin.flush()
        answer = self._child.stdout.readline()
        if not answer:
            raise RuntimeError("the speed probe exited")
        return float(answer)

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


def serve() -> None:
    reference_loop()
    for line in sys.stdin:
        print(reference_seconds(float(line)), flush=True)


if __name__ == "__main__":
    serve()
