"""In-memory spans around calls into the program's layers.

Tracing works by replacing module attributes with wrappers: the benchmark
calls each layer through its module (``gsmloc.cli.main``,
``gsmloc.simulator.run_scenario``), and where one layer calls another inside
the package the wrapper goes on the name the caller resolves at call time
(``gsmloc.simulator.solve_position``, ``gsmloc.simulator.distance``), so spans
nest. Wrappers are installed only around traced operations and removed
after each one; the source files are never modified.

A span is ``[name, start_ns, end_ns, parent_index, op_id, error]``. Spans of
one operation share ``op_id``; set-up work runs with ``op_id`` -1.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # call counters and observed facts
        self.stash: dict = {}  # per-operation references left by hooks
        self.op = -1
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, on_call=None, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            record = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap ``fn`` so each call only increments ``counts[name]``.

        Used for leaf calls made hundreds of times per operation, where a
        span each would cost more than the call itself.
        """
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def target(self, module, attr, wrap):
        """Register ``module.attr`` to be replaced by ``wrap(original)``."""
        self._targets.append((module, attr, wrap(getattr(module, attr))))

    # -- installation ---------------------------------------------------

    def install(self, op: int) -> None:
        self.op = op
        self.stash = {}
        for module, attr, wrapper in self._targets:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- aggregation ----------------------------------------------------

    def self_times(self, weight: dict[int, float], setup: bool = False):
        """Per span name: self ns, inclusive ns and span count, summed.

        Covers the spans of operations, or with ``setup`` those of set-up.
        Each span's times are multiplied by ``weight[op]`` of its operation.
        """
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns, total_ns, calls = defaultdict(float), defaultdict(float), Counter()
        for index, (name, start, end, _, op, _) in enumerate(self.spans):
            if (op < 0) != setup or op not in weight:
                continue
            total_ns[name] += (end - start) * weight[op]
            self_ns[name] += (end - start - child_ns[index]) * weight[op]
            calls[name] += 1
        return self_ns, total_ns, calls

    def errors(self, prefix: str, error: str) -> int:
        """Operation spans whose name starts with ``prefix`` that raised ``error``."""
        return sum(1 for s in self.spans if s[4] >= 0 and s[0].startswith(prefix) and s[5] == error)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op, error in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op, "error": error}
                    )
                    + "\n"
                )
