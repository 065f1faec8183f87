"""The four benchmark workloads: inputs, one operation, and its output check.

Each workload is a closed loop with one client: the worker calls ``run(i)``
for i = 0, 1, 2, ... and each call starts after the previous one returned.
Inputs come only from the seed. ``run`` is the timed operation; ``check``
verifies its outputs afterwards and raises ``WrongOutput`` on a mismatch;
it may return the name of an accepted oddity, which the benchmark tallies.

Some operations end, by the program's documented contract, in an error
instead of a result: a trial with fewer than three acks, a first three
acks from collinear towers, least squares over coplanar towers. Such an
operation is a no-fix, not a failure: ``no_fix(i, exc)`` verifies that the
inputs justify the error and names the reason; the benchmark tallies the
reasons and reports the share of operations that return a result, so a
change that turns no-fixes into fixes shows. An error the inputs do not
justify is a wrong output. Any other raise, or a nonzero exit, is a failed
operation. A wrong output fails the whole run.

Why these four:
    capture-clean   the common analyst path, ``analyze-log`` on in-order
                    captures; parsing dominates.
    capture-lossy   the same with missing replies, where pairing shifts and
                    ``pair_rtts`` turns quadratic.
    sim-sweep       per-trial work of ``simulate``; the event engine and trace
                    rendering dominate and ingest is absent.
    locate-batch    direct solver calls; the only workload the trilateration
                    layer dominates.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import gsmloc.cli
import gsmloc.geometry
import gsmloc.ingest
import gsmloc.simulator
import gsmloc.trilateration
from gsmloc.errors import DegenerateGeometryError, InsufficientMeasurementsError
from gsmloc.geometry import Point3, TowerSite
from gsmloc.simulator import EventKind, ScenarioConfig
from gsmloc.timing import TimingModel

import captures
from captures import LOSSY, Capture, expected_hashes, generate_capture, oracle_pairs, sha256

C = 3.0e8  # the timing model's default propagation speed
BASELINE = "0.0005"  # seconds, passed to analyze-log as text

# Published RTT tables (microseconds) for the shipped captures, as pinned by
# acceptance criterion 4, with the share of rows each must match.
SHIPPED_TABLES = {
    "tower1_ping.log": ([783, 799, 690, 985, 567, 533, 671], 0, 3),
    "tower2_ping.log": ([543, 664, 764, 667, 3608, 674, 645], 0, 6),
    "tower3_ping.log": ([774, 694, 714, 655, 672, 778, 770], 1, 6),
}


class WrongOutput(Exception):
    """An operation returned, but its output disagrees with the oracle."""


class OpFailed(Exception):
    """An operation reported failure without raising (a nonzero exit)."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


@contextmanager
def checking(label: str):
    """Turn any error raised while checking an output into ``WrongOutput``.

    A changed output can break a check in other ways than a mismatch: a
    missing file, a missing key, a line that no longer parses.
    """
    try:
        yield
    except WrongOutput:
        raise
    except Exception as exc:
        raise WrongOutput(f"{label}: checking the output raised {type(exc).__name__}: {exc}") from exc


def clock_floor(t: float, resolution: float) -> float:
    """A truncating clock, written independently of ``timing.quantize``."""
    if resolution == 0:
        return t
    ticks = math.floor(t / resolution)
    if (ticks + 1) * resolution <= t:
        ticks += 1
    return ticks * resolution


def least_squares_slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# ---------------------------------------------------------------------------
# capture-clean / capture-lossy


class CaptureWorkload:
    """``gsmloc analyze-log --baseline`` on seeded captures, in process."""

    def __init__(self, seed: int, workdir: Path, lossy: bool):
        self.out = workdir / "out"
        subprocess.run(
            [sys.executable, captures.__file__, "--seed", str(seed), "--baseline", BASELINE,
             "--out", str(workdir)] + (["--lossy"] if lossy else []),
            check=True, timeout=120,
        )
        self.logs = [workdir / f"capture-{k}.log" for k in range(captures.N_CAPTURES)]
        self.expected = json.loads((workdir / "expected.json").read_text())
        with checking("shipped captures"):
            self.check_shipped(workdir)

    def check_shipped(self, workdir: Path) -> None:
        """One analyze-log per shipped capture, against the published tables."""
        for name, (table, tolerance_us, needed) in SHIPPED_TABLES.items():
            path = Path("data") / name
            text = path.read_text()
            records = []
            for line in text.splitlines():
                tokens = line.split()
                whole, frac = tokens[1].split(".")
                time_us = int(whole) * 10**6 + int((frac + "000000")[:6])
                records.append((int(tokens[0]), time_us, tokens[2], tokens[3], tokens[-1]))
            capture = Capture(text, records)
            out = workdir / "shipped"
            rc = gsmloc.cli.main(["analyze-log", str(path), "--baseline", BASELINE, "-o", str(out)])
            expect(rc == 0, f"analyze-log {name} exited {rc}")
            self.compare(out, expected_hashes(capture, float(BASELINE)), name)
            # the program's rtt.csv equals the oracle's, so the oracle's
            # pairs are the program's
            pairs = oracle_pairs(records)
            rtts = [rtt for _, _, rtt in pairs]
            hits = sum(1 for got, want in zip(rtts, table) if got is not None and abs(got - want) <= tolerance_us)
            expect(len(rtts) == len(table) and hits >= needed, f"{name}: {hits} rows match the published table")
            if name == "tower1_ping.log":
                expect((45, 46, -17) in pairs, "tower1: the 45/46 negative interval is not flagged")

    def compare(self, out: Path, expected: dict, label) -> None:
        """Check the files in ``out`` against ``expected_hashes``, byte for byte."""
        outputs = expected["outputs"]
        for name, digest in outputs.items():
            expect(sha256((out / name).read_text()) == digest, f"{label}: {name} differs from the oracle")
        manifest = json.loads((out / "analyze_log_manifest.json").read_text())
        expect(manifest["outputs"] == list(outputs), f"{label}: manifest outputs {manifest['outputs']}")
        expect(manifest["config_digest"] == expected["digest"], f"{label}: manifest digest differs")

    def run(self, i: int) -> int:
        k = i % len(self.logs)
        argv = ["analyze-log", str(self.logs[k]), "--baseline", BASELINE, "-o", str(self.out)]
        rc = gsmloc.cli.main(argv)
        if rc != 0:
            raise OpFailed(f"exit_{rc}")
        return k

    def check(self, i: int, k: int) -> None:
        self.compare(self.out, self.expected[k], f"op {i}")

    def no_fix(self, i: int, exc: Exception) -> None:
        return None  # analyze-log has no documented no-result outcome

    # -- traced run -----------------------------------------------------

    @staticmethod
    def trace_targets(tracer) -> None:
        cli = gsmloc.cli

        def keep_parse(args):
            tracer.stash["warnings"] = args[1]

        tracer.target(cli, "main", lambda f: tracer.span("cli.analyze_log", f))
        tracer.target(cli, "parse_ping_log", lambda f: tracer.span(
            "ingest.parse_ping_log", f, on_call=keep_parse,
            on_result=lambda r: tracer.stash.__setitem__("records", r)))
        tracer.target(cli, "pair_rtts", lambda f: tracer.span(
            "ingest.pair_rtts", f, on_result=lambda r: tracer.stash.__setitem__("samples", r)))
        for name in ("rtt_stats", "rtt_csv", "stats_summary", "discrepancy_report", "subtract_baseline"):
            tracer.target(cli, name, lambda f: tracer.span("ingest.render", f))

    def observe(self, tracer) -> None:
        counts, stash = tracer.counts, tracer.stash
        if "samples" not in stash:
            return
        samples = stash["samples"]
        counts["ingest.records"] += len(stash["records"])
        counts["ingest.malformed"] += len(stash["warnings"])
        counts["ingest.missing_replies"] += sum(1 for s in samples if s.anomaly == gsmloc.ingest.MISSING_REPLY)
        counts["ingest.negative_intervals"] += sum(1 for s in samples if s.anomaly == gsmloc.ingest.NEGATIVE)
        counts["ingest.valid"] += sum(1 for s in samples if s.valid)
        counts["ingest.samples"] += len(samples)
        counts["cli.bytes_written"] += sum(p.stat().st_size for p in self.out.iterdir())

    def probes(self) -> dict[str, float]:
        """Log-log slope of pair_rtts time over lossy captures of 2k/8k/32k records.

        The probe inputs are fixed, so that the slope compares across runs.
        """
        rng = random.Random(1)
        sizes, times = [], []
        for n in (2_000, 8_000, 32_000):
            capture = generate_capture(rng, n, **LOSSY)
            records = gsmloc.ingest.parse_ping_log(capture.text)
            laps = []
            for _ in range(3):
                start = time.perf_counter()
                gsmloc.ingest.pair_rtts(records)
                laps.append(time.perf_counter() - start)
            sizes.append(math.log(len(records)))
            times.append(math.log(statistics.median(laps)))
        return {"ingest.pair_rtts.scaling_exp": least_squares_slope(sizes, times)}


# ---------------------------------------------------------------------------
# sim-sweep


class SimSweep:
    """One trial per operation: ``run_scenario``, then the rest of ``simulate``'s per-trial work."""

    RADIUS = 3000.0
    RESOLUTIONS = (0.0, 1e-9, 1e-8, 1e-7)
    N_CONFIGS = 64

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.configs = []
        for k in range(self.N_CONFIGS):
            # one config in four: a 1-ring cell at heavy loss, where trials
            # with fewer than 3 acks are common
            small = k % 4 == 3
            rings, spread, loss = (1, 0.9, 0.3) if small else (5, 4.0, 0.1)
            towers = tuple(gsmloc.geometry.hex_cell_layout(Point3(0.0, 0.0, 0.0), self.RADIUS, rings))
            r = spread * self.RADIUS * math.sqrt(rng.random())
            theta = 2.0 * math.pi * rng.random()
            self.configs.append(
                ScenarioConfig(
                    towers=towers,
                    mobile_true_position=Point3(r * math.cos(theta), r * math.sin(theta), 0.0),
                    timing=TimingModel(clock_resolution=self.RESOLUTIONS[(k // 4) % 4]),
                    packet_loss=loss,
                    rng_seed=rng.randrange(2**31),
                )
            )

    def run(self, i: int):
        config = self.configs[i % self.N_CONFIGS]
        sim = gsmloc.simulator
        trace, measurements, fix = sim.run_scenario(config, i)
        n_acks = sum(1 for e in trace.events if e.kind is EventKind.ACK_ARRIVES)
        everything = sim.first_k_acks(trace, n_acks)
        return trace, measurements, fix, everything, sim.format_trace(trace), sim.measurement_csv(
            everything, config.mobile_true_position
        )

    def check_events(self, i: int, config: ScenarioConfig, trace) -> list:
        """Check every event of a trial's trace against the physics; return its acks."""
        mobile = config.mobile_true_position.as_tuple()
        towers = {t.id: t.position.as_tuple() for t in config.towers}
        c, t0 = config.timing.c, config.request_time
        requested, acks = set(), []
        for event in trace.events:
            d = math.dist(mobile, towers[event.tower_id])
            if event.kind is EventKind.REQUEST_ARRIVES:
                requested.add(event.tower_id)
                want = t0 + d / c
            else:
                expect(event.tower_id in requested, f"op {i}: ack from tower {event.tower_id} without request")
                acks.append(event)
                want = t0 + 2 * d / c + config.tower_processing_delay
            expect(abs(event.time - want) <= 1e-12 * want + 1e-18, f"op {i}: event time off the physics")
        return acks

    def check(self, i: int, result) -> str | None:
        """Verify one trial; returns "z_off_plane" for a fix lifted off the plane within rounding."""
        config = self.configs[i % self.N_CONFIGS]
        trace, measurements, fix, everything, text, csv = result
        c, mobile = config.timing.c, config.mobile_true_position.as_tuple()
        lines = text.splitlines()
        expect(len(lines) == len(trace.events), f"op {i}: {len(lines)} trace lines for {len(trace.events)} events")
        times = [float(line.split("\t", 1)[0]) for line in lines]
        expect(times == sorted(times), f"op {i}: trace lines out of time order")
        acks = self.check_events(i, config, trace)

        rows = csv.splitlines()[1:]
        expect(len(everything) == len(acks) == len(rows), f"op {i}: {len(everything)} ranges for {len(acks)} acks")
        for event, m, row in zip(acks, everything, rows):
            turnaround = clock_floor(event.time, config.timing.clock_resolution) - event.payload.timestamp
            want = (turnaround - config.timing.alpha) * c / 2
            expect(m.tower.id == event.tower_id and abs(m.range_m - want) <= 1e-9 * max(1.0, want),
                   f"op {i}: range for tower {event.tower_id} is {m.range_m}, trace gives {want}")
            fields = row.split(",")
            expect(int(fields[0]) == m.tower.id and abs(float(fields[2]) - want) <= 1e-3,
                   f"op {i}: measurement row {row!r}")
        expect(measurements == everything[:3], f"op {i}: the solve used other acks than the first three")
        if config.timing.clock_resolution == 0:
            (x, y, z), (tx, ty, tz) = fix.position.as_tuple(), mobile
            plane_err, lift = math.hypot(x - tx, y - ty), abs(z - tz)
            expect(plane_err <= 1e-6, f"op {i}: exact-clock fix is {plane_err:.3e} m off in the plane")
            if lift > 1e-6:
                # The mobile sits in the tower plane, so the discriminant is
                # zero up to rounding; noise above the solver's floor lifts
                # the fix by its square root. Only a lift that rounding can
                # explain is accepted, and it is tallied.
                scale = max(m.range_m for m in measurements) + max(map(abs, fix.position.as_tuple()))
                expect(lift <= math.sqrt(1024 * sys.float_info.epsilon) * scale,
                       f"op {i}: exact-clock fix is {lift:.3e} m off the tower plane")
                return "z_off_plane"
        return None

    def no_fix(self, i: int, exc: Exception) -> str | None:
        """Rerun the trial, keeping its trace, and check the trace justifies the error.

        ``lt3_acks``: fewer than three acks arrived. ``collinear``: the first
        three acks come from towers on one line, although later acks might
        solve.
        """
        if not isinstance(exc, (InsufficientMeasurementsError, DegenerateGeometryError)):
            return None
        config = self.configs[i % self.N_CONFIGS]
        sim = gsmloc.simulator
        first_k_acks, traces = sim.first_k_acks, []

        def keep_trace(trace, k):
            traces.append(trace)
            return first_k_acks(trace, k)

        sim.first_k_acks = keep_trace
        try:
            sim.run_scenario(config, i)
        except type(exc):
            pass
        else:
            raise WrongOutput(f"op {i}: {type(exc).__name__} did not recur when the trial was rerun")
        finally:
            sim.first_k_acks = first_k_acks
        expect(len(traces) == 1, f"op {i}: the rerun made {len(traces)} traces")
        acks = self.check_events(i, config, traces[0])
        if isinstance(exc, InsufficientMeasurementsError):
            expect(len(acks) < 3, f"op {i}: InsufficientMeasurementsError with {len(acks)} acks")
            return "lt3_acks"
        towers = {t.id: t.position.as_tuple() for t in config.towers}
        first = [towers[event.tower_id] for event in acks[:3]]
        expect(len(first) == 3 and _collinear(first),
               f"op {i}: DegenerateGeometryError, but the first three acking towers are not collinear")
        return "collinear"

    # -- traced run -----------------------------------------------------

    @staticmethod
    def trace_targets(tracer) -> None:
        sim, tri = gsmloc.simulator, gsmloc.trilateration

        def keep_trace(args):
            tracer.stash.setdefault("trace", args[0])

        def clamped(fix):
            tracer.counts["trilateration.z_clamped"] += fix.z_clamped

        tracer.target(gsmloc.geometry, "hex_cell_layout", lambda f: tracer.span("geometry.hex_cell_layout", f))
        tracer.target(sim, "run_scenario", lambda f: tracer.span("simulator.run_scenario", f))
        tracer.target(sim, "first_k_acks", lambda f: tracer.span("simulator.first_k_acks", f, on_call=keep_trace))
        tracer.target(sim, "format_trace", lambda f: tracer.span("simulator.render", f))
        tracer.target(sim, "measurement_csv", lambda f: tracer.span("simulator.render", f))
        tracer.target(sim, "solve_position", lambda f: tracer.span(
            "trilateration.solve_position", f, on_result=clamped))
        tracer.target(sim, "distance", lambda f: tracer.counter("geometry.distance.calls", f))
        tracer.target(tri, "distance", lambda f: tracer.counter("geometry.distance.calls", f))
        tracer.target(sim, "distance_from_turnaround", lambda f: tracer.counter("timing.conversions", f))

    def observe(self, tracer) -> None:
        trace = tracer.stash.get("trace")
        if trace is None:
            return
        acks = sum(1 for e in trace.events if e.kind is EventKind.ACK_ARRIVES)
        tracer.counts["simulator.events"] += len(trace.events)
        tracer.counts["simulator.acks_lost"] += len(trace.towers) - acks

    def probes(self) -> dict[str, float]:
        """Marginal run_scenario cost per event, over hex cells of 1, 3 and 5 rings."""
        events, micros = [], []
        for rings in (1, 3, 5):
            towers = tuple(gsmloc.geometry.hex_cell_layout(Point3(0.0, 0.0, 0.0), self.RADIUS, rings))
            config = ScenarioConfig(towers=towers, mobile_true_position=Point3(410.0, -260.0, 0.0))
            laps = []
            for _ in range(60):
                start = time.perf_counter()
                trace, _, _ = gsmloc.simulator.run_scenario(config)
                laps.append(time.perf_counter() - start)
            events.append(len(trace.events))
            micros.append(statistics.median(laps) * 1e6)
        return {"simulator.us_per_event": least_squares_slope(events, micros)}


# ---------------------------------------------------------------------------
# locate-batch


TRIANGLE_HALF = 500.0  # m, half the side of the cube the triangle corners are drawn from


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _collinear(pts) -> bool:
    """Three points on one line, to rounding: triangle area under 1e-9 of the longest side squared."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pts
    area = math.hypot(*_cross((bx - ax, by - ay, bz - az), (cx - ax, cy - ay, cz - az))) / 2
    return area <= 1e-9 * max(math.dist(p, q) for p in pts for q in pts) ** 2


def _good_triangle(rng: random.Random, flat: bool):
    """Three tower positions whose triangle is far from collinear."""
    half = TRIANGLE_HALF
    while True:
        pts = [
            (rng.uniform(-half, half), rng.uniform(-half, half), 0.0 if flat else rng.uniform(-half, half))
            for _ in range(3)
        ]
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pts
        normal = _cross((bx - ax, by - ay, bz - az), (cx - ax, cy - ay, cz - az))
        area = math.hypot(*normal) / 2
        longest = max(math.dist(p, q) for p in pts for q in pts)
        if area > 0.05 * longest**2:
            return pts, normal


class LocateBatch:
    """Direct ``solve_position`` / ``multilaterate_lsq`` calls, four kinds in turn.

    exact3      3 towers, exact ranges, the truth on either side of the tower
                plane and the matching z convention.
    quantised3  3 ground towers, ranges through a 10 ns truncating clock
                (1.5 m steps) and a mobile 0-60 m up, so some fixes clamp.
    height_lsq  4-8 towers with height spread, exact ranges.
    flat_lsq    4-8 towers on flat ground, exact ranges; multilaterate_lsq
                rejects these today as coplanar, a no-fix (ROADMAP 4d).
    """

    KINDS = ("exact3", "quantised3", "height_lsq", "flat_lsq")
    PER_KIND = 500
    RESOLUTION = 1e-8

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cases = []
        for j in range(self.PER_KIND * len(self.KINDS)):
            kind = self.KINDS[j % len(self.KINDS)]
            self.cases.append((kind, *getattr(self, "_" + kind)(rng, j)))

    @staticmethod
    def _site_list(points):
        return [TowerSite(j, Point3(*p)) for j, p in enumerate(points)]

    def _exact3(self, rng, j):
        pts, normal = _good_triangle(rng, flat=False)
        unit = [x / math.hypot(*normal) for x in normal]
        for component in (unit[2], unit[0], unit[1]):  # the solver's canonical sign
            if component != 0.0:
                unit = unit if component > 0 else [-x for x in unit]
                break
        above = j % 8 < 4
        a, s, t, h = pts[0], rng.uniform(0, 0.5), rng.uniform(0, 0.5), rng.uniform(5, 300)
        truth = tuple(
            a[x] + s * (pts[1][x] - a[x]) + t * (pts[2][x] - a[x]) + (h if above else -h) * unit[x]
            for x in range(3)
        )
        convention = gsmloc.trilateration.NONNEGATIVE if above else gsmloc.trilateration.NONPOSITIVE
        return self._site_list(pts), [math.dist(truth, p) for p in pts], convention, truth

    def _quantised3(self, rng, j):
        pts, _ = _good_triangle(rng, flat=True)
        s, t = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
        truth = tuple(pts[0][x] + s * (pts[1][x] - pts[0][x]) + t * (pts[2][x] - pts[0][x]) for x in range(2))
        truth = (*truth, rng.uniform(0, 60))
        ranges = [clock_floor(2 * math.dist(truth, p) / C, self.RESOLUTION) * C / 2 for p in pts]
        return self._site_list(pts), ranges, gsmloc.trilateration.NONNEGATIVE, truth

    def _height_lsq(self, rng, j, flat=False):
        pts = [
            (rng.uniform(-500, 500), rng.uniform(-500, 500), 0.0 if flat else rng.uniform(0, 200))
            for _ in range(rng.randint(4, 8))
        ]
        truth = (rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(1, 50))
        return self._site_list(pts), [math.dist(truth, p) for p in pts], None, truth

    def _flat_lsq(self, rng, j):
        return self._height_lsq(rng, j, flat=True)

    def run(self, i: int):
        _, towers, ranges, convention, _ = self.cases[i % len(self.cases)]
        tri = gsmloc.trilateration
        if convention is None:
            return tri.multilaterate_lsq(towers, ranges)
        return tri.solve_position(towers, ranges, convention)

    def check(self, i: int, fix) -> None:
        kind, towers, ranges, _, truth = self.cases[i % len(self.cases)]
        got = fix.position.as_tuple()
        for tower, r, residual in zip(towers, ranges, fix.residuals):
            want = abs(math.dist(got, tower.position.as_tuple()) - r)
            expect(abs(residual - want) <= 1e-9 * max(1.0, r), f"op {i}: reported residual {residual} vs {want}")
        if kind != "quantised3":
            mirror = (truth[0], truth[1], -truth[2])
            err = math.dist(got, truth) if kind != "flat_lsq" else min(math.dist(got, truth), math.dist(got, mirror))
            expect(err <= 1e-6, f"op {i} ({kind}): fix {err:.3e} m from the truth")
            return
        # Truncation leaves every range in (d - delta, d] with
        # delta = resolution * c / 2. An unclamped fix is an exact sphere
        # intersection. A clamped fix P lies in the tower plane with equal
        # power q = |P - T_j|^2 - r_j^2 for every tower; writing P with
        # barycentric weights w_j, q is at most the w-weighted power of the
        # truth's foot point, so q <= sum w_j+ 2 d_j delta + sum w_j- h^2.
        if not fix.z_clamped:
            expect(max(fix.residuals) <= 1e-6 and got[2] >= 0.0,
                   f"op {i}: unclamped quantised fix at z={got[2]:.3e}, residuals {fix.residuals}")
            return
        expect(abs(got[2]) <= 1e-6, f"op {i}: clamped fix {got[2]:.3e} m off the tower plane")
        delta = self.RESOLUTION * C / 2
        (ax, ay, _), (bx, by, _), (cx, cy, _) = (t.position.as_tuple() for t in towers)
        det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
        w0 = ((by - cy) * (got[0] - cx) + (cx - bx) * (got[1] - cy)) / det
        w1 = ((cy - ay) * (got[0] - cx) + (ax - cx) * (got[1] - cy)) / det
        bound = 0.0
        for w, tower in zip((w0, w1, 1 - w0 - w1), towers):
            d = math.dist(truth, tower.position.as_tuple())
            bound += w * 2 * d * delta if w > 0 else -w * truth[2] ** 2
        for r, residual in zip(ranges, fix.residuals):
            limit = math.sqrt(r * r + bound) - r
            expect(residual <= limit + 1e-6, f"op {i}: clamped residual {residual:.3f} m over the clock bound {limit:.3f} m")

    def no_fix(self, i: int, exc: Exception) -> str | None:
        """Only coplanar towers justify a DegenerateGeometryError here."""
        if not isinstance(exc, DegenerateGeometryError):
            return None
        kind, towers, *_ = self.cases[i % len(self.cases)]
        heights = {tower.position.z for tower in towers}
        expect(kind == "flat_lsq" and len(heights) == 1,
               f"op {i} ({kind}): DegenerateGeometryError on towers that are not coplanar")
        return "flat_lsq"

    # -- traced run -----------------------------------------------------

    @staticmethod
    def trace_targets(tracer) -> None:
        tri = gsmloc.trilateration

        def clamped(fix):
            tracer.counts["trilateration.z_clamped"] += fix.z_clamped

        tracer.target(tri, "solve_position", lambda f: tracer.span(
            "trilateration.solve_position", f, on_result=clamped))
        tracer.target(tri, "multilaterate_lsq", lambda f: tracer.span("trilateration.multilaterate_lsq", f))
        tracer.target(tri, "distance", lambda f: tracer.counter("geometry.distance.calls", f))

    def observe(self, tracer) -> None:
        pass

    def probes(self) -> dict[str, float]:
        return {}


# name -> (class, keyword arguments)
WORKLOADS = {
    "capture-clean": (CaptureWorkload, {"lossy": False}),
    "capture-lossy": (CaptureWorkload, {"lossy": True}),
    "sim-sweep": (SimSweep, {}),
    "locate-batch": (LocateBatch, {}),
}
