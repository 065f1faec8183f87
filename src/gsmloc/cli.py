"""Command-line entry point: simulate, locate, analyze-log, feasibility.

Every command writes a run manifest (JSON) into --out-dir recording the
command, the sha256 digest of its effective input, the seed where one
applies, and the output file names. Reruns with identical inputs produce
identical manifests except for the created_utc field, which is excluded
from the digest. No command writes partial output files on failure: all
content is rendered in memory first and written only on success.

Commands raise on failure; main maps each error type to its exit code and
prints one "error: ..." line on stderr.

Exit codes:
    0  success (feasibility: the clock is sufficient)
    1  feasibility: the clock cannot resolve the requested range (a
       verdict, never an error)
    2  invalid input (unreadable file, malformed config, bad parameters)
    3  degenerate tower geometry
    4  no usable data (zero valid RTT pairs, or too few acknowledgments)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    EmptyDataError,
    GsmlocError,
    InsufficientMeasurementsError,
)
from .geometry import Point3, TowerSite, hex_cell_layout
from .ingest import (
    check_kernel_delay,
    discrepancy_report,
    pair_rtts,
    parse_ping_log,
    rtt_csv,
    rtt_stats,
    stats_summary,
    subtract_baseline,
)
from .simulator import (
    EventKind,
    ScenarioConfig,
    first_k_acks,
    format_trace,
    measurement_csv,
    run_scenario,
)
from .timing import SPEED_OF_LIGHT, TimingModel, required_precision
from .trilateration import (
    NONNEGATIVE,
    NONPOSITIVE,
    LocationFix,
    solve_position,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NO_DATA = 4

# (error type, exit code, stderr prefix after "error: "), checked in order,
# so every subclass comes before its base class.
ERROR_EXITS = (
    (DegenerateGeometryError, EXIT_DEGENERATE, "degenerate geometry: "),
    (InsufficientMeasurementsError, EXIT_NO_DATA, ""),
    (EmptyDataError, EXIT_NO_DATA, ""),
    (GsmlocError, EXIT_BAD_INPUT, ""),
)


@dataclass(frozen=True)
class RunManifest:
    command: str
    version: str
    config_digest: str
    seed: int | None
    outputs: tuple[str, ...]

    def to_json(self) -> str:
        record = {
            "command": self.command,
            "version": self.version,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "outputs": list(self.outputs),
            "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        return json.dumps(record, indent=2) + "\n"


def config_digest(payload) -> str:
    """sha256 over the canonical JSON form; stable under key order and whitespace."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _write_outputs(out_dir: Path, files: dict[str, str], manifest: RunManifest) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out_dir / name).write_text(content)
    (out_dir / f"{manifest.command.replace('-', '_')}_manifest.json").write_text(
        manifest.to_json()
    )


def _read_input(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def load_scenario_config(path: Path) -> tuple[ScenarioConfig, str]:
    """Parse a scenario config file (JSON) into a ScenarioConfig plus digest.

    Towers come either from an explicit site list or from hex layout
    parameters:

        {"towers": {"sites": [{"id": 0, "position": [0, 0, 0]}, ...]}, ...}
        {"towers": {"hex": {"center": [0, 0, 0], "radius": 3000, "rings": 1}}, ...}
    """
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    digest = config_digest(raw)
    try:
        towers_spec = raw["towers"]
        if "hex" in towers_spec:
            hexspec = towers_spec["hex"]
            towers = tuple(
                hex_cell_layout(
                    Point3(*hexspec["center"]),
                    float(hexspec["radius"]),
                    int(hexspec.get("rings", 1)),
                )
            )
        elif "sites" in towers_spec:
            towers = tuple(
                TowerSite(
                    int(site.get("id", index)),
                    Point3(*site["position"]),
                )
                for index, site in enumerate(towers_spec["sites"])
            )
        else:
            raise ConfigError("towers section needs either 'hex' or 'sites'")
        timing_raw = raw.get("timing", {})
        timing = TimingModel(
            alpha=float(timing_raw.get("alpha", 0.0)),
            c=float(timing_raw.get("c", SPEED_OF_LIGHT)),
            mode=timing_raw.get("mode", "round_trip"),
            clock_resolution=float(timing_raw.get("clock_resolution", 0.0)),
        )
        config = ScenarioConfig(
            towers=towers,
            mobile_true_position=Point3(*raw["mobile"]),
            timing=timing,
            tower_processing_delay=float(raw.get("tower_processing_delay", 0.0)),
            rng_seed=int(raw.get("seed", 0)),
            trials=int(raw.get("trials", 1)),
            request_time=float(raw.get("request_time", 0.0)),
            packet_loss=float(raw.get("packet_loss", 0.0)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config {path} is malformed: {exc}") from exc
    return config, digest


def _fix_report(fix: LocationFix, tower_ids: list[int]) -> str:
    p = fix.position
    lines = [
        f"position {p.x:.9f} {p.y:.9f} {p.z:.9f}",
        f"method {fix.method}",
        f"z_branch {fix.z_branch}",
        f"z_clamped {str(fix.z_clamped).lower()}",
    ]
    for tower_id, residual in zip(tower_ids, fix.residuals):
        lines.append(f"residual tower={tower_id} {residual:.9f}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    config, digest = load_scenario_config(args.config)
    if config.trials > 1:
        raise ConfigError(f"simulate runs one trial; trials must be 1, got {config.trials}")
    trace, measurements, fix = run_scenario(config)
    n_acks = sum(1 for e in trace.events if e.kind is EventKind.ACK_ARRIVES)
    all_measurements = first_k_acks(trace, n_acks)

    files = {
        "trace.tsv": format_trace(trace),
        "measurements.csv": measurement_csv(all_measurements, config.mobile_true_position),
        "fix.txt": _fix_report(fix, [m.tower.id for m in measurements]),
    }
    manifest = RunManifest(
        command="simulate",
        version=__version__,
        config_digest=digest,
        seed=config.rng_seed,
        outputs=tuple(files),
    )
    _write_outputs(args.out_dir, files, manifest)
    p = fix.position
    print(f"fix {p.x:.6f} {p.y:.6f} {p.z:.6f} (method {fix.method})")
    return EXIT_OK


# Largest coordinate or range magnitude locate accepts, in meters. The solver
# takes fourth powers of these (the squared length of the tower-plane normal),
# which overflow the largest double, about 1.8e308, above about 1.5e76.
_MAX_LOCATE_MAGNITUDE = 1e75


def _load_locate_rows(path: Path) -> list[tuple[int, float, float, float, float]]:
    """Rows of 'id x y z range' (or 'x y z range', numbered in file order).

    Raises ConfigError for a malformed row, a number that is not finite or
    exceeds _MAX_LOCATE_MAGNITUDE in magnitude, a negative range or id, or a
    repeated id.
    """
    rows, seen = [], set()
    for line in _read_input(path).splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) not in (4, 5):
            raise ConfigError(f"expected 'x y z range' or 'id x y z range', got {stripped!r}")
        try:
            tower_id = int(tokens[0]) if len(tokens) == 5 else len(rows)
            x, y, z, r = (float(v) for v in tokens[-4:])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not all(abs(v) <= _MAX_LOCATE_MAGNITUDE for v in (x, y, z, r)):
            raise ConfigError(
                f"numbers must be finite and at most {_MAX_LOCATE_MAGNITUDE:g} in absolute value, got {stripped!r}"
            )
        if r < 0 or tower_id < 0:
            raise ConfigError(f"range and tower id must be non-negative, got {stripped!r}")
        if tower_id in seen:
            raise ConfigError(f"tower id {tower_id} appears twice")
        seen.add(tower_id)
        rows.append((tower_id, x, y, z, r))
    return rows


def cmd_locate(args) -> int:
    rows = _load_locate_rows(args.input)
    if len(rows) < 3:
        raise ConfigError(f"need at least 3 tower/range rows, got {len(rows)}")

    towers = [TowerSite(row[0], Point3(row[1], row[2], row[3])) for row in rows]
    fix = solve_position(towers, [row[4] for row in rows], args.z_convention)

    report = _fix_report(fix, [t.id for t in towers])
    print(report, end="")
    manifest = RunManifest(
        command="locate",
        version=__version__,
        config_digest=config_digest({"rows": [list(r) for r in rows], "z_convention": args.z_convention}),
        seed=None,
        outputs=(),
    )
    _write_outputs(args.out_dir, {}, manifest)
    return EXIT_OK


def cmd_analyze_log(args) -> int:
    if args.baseline is not None:
        try:
            check_kernel_delay(args.baseline)
        except ValueError as exc:
            raise ConfigError(f"--baseline: {exc}") from exc
    text = _read_input(args.log)
    warnings: list[str] = []
    records = parse_ping_log(text, warnings)
    samples = pair_rtts(records)
    if not any(s.valid for s in samples):
        raise EmptyDataError("no valid request/reply pairs in log")

    stats = rtt_stats(samples)
    files = {
        "rtt.csv": rtt_csv(samples),
        "stats.txt": stats_summary(stats),
        "discrepancies.txt": discrepancy_report(samples, warnings),
    }
    if args.baseline is not None:
        propagation = subtract_baseline(samples, args.baseline)
        valid = [s for s in samples if s.valid]
        lines = ["request_seq,prop_s,flagged_negative"]
        for sample, prop in zip(valid, propagation):
            lines.append(f"{sample.request_seq},{prop:.9e},{str(prop < 0).lower()}")
        files["propagation.csv"] = "\n".join(lines) + "\n"

    digest_payload = {
        "log_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "baseline": args.baseline,
    }
    manifest = RunManifest(
        command="analyze-log",
        version=__version__,
        config_digest=config_digest(digest_payload),
        seed=None,
        outputs=tuple(files),
    )
    _write_outputs(args.out_dir, files, manifest)
    print(stats_summary(stats), end="")
    return EXIT_OK


def cmd_feasibility(args) -> int:
    checks = (
        ("--range", args.range_m, "positive"),
        ("--clock", args.clock, "non-negative"),
        ("--c", args.c, "positive"),
    )
    for flag, value, sign in checks:
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
        if value < 0 or (value == 0 and sign == "positive"):
            raise ConfigError(f"{flag} must be {sign}, got {value}")
    report = required_precision(args.range_m, c=args.c, available=args.clock)
    verdict = "feasible" if report.feasible else "NOT feasible"
    print(
        f"range {report.range_m:g} m: required precision {report.required_precision:.4g} s,"
        f" available {report.available_precision:.4g} s -> {verdict}"
    )
    manifest = RunManifest(
        command="feasibility",
        version=__version__,
        config_digest=config_digest(
            {"range_m": args.range_m, "clock": args.clock, "c": args.c}
        ),
        seed=None,
        outputs=(),
    )
    _write_outputs(args.out_dir, {}, manifest)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsmloc",
        description="Time-of-flight ranging simulator and trilateration toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one protocol exchange from a scenario config")
    sim.add_argument("config", type=Path, help="scenario config (JSON)")
    sim.add_argument("-o", "--out-dir", type=Path, default=Path("."))
    sim.set_defaults(func=cmd_simulate)

    loc = sub.add_parser("locate", help="solve a position from a towers+ranges file")
    loc.add_argument("input", type=Path, help="rows of 'id x y z range_m' (or without id)")
    loc.add_argument(
        "--z-convention",
        choices=[NONNEGATIVE, NONPOSITIVE],
        default=NONNEGATIVE,
        help="root to take when the towers are coplanar",
    )
    loc.add_argument("-o", "--out-dir", type=Path, default=Path("."))
    loc.set_defaults(func=cmd_locate)

    ana = sub.add_parser("analyze-log", help="extract RTT samples and stats from a ping trace")
    ana.add_argument("log", type=Path)
    ana.add_argument(
        "--baseline",
        type=float,
        default=None,
        help="kernel delay in seconds to subtract from each RTT",
    )
    ana.add_argument("-o", "--out-dir", type=Path, default=Path("."))
    ana.set_defaults(func=cmd_analyze_log)

    fea = sub.add_parser("feasibility", help="check whether a clock can resolve a range")
    fea.add_argument("--range", dest="range_m", type=float, required=True, help="meters")
    fea.add_argument("--clock", type=float, required=True, help="clock resolution in seconds")
    fea.add_argument("--c", type=float, default=SPEED_OF_LIGHT, help="propagation speed, m/s")
    fea.add_argument("-o", "--out-dir", type=Path, default=Path("."))
    fea.set_defaults(func=cmd_feasibility)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GsmlocError as exc:
        code, prefix = next((c, p) for kind, c, p in ERROR_EXITS if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
