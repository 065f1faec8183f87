"""Command-line entry point: simulate, locate, analyze-log, feasibility.

Each command returns a Run and writes nothing; main alone writes it. main
writes the output files and a run manifest (JSON) into --out-dir, the
manifest recording the command, the sha256 digest of the effective input,
the seed where one applies and the output file names, and only then prints
the command's stdout. Reruns with identical inputs produce identical
manifests except for the created_utc field, which is excluded from the
digest. A failed command writes no file and prints nothing on stdout. Each
file is first written under a temporary name in --out-dir and all are
renamed into place only once every write has succeeded, so a failed write
leaves none of them behind.

Commands raise on failure; main maps each error type to its exit code and
prints one "error: ..." line on stderr.

Exit codes:
    0  success (feasibility: the clock is sufficient)
    1  feasibility: the clock cannot resolve the requested range (a
       verdict, never an error)
    2  invalid input (unreadable file, malformed config, bad parameters)
       or an output directory that cannot be written
    3  degenerate tower geometry
    4  no usable data (zero valid RTT pairs, or too few acknowledgments)
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

from . import __version__, ingest
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    EmptyDataError,
    GsmlocError,
    InsufficientMeasurementsError,
)
from .geometry import Point3, TowerSite, hex_cell_layout
# The benchmark's traced run (perfbench/workloads.py) wraps these module
# globals, so analyze-log calls them through this module and every one stays
# here. It wraps all but check_kernel_delay and propagation_csv, whose time
# counts as cli's own, and subtract_baseline too, which analyze-log never
# calls. tools/stage_times.py wraps every function this module imports from
# another gsmloc module, these and those below, and reports each as a stage.
from .ingest import (
    check_kernel_delay,
    discrepancy_report,
    pair_rtts,
    parse_ping_log,
    propagation_csv,
    rtt_csv,
    rtt_stats,
    stats_summary,
    subtract_baseline,
)
from .simulator import (
    ScenarioConfig,
    first_k_acks,
    format_trace,
    measurement_csv,
    run_scenario,
)
from .timing import ROUND_TRIP, SPEED_OF_LIGHT, TimingModel, required_precision
from .trilateration import (
    NONNEGATIVE,
    NONPOSITIVE,
    LocationFix,
    check_magnitude,
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
class Run:
    """A command's result: main digests digest_payload into the manifest,
    writes files (name to content), then prints stdout and returns code."""

    digest_payload: object
    files: dict[str, str]
    stdout: str
    seed: int | None = None
    code: int = EXIT_OK


def config_digest(payload) -> str:
    """sha256 over the canonical JSON form; stable under key order and whitespace."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _read_input(path: Path) -> str:
    """The file's text as ``Path.read_text`` reads it as UTF-8, "\\r\\n" and
    a lone "\\r" read as "\\n". A file that cannot be read or is not UTF-8
    raises ConfigError with read_text's error: it is rejected, not decoded
    with replacements."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _read_chunks(path: Path) -> Iterator[bytes]:
    """The UTF-8 of the text _read_input returns, in pieces that each end at
    a "\\n" but the last, which may not; no piece is empty.

    The file is read in blocks of ``ingest.CHUNK_CHARS`` bytes, so that a
    block's worth is held at a time. Each block goes through the decoders
    ``read_text`` decodes with: an incremental UTF-8 decoder here, then the
    io module's newline decoder in ``ingest.pieces``, which reads "\\r\\n"
    and a lone "\\r" as "\\n" and cuts the text into pieces. A file that
    cannot be read raises ConfigError. On a decode error, a truncated last
    character included, the file is read once more, whole, by _read_input,
    so that the ConfigError names the position in the file that
    ``read_text``'s error names.
    """
    utf8_decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        with path.open("rb") as file:
            yield from ingest.pieces(map(utf8_decoder.decode, iter(partial(file.read, ingest.CHUNK_CHARS), b"")))
            utf8_decoder.decode(b"", final=True)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        _read_input(path)
        # The file changed since it was streamed: name the streamed error.
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _hashed(pieces: Iterator[bytes], digest) -> Iterator[bytes]:
    """The pieces, each added to digest as it passes."""
    for piece in pieces:
        digest.update(piece)
        yield piece


def _integer(mapping: dict, key: str, default: int) -> int:
    """mapping[key] (default if absent), which must be a JSON integer: a bool,
    a string or a number with a fraction or exponent is rejected, not truncated."""
    value = mapping.get(key, default)
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """value as a float, which must be a JSON number: a bool or a string is
    rejected, not converted."""
    if type(value) not in (int, float):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _point(values, key: str) -> Point3:
    """A point from a JSON list of three numbers."""
    return Point3(*(_number(v, f"{key}[{i}]") for i, v in enumerate(values)))


def _fields(value, where: str, keys: tuple[str, ...]) -> dict:
    """value, which must be a JSON object with no key outside keys: a
    misspelt key is rejected, not ignored."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{where} has unknown key {key!r}; known keys: {', '.join(keys)}")
    return value


def load_scenario_config(path: Path) -> tuple[ScenarioConfig, dict]:
    """Map a scenario config file (JSON) onto a ScenarioConfig; return it with the raw payload.

    Towers come either from an explicit site list or from hex layout
    parameters:

        {"towers": {"sites": [{"id": 0, "position": [0, 0, 0]}, ...]}, ...}
        {"towers": {"hex": {"center": [0, 0, 0], "radius": 3000, "rings": 1}}, ...}

    Only the JSON shape is checked here. The config, towers, hex, each site
    and timing must be JSON objects naming no key but those read here (a
    misspelt key is an error, not a default), and towers holds exactly one
    of hex and sites. rings, id, seed and trials must be JSON integers, and
    every other number (the timing fields, radius, tower_processing_delay,
    request_time, packet_loss and each coordinate) a JSON integer or
    float. What the simulator can run (the timing mode, the magnitude
    bound, the ring bound, the other knobs) is TimingModel's,
    hex_cell_layout's and ScenarioConfig's to check; their errors reach the
    caller as ConfigError.
    """
    # Read as text, which keeps a UTF-8 BOM as "\ufeff": json.loads rejects
    # it, where from bytes it would drop it.
    text = _read_input(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        top = ("towers", "mobile", "timing", "tower_processing_delay", "seed", "trials", "request_time", "packet_loss")
        _fields(raw, "config", top)
        towers_spec = _fields(raw["towers"], "towers", ("hex", "sites"))
        if len(towers_spec) != 1:
            raise ConfigError("towers section needs exactly one of 'hex' and 'sites'")
        if "hex" in towers_spec:
            hexspec = _fields(towers_spec["hex"], "towers.hex", ("center", "radius", "rings"))
            towers = tuple(
                hex_cell_layout(
                    _point(hexspec["center"], "center"),
                    _number(hexspec["radius"], "radius"),
                    _integer(hexspec, "rings", 1),
                )
            )
        else:
            sites = []
            for index, site in enumerate(towers_spec["sites"]):
                _fields(site, f"towers.sites[{index}]", ("id", "position"))
                sites.append(TowerSite(_integer(site, "id", index), _point(site["position"], "position")))
            towers = tuple(sites)
        timing_raw = _fields(raw.get("timing", {}), "timing", ("alpha", "c", "mode", "clock_resolution"))
        timing = TimingModel(
            alpha=_number(timing_raw.get("alpha", 0.0), "alpha"),
            c=_number(timing_raw.get("c", SPEED_OF_LIGHT), "c"),
            mode=timing_raw.get("mode", ROUND_TRIP),
            clock_resolution=_number(timing_raw.get("clock_resolution", 0.0), "clock_resolution"),
        )
        config = ScenarioConfig(
            towers=towers,
            mobile_true_position=_point(raw["mobile"], "mobile"),
            timing=timing,
            tower_processing_delay=_number(raw.get("tower_processing_delay", 0.0), "tower_processing_delay"),
            rng_seed=_integer(raw, "seed", 0),
            trials=_integer(raw, "trials", 1),
            request_time=_number(raw.get("request_time", 0.0), "request_time"),
            packet_loss=_number(raw.get("packet_loss", 0.0), "packet_loss"),
        )
    except ConfigError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"config {path} is malformed: {exc}") from exc
    return config, raw


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


def cmd_simulate(args) -> Run:
    config, raw = load_scenario_config(args.config)
    if config.trials > 1:
        raise ConfigError(f"simulate runs one trial; trials must be 1, got {config.trials}")
    trace, measurements, fix = run_scenario(config)
    all_measurements = first_k_acks(trace, len(trace.acked))

    files = {
        "trace.tsv": format_trace(trace),
        "measurements.csv": measurement_csv(all_measurements, config.mobile_true_position),
        "fix.txt": _fix_report(fix, [m.tower.id for m in measurements]),
    }
    p = fix.position
    stdout = f"fix {p.x:.6f} {p.y:.6f} {p.z:.6f} (method {fix.method})\n"
    return Run(raw, files, stdout, seed=config.rng_seed)


def _load_locate_rows(path: Path) -> list[tuple[int, float, float, float, float]]:
    """Rows of 'id x y z range' (or 'x y z range', numbered in file order).

    Raises ConfigError for a malformed row, a number that is not finite or
    exceeds trilateration.MAX_MAGNITUDE in magnitude, a negative range or
    id, or a repeated id.
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
        check_magnitude((x, y, z, r), repr(stripped))
        if r < 0 or tower_id < 0:
            raise ConfigError(f"range and tower id must be non-negative, got {stripped!r}")
        if tower_id in seen:
            raise ConfigError(f"tower id {tower_id} appears twice")
        seen.add(tower_id)
        rows.append((tower_id, x, y, z, r))
    return rows


def cmd_locate(args) -> Run:
    rows = _load_locate_rows(args.input)
    if len(rows) < 3:
        raise ConfigError(f"need at least 3 tower/range rows, got {len(rows)}")

    towers = [TowerSite(row[0], Point3(row[1], row[2], row[3])) for row in rows]
    fix = solve_position(towers, [row[4] for row in rows], args.z_convention)

    digest_payload = {"rows": [list(r) for r in rows], "z_convention": args.z_convention}
    return Run(digest_payload, {}, _fix_report(fix, [t.id for t in towers]))


def cmd_analyze_log(args) -> Run:
    if args.baseline is not None:
        try:
            check_kernel_delay(args.baseline)
        except ValueError as exc:
            raise ConfigError(f"--baseline: {exc}") from exc
    digest = hashlib.sha256()
    warnings: list[str] = []
    # The capture is read, hashed and parsed a piece at a time, never held whole.
    records = parse_ping_log(_hashed(_read_chunks(args.log), digest), warnings)
    samples = pair_rtts(records)
    del records
    if not samples.valid.any():
        raise EmptyDataError("no valid request/reply pairs in log")

    files = {
        "rtt.csv": rtt_csv(samples),
        "stats.txt": stats_summary(rtt_stats(samples)),
        "discrepancies.txt": discrepancy_report(samples, warnings),
    }
    if args.baseline is not None:
        files["propagation.csv"] = propagation_csv(samples, args.baseline)

    digest_payload = {
        "log_sha256": digest.hexdigest(),
        "baseline": args.baseline,
    }
    return Run(digest_payload, files, files["stats.txt"])


def cmd_feasibility(args) -> Run:
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
    return Run(
        {"range_m": args.range_m, "clock": args.clock, "c": args.c},
        {},
        f"range {report.range_m:g} m: required precision {report.required_precision:.4g} s,"
        f" available {report.available_precision:.4g} s -> {verdict}\n",
        code=EXIT_OK if report.feasible else EXIT_INFEASIBLE,
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: building it
    takes about ten times as long as a parse."""
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


def _write_all(out_dir: Path, files: dict[str, str]) -> None:
    """Write files (name to content) into out_dir as UTF-8, all of them or, on error, none.

    Every file goes to a temporary name first; the renames start only once
    every write has succeeded. On an OSError the temporary files are removed
    and the error propagates.
    """
    staged = []
    try:
        for name, content in files.items():
            temporary = out_dir / f".{name}.{os.getpid()}.tmp"
            staged.append((temporary, out_dir / name))
            temporary.write_text(content, encoding="utf-8")
        for temporary, final in staged:
            temporary.replace(final)
    except OSError:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = args.func(args)
        manifest = {
            "command": args.command,
            "version": __version__,
            "config_digest": config_digest(run.digest_payload),
            "seed": run.seed,
            "outputs": list(run.files),
            "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        files = {
            **run.files,
            f"{args.command.replace('-', '_')}_manifest.json": json.dumps(manifest, indent=2) + "\n",
        }
        try:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            _write_all(args.out_dir, files)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out_dir}: {exc}") from exc
    except GsmlocError as exc:
        code, prefix = next((c, p) for kind, c, p in ERROR_EXITS if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    print(run.stdout, end="")
    return run.code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
