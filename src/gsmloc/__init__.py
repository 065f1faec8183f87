"""Time-of-flight ranging, trilateration, and ping-trace analysis toolkit.

Submodules:
    geometry:       Point3 / TowerSite value types, Euclidean distance, and
                    hexagonal cell layout generation.
    timing:         turn-around-time to distance conversion, constant-delay
                    calibration, clock quantization, and the timestamp
                    precision feasibility bound.
    trilateration:  sphere-difference systems and one position solver for
                    three or more towers (least squares, plus the quadratic
                    along the tower-plane normal for coplanar towers).
    simulator:      deterministic execution of the request/acknowledge
                    ranging protocol from closed-form arrival times.
    ingest:         ping-trace parsing, request/reply pairing, baseline
                    subtraction, and RTT statistics.
    cli:            the ``gsmloc`` command-line interface.
"""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    ConfigError,
    DegenerateGeometryError,
    EmptyDataError,
    GsmlocError,
    InsufficientMeasurementsError,
    NegativeIntervalError,
)
from .geometry import Point3, TowerSite, distance, hex_cell_layout
from .ingest import (
    PingLog,
    PingRecord,
    RttSample,
    RttTable,
    pair_rtts,
    parse_ping_log,
    rtt_stats,
    subtract_baseline,
)
from .simulator import (
    Event,
    EventKind,
    RequestPacket,
    ScenarioConfig,
    Trace,
    first_k_acks,
    format_trace,
    measurement_csv,
    run_scenario,
    run_trials,
)
from .timing import (
    ONE_WAY,
    ROUND_TRIP,
    SPEED_OF_LIGHT,
    FeasibilityReport,
    TimingModel,
    calibrate_delay,
    distance_from_turnaround,
    percent_error,
    quantize,
    required_precision,
)
from .trilateration import (
    LEAST_SQUARES,
    NONNEGATIVE,
    NONPOSITIVE,
    THREE_TOWER_QUADRATIC,
    UNIQUE,
    LinearSystem3,
    LocationFix,
    RangeMeasurement,
    build_difference_system,
    multilaterate_lsq,
    residuals,
    solve_position,
)
