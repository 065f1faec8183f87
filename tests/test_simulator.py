import dataclasses
import math
from operator import is_

import numpy as np
import pytest
import simulator_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsmloc import simulator
from gsmloc.errors import (
    ConfigError,
    DegenerateGeometryError,
    GsmlocError,
    InsufficientMeasurementsError,
    NegativeIntervalError,
)
from gsmloc.geometry import Point3, TowerSite, distance, hex_cell_layout
from gsmloc.simulator import (
    EventKind,
    ScenarioConfig,
    first_k_acks,
    format_trace,
    measurement_csv,
    run_scenario,
    run_trials,
)
from gsmloc.timing import ONE_WAY, SPEED_OF_LIGHT, TimingModel
from gsmloc.trilateration import NONNEGATIVE, RangeMeasurement, solve_position

RIGHT_TRIANGLE = (
    TowerSite(0, Point3(0, 0, 0)),
    TowerSite(1, Point3(10, 0, 0)),
    TowerSite(2, Point3(0, 10, 0)),
)


def basic_config(**overrides):
    defaults = dict(
        towers=RIGHT_TRIANGLE,
        mobile_true_position=Point3(3, 4, 0),
        timing=TimingModel(),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestRunScenario:
    def test_exact_geometry_round_trip(self):
        trace, measurements, fix = run_scenario(basic_config())
        by_id = {m.tower.id: m.range_m for m in measurements}
        assert by_id[0] == pytest.approx(5.0, rel=1e-12)
        assert by_id[1] == pytest.approx(math.sqrt(65.0), rel=1e-12)
        assert by_id[2] == pytest.approx(math.sqrt(45.0), rel=1e-12)
        assert fix.position.x == pytest.approx(3.0, abs=1e-9)
        assert fix.position.y == pytest.approx(4.0, abs=1e-9)
        assert fix.position.z == pytest.approx(0.0, abs=1e-9)

    def test_acks_ordered_by_distance(self):
        _, measurements, _ = run_scenario(basic_config())
        # nearest tower's signal returns first: 5 < sqrt(45) < sqrt(65)
        assert [m.tower.id for m in measurements] == [0, 2, 1]

    def test_mobile_on_tower(self):
        config = basic_config(mobile_true_position=Point3(10, 0, 0))
        _, measurements, _ = run_scenario(config)
        assert measurements[0].tower.id == 1
        assert measurements[0].range_m == 0.0

    def test_event_times(self):
        config = basic_config(tower_processing_delay=1e-6)
        trace, _, _ = run_scenario(config)
        c = SPEED_OF_LIGHT
        for event in trace.events:
            tower = next(t for t in RIGHT_TRIANGLE if t.id == event.tower_id)
            d = distance(Point3(3, 4, 0), tower.position)
            if event.kind is EventKind.REQUEST_ARRIVES:
                assert event.time == pytest.approx(d / c, rel=1e-12)
            else:
                assert event.time == pytest.approx(2 * d / c + 1e-6, rel=1e-12)

    def test_ack_echoes_request_timestamp(self):
        config = basic_config(request_time=2.5)
        trace, _, _ = run_scenario(config)
        for event in trace.events:
            if event.kind is EventKind.ACK_ARRIVES:
                assert event.payload.timestamp == 2.5

    def test_processing_delay_recovered_with_matching_alpha(self):
        config = basic_config(
            tower_processing_delay=1e-6,
            timing=TimingModel(alpha=1e-6),
        )
        _, measurements, fix = run_scenario(config)
        assert fix.position.x == pytest.approx(3.0, abs=1e-9)
        assert measurements[0].range_m == pytest.approx(5.0, rel=1e-9)

    def test_coarse_clock_degenerates_like_real_hardware(self):
        # all towers within 150 m: every round trip quantizes to the same
        # value on a 1 us clock, so the ranges carry no information
        config = basic_config(timing=TimingModel(clock_resolution=1e-6))
        _, measurements, fix = run_scenario(config)
        assert len({m.range_m for m in measurements}) == 1
        assert max(fix.residuals) > 1.0

    def test_insufficient_acks_with_total_loss(self):
        config = basic_config(packet_loss=1.0)
        with pytest.raises(InsufficientMeasurementsError):
            run_scenario(config)

    def test_loss_is_reproducible_per_trial(self):
        config = basic_config(
            towers=tuple(hex_cell_layout(Point3(0, 0, 0), 1000.0, 2)),
            mobile_true_position=Point3(120.0, -40.0, 0.0),
            packet_loss=0.35,
            rng_seed=7,
        )
        first = run_scenario(config, trial_index=3)
        second = run_scenario(config, trial_index=3)
        assert format_trace(first[0]) == format_trace(second[0])

    def test_negative_trial_index_rejected(self):
        for config in (basic_config(), basic_config(packet_loss=0.1)):
            with pytest.raises(ValueError, match="trial_index must be >= 0, got -1"):
                run_scenario(config, -1)


class TestDeterminism:
    def test_trace_bytes_identical_across_runs(self):
        config = basic_config(rng_seed=42)
        a = format_trace(run_scenario(config)[0])
        b = format_trace(run_scenario(config)[0])
        assert a == b

    def test_trace_is_time_sorted_with_id_tiebreak(self):
        # four towers equidistant from the mobile: acks tie, ids break it
        towers = (
            TowerSite(3, Point3(5, 0, 0)),
            TowerSite(1, Point3(-5, 0, 0)),
            TowerSite(2, Point3(0, 5, 0)),
            TowerSite(0, Point3(0, -5, 0)),
        )
        config = ScenarioConfig(towers=towers, mobile_true_position=Point3(0, 0, 0))
        trace, measurements, _ = run_scenario(config)
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        acks = [e.tower_id for e in trace.events if e.kind is EventKind.ACK_ARRIVES]
        assert acks == [0, 1, 2, 3]
        assert [m.tower.id for m in measurements] == [0, 1, 2]

    def test_run_trials_is_pure_per_index(self):
        config = basic_config(
            towers=tuple(hex_cell_layout(Point3(0, 0, 0), 800.0, 2)),
            mobile_true_position=Point3(90, -50, 0),
            trials=4,
            packet_loss=0.2,
            rng_seed=11,
        )
        results = run_trials(config)
        assert len(results) == 4
        again = [run_scenario(config, trial_index=i) for i in range(4)]
        for (t1, _, _), (t2, _, _) in zip(results, again):
            assert format_trace(t1) == format_trace(t2)


class TestFirstKAcks:
    def test_all_six_in_distance_order(self):
        towers = tuple(hex_cell_layout(Point3(50, 0, 0), 200.0, 1))
        config = ScenarioConfig(towers=towers, mobile_true_position=Point3(120, 30, 0))
        trace, _, _ = run_scenario(config)
        measurements = first_k_acks(trace, 6)
        dists = [m.range_m for m in measurements]
        assert dists == sorted(dists)
        expected = sorted(
            towers, key=lambda t: distance(Point3(120, 30, 0), t.position)
        )
        assert [m.tower.id for m in measurements] == [t.id for t in expected[:6]]

    def test_nearest_three_from_hex_cell(self):
        towers = tuple(hex_cell_layout(Point3(0, 0, 0), 500.0, 1))
        mobile = Point3(100, 60, 0)
        config = ScenarioConfig(towers=towers, mobile_true_position=mobile)
        trace, measurements, _ = run_scenario(config)
        nearest = sorted(towers, key=lambda t: distance(mobile, t.position))[:3]
        assert {m.tower.id for m in measurements} == {t.id for t in nearest}

    def test_k_below_three_rejected(self):
        trace, _, _ = run_scenario(basic_config())
        with pytest.raises(ValueError):
            first_k_acks(trace, 2)

    def test_k_beyond_acks_rejected(self):
        trace, _, _ = run_scenario(basic_config())
        with pytest.raises(InsufficientMeasurementsError):
            first_k_acks(trace, 4)


class TestQuantizationDegradation:
    def test_mean_error_nondecreasing_smoke(self):
        towers = tuple(hex_cell_layout(Point3(0, 0, 0), 3000.0, 1))
        rng = np.random.default_rng(2024)
        mobiles = [
            Point3(*(rng.uniform(-1200, 1200, size=2)), 0.0) for _ in range(40)
        ]
        means = []
        for resolution in (0.0, 1e-9, 1e-8, 1e-7):
            errors = []
            for mobile in mobiles:
                config = ScenarioConfig(
                    towers=towers,
                    mobile_true_position=mobile,
                    timing=TimingModel(clock_resolution=resolution),
                )
                _, _, fix = run_scenario(config)
                errors.append(distance(fix.position, mobile))
            means.append(float(np.mean(errors)))
        assert means == sorted(means)


class TestScenarioConfigValidation:
    def test_too_few_towers(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(towers=RIGHT_TRIANGLE[:2], mobile_true_position=Point3(0, 0, 0))

    def test_duplicate_ids(self):
        towers = (RIGHT_TRIANGLE[0], RIGHT_TRIANGLE[1], TowerSite(0, Point3(5, 5, 0)))
        with pytest.raises(ConfigError):
            ScenarioConfig(towers=towers, mobile_true_position=Point3(0, 0, 0))

    def test_bad_knobs(self):
        with pytest.raises(ConfigError):
            basic_config(trials=0)
        with pytest.raises(ConfigError):
            basic_config(packet_loss=1.5)
        with pytest.raises(ConfigError):
            basic_config(tower_processing_delay=-1e-9)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            basic_config(rng_seed=-1)
        # A library caller gets the CLI's rules: no one-way timing and
        # nothing above the solver's magnitude bound.
        with pytest.raises(ConfigError, match="round trips"):
            basic_config(timing=TimingModel(mode=ONE_WAY))
        with pytest.raises(ConfigError, match="at most 1e\\+75"):
            basic_config(towers=(TowerSite(0, Point3(1e200, 0, 0)),) + RIGHT_TRIANGLE[1:])
        with pytest.raises(ConfigError, match="at most 1e\\+75"):
            basic_config(mobile_true_position=Point3(0, 0, 1e200))


class TestRenderers:
    def test_trace_format_shape(self):
        trace, _, _ = run_scenario(basic_config())
        lines = format_trace(trace).splitlines()
        assert len(lines) == 6
        for line in lines:
            time_s, kind, tower_id, detail = line.split("\t")
            assert len(time_s.split(".")[1]) == 9
            assert kind in ("request_arrives", "ack_arrives")
            assert tower_id in ("0", "1", "2")

    def test_trace_with_no_arrivals_is_one_newline(self):
        # Total loss leaves nothing; run_scenario raises before it returns such a trace.
        config = basic_config(packet_loss=1.0)
        trace = simulator._picked_trace(config, config.exchange, 0)
        assert trace.events == ()
        assert format_trace(trace) == oracle.format_trace(trace) == "\n"

    def test_measurement_csv_columns(self):
        trace, measurements, _ = run_scenario(basic_config())
        csv_text = measurement_csv(measurements, Point3(3, 4, 0))
        lines = csv_text.splitlines()
        assert lines[0] == "tower_id,turnaround_s,distance_m,actual_m,pct_error"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == pytest.approx(5.0, abs=1e-3)
        assert float(first[3]) == pytest.approx(5.0, abs=1e-3)
        assert float(first[4]) == pytest.approx(0.0, abs=0.01)

    def test_measurement_csv_zero_actual_leaves_pct_blank(self):
        config = basic_config(mobile_true_position=Point3(0, 0, 0))
        trace, measurements, _ = run_scenario(config)
        csv_text = measurement_csv(measurements, Point3(0, 0, 0))
        first_row = csv_text.splitlines()[1]
        assert first_row.endswith(",")


@st.composite
def scenario_configs(draw, tower_counts=st.integers(3, 12)):
    """3-12 towers (or tower_counts) with arbitrary unique ids on a coarse grid.

    The grid makes distances tie and lets sites coincide with each other
    or with the mobile. An alpha 300 m of range above the processing delay
    makes near towers' acks raise NegativeIntervalError while a trial that
    lost them can still fix.
    """
    n = draw(tower_counts)
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    coord = st.integers(-4, 4).map(lambda v: 250.0 * v)
    height = st.sampled_from([0.0, 40.0])
    towers = tuple(TowerSite(i, Point3(draw(coord), draw(coord), draw(height))) for i in ids)
    delay = draw(st.sampled_from([0.0, 1e-6]))
    timing = TimingModel(
        alpha=draw(st.sampled_from([0.0, delay, delay + 2 * 300.0 / SPEED_OF_LIGHT])),
        clock_resolution=draw(st.sampled_from([0.0, 1e-9, 1e-7])),
    )
    return ScenarioConfig(
        towers=towers,
        mobile_true_position=Point3(draw(coord), draw(coord), 0.0),
        timing=timing,
        tower_processing_delay=delay,
        rng_seed=draw(st.integers(0, 2**31)),
        request_time=draw(st.sampled_from([0.0, 2.5])),
        packet_loss=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3), st.floats(0.0, 1.0))),
    )


@st.composite
def hex_configs(draw):
    """Hex cells of 1-5 rings (6 to 90 towers) with up to 50% packet loss.

    Large cells make both batches of loss draws long, which the small
    configs above never do.
    """
    radius = draw(st.sampled_from([500.0, 3000.0]))
    rings = draw(st.integers(1, 5))
    towers = tuple(hex_cell_layout(Point3(0.0, 0.0, 0.0), radius, rings))
    coord = st.floats(-rings * radius, rings * radius)
    delay = draw(st.sampled_from([0.0, 1e-6]))
    return ScenarioConfig(
        towers=towers,
        mobile_true_position=Point3(draw(coord), draw(coord), 0.0),
        timing=TimingModel(alpha=delay, clock_resolution=draw(st.sampled_from([0.0, 1e-9, 1e-8, 1e-7]))),
        tower_processing_delay=delay,
        rng_seed=draw(st.integers(0, 2**31)),
        request_time=draw(st.sampled_from([0.0, 0.25])),
        packet_loss=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
    )


@st.composite
def centred_hex_configs(draw):
    """Hex cells of 1-3 rings with the mobile on their centre: most towers of a ring tie, so arrivals tie."""
    radius = draw(st.sampled_from([500.0, 3000.0]))
    return ScenarioConfig(
        towers=tuple(hex_cell_layout(Point3(0.0, 0.0, 0.0), radius, draw(st.integers(1, 3)))),
        mobile_true_position=Point3(0.0, 0.0, 0.0),
        timing=TimingModel(clock_resolution=draw(st.sampled_from([0.0, 1e-9, 1e-7]))),
        rng_seed=draw(st.integers(0, 2**31)),
        packet_loss=draw(st.floats(0.0, 0.5)),
    )


@st.composite
def pick_cases(draw):
    """(config, trial_index) over every config strategy, with edge losses and seeds of several uint32 words."""
    config = draw(st.one_of(scenario_configs(), scenario_configs(st.just(3)), hex_configs(), centred_hex_configs()))
    loss = draw(st.one_of(st.just(config.packet_loss), st.sampled_from([0.0, 1e-12, 0.5, 1.0])))
    seed = draw(st.one_of(st.just(config.rng_seed), st.integers(2**32, 2**100)))
    trial_index = draw(st.one_of(st.integers(0, 7), st.integers(2**32, 2**100)))
    return dataclasses.replace(config, packet_loss=loss, rng_seed=seed), trial_index


def _outcome(run, render, config, trial_index):
    try:
        trace, measurements, fix = run(config, trial_index)
    except (GsmlocError, ValueError) as exc:
        return type(exc), str(exc)
    events = [(e.time, e.kind, e.tower_id, e.payload.timestamp) for e in trace.events]
    return events, render(trace), measurements, fix


class TestHeapOracle:
    @settings(max_examples=300, deadline=None)
    @given(scenario_configs())
    def test_matches_heap_engine(self, config):
        for trial_index in (0, 1, 7):
            assert _outcome(run_scenario, format_trace, config, trial_index) == _outcome(
                oracle.run_scenario, oracle.format_trace, config, trial_index
            )

    @settings(max_examples=150, deadline=None)
    @given(hex_configs())
    def test_matches_heap_engine_on_hex_cells(self, config):
        for trial_index in (0, 1, 7):
            assert _outcome(run_scenario, format_trace, config, trial_index) == _outcome(
                oracle.run_scenario, oracle.format_trace, config, trial_index
            )


def _lossy_hex_config(**overrides):
    return basic_config(
        towers=tuple(hex_cell_layout(Point3(0, 0, 0), 800.0, 2)),
        mobile_true_position=Point3(90, -50, 0),
        packet_loss=0.2,
        rng_seed=11,
        **overrides,
    )


def _acks_outcome(read):
    """read()'s measurements, or its error."""
    try:
        return read()
    except (GsmlocError, ValueError) as exc:
        return type(exc), str(exc)


class TestPick:
    """_picked_trace against the list-based pick it replaced (simulator_oracle.picked_trace)."""

    @settings(max_examples=300, deadline=None)
    @given(pick_cases())
    # every edge loss on one 18-tower cell, each with seeds of several uint32 words
    @example(case=(dataclasses.replace(_lossy_hex_config(), packet_loss=0.0), 0))
    @example(case=(dataclasses.replace(_lossy_hex_config(), packet_loss=1e-12, rng_seed=2**64 + 5), 2**40))
    @example(case=(dataclasses.replace(_lossy_hex_config(), packet_loss=0.5, rng_seed=2**64 + 5), 2**40))
    @example(case=(dataclasses.replace(_lossy_hex_config(), packet_loss=1.0, rng_seed=2**64 + 5), 2**40))
    def test_matches_the_list_oracle(self, case):
        config, trial_index = case
        trace = simulator._picked_trace(config, config.exchange, trial_index)
        arrived, acked, events = oracle.picked_trace(config, config.exchange, trial_index)
        assert list(trace.arrived) == arrived
        assert trace.acked == acked
        assert len(trace.events) == len(events) and all(map(is_, trace.events, events))
        for k in range(3, len(acked) + 2):
            acks = _acks_outcome(lambda: first_k_acks(trace, k))
            assert acks == _acks_outcome(lambda: oracle.picked_first_k_acks(config, events, k))
            if isinstance(acks, list):
                assert acks.slots == acked[:k]


class TestTracedNames:
    """perfbench's traced sim-sweep run wraps gsmloc.simulator module globals
    (first_k_acks, solve_position, distance, distance_from_turnaround,
    format_trace, measurement_csv); its SimSweep.no_fix also swaps
    first_k_acks to recover a failed trial's trace, and fails the run unless
    that yields exactly one trace. If run_scenario stopped calling them
    through the module, its per-layer metrics would read 0."""

    @staticmethod
    def spy(monkeypatch, name):
        """Each call of simulator.<name> from now on, as [args, result]; result stays None if the call raises."""
        calls, original = [], getattr(simulator, name)

        def wrapper(*args, **kwargs):
            calls.append([args, None])
            calls[-1][1] = original(*args, **kwargs)
            return calls[-1][1]

        monkeypatch.setattr(simulator, name, wrapper)
        return calls

    def test_first_k_acks_once_per_trial(self, monkeypatch):
        calls = self.spy(monkeypatch, "first_k_acks")
        # a 1-ring cell at 30% loss, as in sim-sweep: about half the trials lack 3 acks and raise after the call
        config = basic_config(towers=tuple(hex_cell_layout(Point3(0, 0, 0), 3000.0, 1)), packet_loss=0.3, rng_seed=3)
        raised = 0
        for trial_index in range(12):
            try:
                trace, measurements, _ = run_scenario(config, trial_index)
            except InsufficientMeasurementsError:
                raised += 1
                (trace, k), measurements = calls[-1]
                assert k == 3 and measurements is None and len(trace.acked) < 3
            else:
                assert calls[-1] == [(trace, 3), measurements]
            assert len(calls) == trial_index + 1
        assert 0 < raised < 12

    def test_a_memo_miss_solves_through_the_module_global(self, monkeypatch):
        calls = self.spy(monkeypatch, "solve_position")
        config = _lossy_hex_config()
        _, measurements, fix = run_scenario(config, 0)
        [[(towers, ranges), solved]] = calls
        assert solved is fix
        assert list(towers) == [m.tower for m in measurements] and list(ranges) == [m.range_m for m in measurements]
        # the same trial again hits the memo and calls nothing
        assert run_scenario(config, 0)[2] is fix and len(calls) == 1

    def test_each_conversion_goes_through_the_module_global(self, monkeypatch):
        calls = self.spy(monkeypatch, "distance_from_turnaround")
        config = _lossy_hex_config()
        trace = run_scenario(config, 0)[0]
        assert len(calls) == 3
        every = first_k_acks(trace, len(trace.acked))
        assert [result for _, result in calls] == [m.range_m for m in every]


def _trial(config, trial_index):
    """What simulate writes for one trial: trace text, ranges of the first
    three and of every ack, and the fix; or the error."""
    try:
        trace, measurements, fix = run_scenario(config, trial_index)
        n_acks = sum(1 for e in trace.events if e.kind is EventKind.ACK_ARRIVES)
        return format_trace(trace), measurements, first_k_acks(trace, n_acks), fix
    except (GsmlocError, ValueError) as exc:
        return type(exc), str(exc)


def _every_ack(config, trial_index):
    """first_k_acks over every ack of one trial, or None if the trial raises."""
    try:
        trace = run_scenario(config, trial_index)[0]
    except (GsmlocError, ValueError):
        return None
    return first_k_acks(trace, sum(1 for e in trace.events if e.kind is EventKind.ACK_ARRIVES))


@pytest.fixture
def distance_calls(monkeypatch):
    """The second points of every simulator.distance call made during the test."""
    calls = []

    def counted(a, b):
        calls.append(b)
        return distance(a, b)

    monkeypatch.setattr(simulator, "distance", counted)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """The tower ids of every simulator.solve_position call made during the test."""
    calls = []

    def counted(towers, ranges, z_convention):
        calls.append(tuple(t.id for t in towers))
        return solve_position(towers, ranges, z_convention=z_convention)

    monkeypatch.setattr(simulator, "solve_position", counted)
    return calls


def _collinear_first_three_config(**overrides):
    """Towers 0-2 on the x axis nearest the mobile, tower 3 far off it: its first three acks are collinear."""
    towers = (
        TowerSite(0, Point3(0, 0, 0)),
        TowerSite(1, Point3(10, 0, 0)),
        TowerSite(2, Point3(20, 0, 0)),
        TowerSite(3, Point3(0, 100, 0)),
        TowerSite(4, Point3(30, 60, 0)),
    )
    return basic_config(towers=towers, mobile_true_position=Point3(10, -1, 0), **overrides)


class TestExchangeTable:
    """What depends on the config alone is computed once per config object that runs several trials."""

    def test_run_trials_measures_each_distance_once(self, distance_calls):
        config = _lossy_hex_config(trials=6)
        run_trials(config)
        assert len(distance_calls) == len(config.towers)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(scenario_configs(), hex_configs()), st.lists(st.integers(0, 7), min_size=2, max_size=6))
    def test_trials_in_any_order_match_a_fresh_config(self, config, trial_indices):
        # the lazily filled lines and ranges carry nothing from one trial to the next
        for trial_index in trial_indices:
            assert _trial(config, trial_index) == _trial(dataclasses.replace(config), trial_index)

    def test_first_trial_picks_from_the_table(self, distance_calls):
        config = _lossy_hex_config()
        for trial_index in range(3):
            trace = run_scenario(config, trial_index)[0]
            assert trace.exchange is config.exchange
            n_acks = sum(1 for e in trace.events if e.kind is EventKind.ACK_ARRIVES)
            measurement_csv(first_k_acks(trace, n_acks), config.mobile_true_position)
        assert len(distance_calls) == len(config.towers)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(scenario_configs(), hex_configs()),
        st.lists(st.integers(0, 7), min_size=1, max_size=4),
        st.integers(0, 10**6),
    )
    def test_measurement_csv_matches_the_per_row_oracle(self, config, trial_indices, pick):
        # the mobile on a tower leaves that ack's pct_error blank
        on_tower = dataclasses.replace(config, mobile_true_position=config.towers[pick % len(config.towers)].position)
        for reused in (config, on_tower):
            for trial_index in trial_indices:
                for run_config in (reused, dataclasses.replace(reused)):
                    if _every_ack(run_config, trial_index) is None:
                        continue
                    mobile = run_config.mobile_true_position
                    elsewhere = Point3(mobile.x + 250.0, mobile.y - 250.0, 0.0)
                    for truth in (mobile, Point3(*mobile.as_tuple()), elsewhere):
                        acks = _every_ack(run_config, trial_index)
                        assert measurement_csv(acks, truth) == oracle.measurement_csv(acks, truth)
                    replaced, appended = _every_ack(run_config, trial_index), _every_ack(run_config, trial_index)
                    first = replaced[0]
                    replaced[0] = RangeMeasurement(first.tower, first.turnaround, 2.0 * first.range_m + 1.0)
                    appended.append(first)
                    sliced = _every_ack(run_config, trial_index)[1:]
                    for changed in (replaced, appended, sliced):
                        assert measurement_csv(changed, mobile) == oracle.measurement_csv(changed, mobile)

    def test_traces_of_equal_configs_compare_equal(self):
        config = _lossy_hex_config()
        twin = dataclasses.replace(config)
        run_scenario(config, 0)
        trace, twin_trace = run_scenario(config, 2)[0], run_scenario(twin, 2)[0]
        assert trace == twin_trace and hash(trace) == hash(twin_trace)
        assert trace != run_scenario(config, 3)[0]

    @pytest.mark.parametrize(
        "overrides, outcomes",
        [
            (dict(timing=TimingModel(alpha=1e-3)), [(0, NegativeIntervalError)] * 3),
            (dict(timing=TimingModel(clock_resolution=1e-9), request_time=1e300), [(0, ConfigError)] * 3),
            # near towers' acks raise; trial 4 lost them and fixes from farther ones
            (
                dict(
                    towers=tuple(hex_cell_layout(Point3(0, 0, 0), 1000.0, 2)),
                    mobile_true_position=Point3(900, 0, 0),
                    timing=TimingModel(alpha=1e-5),
                    packet_loss=0.5,
                    rng_seed=4,
                ),
                [(0, NegativeIntervalError), (4, None), (0, NegativeIntervalError), (4, None)],
            ),
        ],
        ids=["negative-interval", "clock-too-fine", "partial-failure"],
    )
    def test_errors_recur_on_the_same_config(self, overrides, outcomes):
        config = basic_config(**overrides)
        # the first trial builds the table and every later one reads it
        for trial_index, error in outcomes:
            if error is None:
                assert run_scenario(config, trial_index)[1:] == run_scenario(dataclasses.replace(config), trial_index)[1:]
            else:
                with pytest.raises(error):
                    run_scenario(config, trial_index)

    def test_run_trials_solves_once_per_first_three(self, solve_calls):
        config = _lossy_hex_config(trials=120)
        results = run_trials(config)
        triples = {tuple(measurements.slots) for _, measurements, _ in results}
        assert len(solve_calls) == len(triples) < config.trials
        assert set(config.exchange.fixes) == triples

    def test_equal_first_three_share_one_fix(self):
        config = _lossy_hex_config(trials=120)
        by_triple = {}
        for _, measurements, fix in run_trials(config):
            assert by_triple.setdefault(tuple(measurements.slots), fix) is fix
        assert len(by_triple) < config.trials

    def test_each_fix_equals_a_fresh_solve(self):
        config = _lossy_hex_config(trials=60)
        for _, measurements, fix in run_trials(config):
            fresh = solve_position(
                [m.tower for m in measurements], [m.range_m for m in measurements], z_convention=NONNEGATIVE
            )
            # dataclass equality: position, residuals, method, z_branch and z_clamped
            assert fix == fresh

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_a_collinear_first_three_raises_on_every_repeat(self, solve_calls, loss):
        config = _collinear_first_three_config(packet_loss=loss, rng_seed=3)
        collinear = 0
        for trial_index in list(range(12)) * 2:
            try:
                _, measurements, _ = run_scenario(config, trial_index)
            except DegenerateGeometryError:
                collinear += 1
            except InsufficientMeasurementsError:
                continue
            else:
                assert {m.tower.id for m in measurements} != {0, 1, 2}
        assert collinear >= 2
        assert all(set(config.exchange.sites[s].id for s in key) != {0, 1, 2} for key in config.exchange.fixes)
        # every collinear trial solves again; every other triple solves once
        assert len(solve_calls) == collinear + len(config.exchange.fixes)

    def test_a_replaced_config_starts_with_an_empty_memo(self):
        config = _lossy_hex_config(trials=6)
        run_trials(config)
        assert config.exchange.fixes
        twin = dataclasses.replace(config)
        assert twin.exchange is not config.exchange
        assert twin.exchange.fixes == {}
