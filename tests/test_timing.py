import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmloc.errors import CalibrationError, NegativeIntervalError
from gsmloc.timing import (
    ONE_WAY,
    ROUND_TRIP,
    SPEED_OF_LIGHT,
    TimingModel,
    calibrate_delay,
    distance_from_turnaround,
    percent_error,
    quantize,
    required_precision,
)

# Published calibration table: (turnaround s, calculated m, actual m, printed %error).
# Rows appear in turnaround order; the constant delay back-computed from the
# first row is exactly 7.58e-4 s under one-way conversion.
CALIBRATION_ROWS = [
    (0, 7.58014e-4, 4.2, 4.272, 2.20),
    (2, 7.58019e-4, 5.7, 5.828, 1.02),
    (1, 7.58041e-4, 12.3, 12.176, -1.68),
    (4, 7.58044e-4, 13.2, 13.404, 1.52),
    (3, 7.58056e-4, 16.8, 17.145, 2.01),
    (5, 7.58058e-4, 17.4, 17.596, 1.11),
]


def one_way_model(alpha=0.0, resolution=0.0):
    return TimingModel(alpha=alpha, c=SPEED_OF_LIGHT, mode=ONE_WAY, clock_resolution=resolution)


class TestDistanceFromTurnaround:
    def test_zero_propagation(self):
        model = TimingModel(alpha=7.58e-4, mode=ROUND_TRIP)
        assert distance_from_turnaround(7.58e-4, model) == 0.0
        assert distance_from_turnaround(7.58e-4, one_way_model(alpha=7.58e-4)) == 0.0

    def test_calibration_anchor_row(self):
        model = one_way_model(alpha=7.58e-4)
        assert distance_from_turnaround(7.58014e-4, model) == pytest.approx(4.2, abs=1e-9)

    def test_round_trip_halves(self):
        # (2e-8 s * 3e8 m/s) / 2 = 3.0 m
        model = TimingModel(alpha=7.58e-4, mode=ROUND_TRIP)
        assert distance_from_turnaround(7.58e-4 + 2e-8, model) == pytest.approx(3.0, abs=1e-9)

    def test_below_alpha_raises(self):
        model = TimingModel(alpha=1e-3, mode=ROUND_TRIP)
        with pytest.raises(NegativeIntervalError):
            distance_from_turnaround(0.9e-3, model)

    @given(st.floats(min_value=0, max_value=1e-3), st.floats(min_value=0, max_value=1e-2))
    def test_monotone_in_turnaround(self, alpha, delta):
        model = TimingModel(alpha=alpha, mode=ROUND_TRIP)
        base = distance_from_turnaround(alpha + delta, model)
        bumped = distance_from_turnaround(alpha + delta + 1e-9, model)
        assert bumped >= base

    @given(st.floats(min_value=0, max_value=1e-3), st.floats(min_value=0, max_value=1e-2))
    def test_one_way_doubles_round_trip(self, alpha, delta):
        turnaround = alpha + delta
        one = distance_from_turnaround(turnaround, one_way_model(alpha=alpha))
        both = distance_from_turnaround(turnaround, TimingModel(alpha=alpha, mode=ROUND_TRIP))
        assert one == pytest.approx(2.0 * both, rel=1e-12)


class TestCalibrateDelay:
    def test_anchor_gives_exact_constant(self):
        alpha = calibrate_delay(7.58014e-4, 4.2, one_way_model())
        assert alpha == pytest.approx(7.58e-4, rel=1e-12)

    def test_calibrated_model_reproduces_other_rows(self):
        alpha = calibrate_delay(7.58014e-4, 4.2, one_way_model())
        model = one_way_model(alpha=alpha)
        assert distance_from_turnaround(7.58041e-4, model) == pytest.approx(12.3, abs=1e-6)
        assert distance_from_turnaround(7.58058e-4, model) == pytest.approx(17.4, abs=1e-6)

    def test_table_consistency_within_5cm(self):
        alpha = calibrate_delay(CALIBRATION_ROWS[0][1], CALIBRATION_ROWS[0][2], one_way_model())
        model = one_way_model(alpha=alpha)
        for _, turnaround, calculated, _, _ in CALIBRATION_ROWS:
            assert distance_from_turnaround(turnaround, model) == pytest.approx(
                calculated, abs=0.05
            )

    def test_round_trip_mode_uses_two_legs(self):
        alpha = calibrate_delay(1e-3, 15.0, TimingModel(mode=ROUND_TRIP))
        assert alpha == pytest.approx(1e-3 - 2 * 15.0 / SPEED_OF_LIGHT, rel=1e-12)

    def test_negative_constant_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_delay(1e-8, 100.0, one_way_model())

    @given(
        st.floats(min_value=1e-6, max_value=1e-2),
        st.floats(min_value=0, max_value=1e3),
    )
    def test_round_trips_the_anchor(self, turnaround, dist):
        model = one_way_model()
        try:
            alpha = calibrate_delay(turnaround, dist, model)
        except CalibrationError:
            assert turnaround < dist / SPEED_OF_LIGHT + 1e-12
            return
        recovered = distance_from_turnaround(turnaround, one_way_model(alpha=alpha))
        assert recovered == pytest.approx(dist, rel=1e-9, abs=1e-9)


class TestQuantize:
    def test_truncates_to_microseconds(self):
        assert quantize(1.2345678e-3, 1e-6) == pytest.approx(1.234e-3, rel=1e-12)

    def test_zero_resolution_is_identity(self):
        t = 0.123456789
        assert quantize(t, 0.0) is t or quantize(t, 0.0) == t

    def test_sub_resolution_interval_vanishes(self):
        # a 0.5833 us interval is invisible to a 1 us clock
        assert quantize(0.5833e-6, 1e-6) == 0.0

    def test_grid_points_are_fixed(self):
        assert quantize(2e-6, 1e-6) == pytest.approx(2e-6, rel=1e-15)

    @given(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=1e-9, max_value=1.0),
    )
    def test_idempotent(self, t, resolution):
        once = quantize(t, resolution)
        assert quantize(once, resolution) == once

    @given(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=1e-9, max_value=1.0),
    )
    def test_never_exceeds_input(self, t, resolution):
        assert quantize(t, resolution) <= t

    def test_negative_resolution_rejected(self):
        with pytest.raises(ValueError):
            quantize(1.0, -1e-6)


class TestRequiredPrecision:
    def test_175m_bound(self):
        report = required_precision(175.0, available=1e-6)
        assert report.required_precision == pytest.approx(0.5833e-6, rel=1e-3)
        assert not report.feasible

    def test_feasible_with_faster_clock(self):
        assert required_precision(175.0, available=1e-7).feasible

    def test_unit_case(self):
        report = required_precision(3e8, c=3e8, available=1.0)
        assert report.required_precision == 1.0
        assert report.feasible

    def test_invariant_fields(self):
        report = required_precision(42.0, available=5e-8)
        assert report.required_precision == 42.0 / SPEED_OF_LIGHT
        assert report.feasible == (report.available_precision <= report.required_precision)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            required_precision(0.0)


class TestPercentError:
    @pytest.mark.parametrize(
        "actual,calculated,expected",
        [(13.404, 13.2, 1.52), (17.145, 16.8, 2.01), (17.596, 17.4, 1.11)],
    )
    def test_matches_published_rows(self, actual, calculated, expected):
        assert round(percent_error(actual, calculated), 2) == expected

    def test_exact_agreement(self):
        assert percent_error(5.0, 5.0) == 0.0

    def test_zero_actual_undefined(self):
        with pytest.raises(ValueError):
            percent_error(0.0, 1.0)

    def test_sign_convention(self):
        # calculated overshoot gives a negative error
        assert percent_error(10.0, 11.0) == pytest.approx(-10.0)


class TestTimingModelValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TimingModel(c=0.0)
        with pytest.raises(ValueError):
            TimingModel(alpha=-1e-9)
        with pytest.raises(ValueError):
            TimingModel(clock_resolution=-1.0)
        with pytest.raises(ValueError):
            TimingModel(mode="diagonal")
