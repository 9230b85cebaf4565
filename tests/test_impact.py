import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import ValidationError


class TestImpactRatio:
    def test_hand_values(self):
        ratios = el.model_from_estimates([np.array([10.0, 20.0])], [100.0])
        assert ratios.tolist() == [[0.1, 0.2]]

    def test_zero_effect(self):
        assert el.model_from_estimates([np.zeros(3)], [17.0]).tolist() == [[0.0, 0.0, 0.0]]

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValidationError):
            el.model_from_estimates([np.ones(2)], [0.0])
        with pytest.raises(ValidationError):
            el.model_from_estimates([np.ones(2)], [-3.0])


finite_effects = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
    lambda v: v == 0.0 or abs(v) > 1e-200
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    d=st.integers(min_value=1, max_value=6),
    exponent=st.integers(min_value=-10, max_value=10),
)
def test_ratio_round_trips_through_power_of_two_scales(data, d, exponent):
    """Dividing and re-multiplying by a power-of-two scale is bit-exact.

    Holds for zeros and normal-range magnitudes; subnormal quotients would
    lose mantissa bits, so the draw keeps clear of that range.
    """
    delta = np.array(data.draw(st.lists(finite_effects, min_size=d, max_size=d)))
    scale = 2.0**exponent
    ratios = el.model_from_estimates([delta], [scale])
    assert ratios.shape == (1, d)
    assert np.array_equal(ratios[0] * scale, delta)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    years=st.integers(min_value=1, max_value=5),
    d=st.integers(min_value=1, max_value=6),
    target_scale=st.floats(min_value=1e-3, max_value=1e6),
)
def test_prediction_is_the_mean_of_per_year_ratios(data, years, d, target_scale):
    effects = [
        np.array(data.draw(st.lists(finite_effects, min_size=d, max_size=d)))
        for _ in range(years)
    ]
    scales = data.draw(
        st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=years, max_size=years)
    )
    got = el.predict_effect(el.model_from_estimates(effects, scales), target_scale)
    want = np.stack([e / s for e, s in zip(effects, scales)]).mean(axis=0) * target_scale
    assert got.tobytes() == want.tobytes()


class TestImpactRatioModel:
    def test_averaged_ratio_is_cross_year_mean(self):
        ratios = el.model_from_estimates(
            [np.array([5.0, 15.0]), np.array([18.0, 30.0])], [50.0, 60.0]
        )
        np.testing.assert_allclose(ratios.mean(axis=0), [0.2, 0.4])

    def test_validations(self):
        with pytest.raises(ValidationError, match="at least one training year"):
            el.model_from_estimates([], [])
        with pytest.raises(ValidationError, match="year 1"):
            el.model_from_estimates([np.array([0.1]), np.array([0.1, 0.2])], [10.0, 10.0])
        with pytest.raises(ValidationError, match="year 0"):
            el.model_from_estimates([np.array([0.1])], [0.0])
        with pytest.raises(ValidationError, match="2 scales"):
            el.model_from_estimates([np.array([0.1])], [10.0, 10.0])


class TestPredictEffect:
    def test_hand_values(self):
        ratios = el.model_from_estimates([np.array([5.0, 10.0])], [50.0])
        np.testing.assert_allclose(el.predict_effect(ratios, 200.0), [20.0, 40.0])

    def test_two_year_mean(self):
        ratios = el.model_from_estimates([np.array([1.0]), np.array([3.0])], [10.0, 10.0])
        assert el.predict_effect(ratios, 100.0)[0] == pytest.approx(20.0)

    def test_nonpositive_target_scale_rejected(self):
        ratios = el.model_from_estimates([np.array([1.0])], [10.0])
        with pytest.raises(ValidationError):
            el.predict_effect(ratios, 0.0)

    def test_scale_consistency_round_trip(self):
        delta = np.array([3.7, -1.2, 0.05])
        scale = 87.3
        ratios = el.model_from_estimates([delta], [scale])
        recovered = el.predict_effect(ratios, scale)
        np.testing.assert_allclose(recovered, delta, rtol=1e-12)


class TestImpactForSeries:
    def test_hand_values(self):
        # flat level 10 before the first event and 20 before the target,
        # so the training year's effect 2.0 becomes ratio 0.2 and predicts 4.0
        series = np.full(120, 10.0)
        series[60:] = 20.0
        windows = [el.EventWindow(t0=50, d=2), el.EventWindow(t0=110, d=2)]
        # the control covers the training year only: the target is never estimated
        control = np.full(120, np.nan)
        control[51:53] = [8.0, 9.0]

        scales = [el.year_scale(series, w) for w in windows]
        assert scales == [10.0, 20.0]
        ratios, predicted = el.impact.impact_for_series("x", series, windows, control, scales)
        assert ratios.tolist() == [[0.2, 0.1]]
        np.testing.assert_allclose(predicted, [4.0, 2.0])

    def test_needs_two_occurrences(self):
        with pytest.raises(ValidationError, match="'x' needs >= 2 occurrences"):
            el.impact.impact_for_series(
                "x", np.ones(120), [el.EventWindow(t0=50, d=2)], np.full(120, np.nan), [1.0]
            )


class TestSplitOccurrences:
    def test_training_years_and_target(self):
        windows = [el.EventWindow(t0=50, d=2), el.EventWindow(t0=110, d=2)]
        assert el.impact.split_occurrences("x", windows) == (windows[:1], windows[1])

    def test_unequal_lengths_name_the_event_and_lengths(self):
        windows = [el.EventWindow(t0=50, d=5), el.EventWindow(t0=110, d=5),
                   el.EventWindow(t0=170, d=4)]
        with pytest.raises(ValidationError, match=r"'x'.*\[5, 5, 4\]"):
            el.impact.split_occurrences("x", windows)


class TestYearScale:
    def test_constant_series_both_modes(self):
        x = np.full(400, 50.0)
        dates = [datetime.date(2013, 1, 1) + datetime.timedelta(days=i) for i in range(400)]
        window = el.EventWindow(t0=357, d=3)
        assert el.year_scale(x, window) == 50.0
        assert el.year_scale(x, window, mode="calendar_month", time_index=dates) == 50.0

    def test_pre_event_month_index_range(self):
        # with t0 = 100 the scale window is indices 64..93, mean 78.5
        x = np.arange(200.0)
        assert el.year_scale(x, el.EventWindow(t0=100, d=3)) == pytest.approx(78.5)

    def test_ramp_orders_the_two_modes(self):
        x = np.arange(1.0, 366.0)
        dates = [datetime.date(2013, 1, 1) + datetime.timedelta(days=i) for i in range(365)]
        window = el.EventWindow(t0=357, d=3)  # December 25-27
        pre = el.year_scale(x, window)
        cal = el.year_scale(x, window, mode="calendar_month", time_index=dates)
        assert pre == pytest.approx(336.5)
        assert cal == pytest.approx(9770.0 / 28.0)
        assert pre < cal

    def test_event_spike_does_not_leak_into_scale(self):
        x = np.full(400, 50.0)
        dates = [datetime.date(2013, 1, 1) + datetime.timedelta(days=i) for i in range(400)]
        window = el.EventWindow(t0=357, d=3)
        x[list(window.indices)] += 99.0
        assert el.year_scale(x, window) == 50.0
        assert el.year_scale(x, window, mode="calendar_month", time_index=dates) == 50.0

    def test_run_up_buffer_excluded(self):
        # days within a week of the event start never count toward the scale
        x = np.full(200, 50.0)
        window = el.EventWindow(t0=100, d=3)
        x[94:101] = 1e6
        assert el.year_scale(x, window) == 50.0

    def test_no_pre_event_days_rejected(self):
        with pytest.raises(ValidationError):
            el.year_scale(np.full(50, 1.0), el.EventWindow(t0=2, d=3))

    def test_calendar_month_needs_dates(self):
        x = np.full(400, 50.0)
        window = el.EventWindow(t0=357, d=3)
        with pytest.raises(ValidationError):
            el.year_scale(x, window, mode="calendar_month")
        with pytest.raises(ValidationError):
            el.year_scale(x, window, mode="calendar_month", time_index=list(range(400)))

    def test_window_swallowing_the_month_rejected(self):
        # event covers all of February, leaving no day to define the scale
        dates = [datetime.date(2013, 1, 20) + datetime.timedelta(days=i) for i in range(60)]
        x = np.full(60, 5.0)
        window = el.EventWindow(t0=11, d=28)
        with pytest.raises(ValidationError, match="2013-02"):
            el.year_scale(x, window, mode="calendar_month", time_index=dates)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            el.year_scale(np.full(200, 1.0), el.EventWindow(t0=100, d=3), mode="annual")

    def test_nonpositive_scale_names_mode_t0_and_days(self):
        dates = [datetime.date(2013, 1, 1) + datetime.timedelta(days=i) for i in range(400)]
        window = el.EventWindow(t0=357, d=3)
        with pytest.raises(
            ValidationError, match=r"pre_event_month .* t0=357 .* 30 days in 321\.\.350"
        ):
            el.year_scale(np.zeros(400), window)
        with pytest.raises(
            ValidationError,
            match=r"calendar_month .* t0=357 .* 28 days in 334\.\.364",
        ):
            el.year_scale(np.full(400, -5.0), window, mode="calendar_month", time_index=dates)


class TestEvaluateMape:
    def test_perfect_prediction(self):
        assert el.evaluate_mape(np.array([2.0, 3.0]), np.array([2.0, 3.0])) == 0.0

    def test_hand_value(self):
        mape = el.evaluate_mape(np.array([90.0, 110.0]), np.array([100.0, 100.0]))
        assert mape == pytest.approx(10.0)

    def test_zero_observed_names_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            el.evaluate_mape(np.array([1.0, 1.0]), np.array([2.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            el.evaluate_mape(np.ones(3), np.ones(2))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    d=st.integers(min_value=1, max_value=6),
    lam=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_mape_invariant_under_joint_rescaling(data, d, lam):
    nonzero = st.floats(min_value=0.1, max_value=1e4, allow_nan=False)
    signs = st.sampled_from([-1.0, 1.0])
    observed = np.array(
        [data.draw(nonzero) * data.draw(signs) for _ in range(d)]
    )
    predicted = np.array(
        [data.draw(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)) for _ in range(d)]
    )
    base = el.evaluate_mape(predicted, observed)
    scaled = el.evaluate_mape(lam * predicted, lam * observed)
    assert scaled == pytest.approx(base, rel=1e-12)


def reference_year_scale(series, window, mode="pre_event_month", time_index=None):
    """``year_scale`` as it was before the bisection: the calendar month's
    days found by a scan of every date, minus the window's as a set."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("year_scale expects a single 1-D series")
    window.check_fits(len(x) - 1)
    if mode == "pre_event_month":
        hi = window.t0 - el.impact.RUNUP_BUFFER
        lo = max(0, hi - el.impact.SCALE_DAYS + 1)
        if hi < 0:
            raise ValidationError(
                f"no pre-event days available for scale (t0={window.t0} leaves "
                f"nothing before the {el.impact.RUNUP_BUFFER}-day run-up)"
            )
        scale, days = float(x[lo : hi + 1].mean()), range(lo, hi + 1)
    elif mode == "calendar_month":
        if time_index is None:
            raise ValidationError("calendar_month mode needs a time_index")
        if len(time_index) != len(x):
            raise ValidationError("time_index length must match the series")
        start = time_index[window.t0 + 1]
        if not isinstance(start, datetime.date):
            raise ValidationError("calendar_month mode needs a date-valued time index")
        in_window = set(window.indices)
        candidates = [
            t
            for t, day in enumerate(time_index)
            if day.year == start.year and day.month == start.month and t not in in_window
        ]
        if not candidates:
            raise ValidationError(
                f"no non-event days in {start.year}-{start.month:02d} to compute a scale"
            )
        scale, days = float(x[candidates].mean()), candidates
    else:
        raise ValidationError(
            f"mode must be 'pre_event_month' or 'calendar_month', got {mode!r}"
        )
    if scale <= 0:
        raise ValidationError(
            f"{mode} scale of the occurrence at t0={window.t0} is {scale}, the mean of "
            f"{len(days)} days in {days[0]}..{days[-1]}; impact ratios need a positive level"
        )
    return scale


def scale_or_error(fn, *args):
    try:
        return np.float64(fn(*args)).tobytes()
    except ValidationError as exc:
        return str(exc)


# days the dated indices are built around: month ends, year ends and 29 February
ANCHORS = [datetime.date(*ymd) for ymd in
           [(2012, 2, 29), (2012, 12, 31), (2013, 1, 31), (2015, 12, 31), (2016, 2, 29),
            (2014, 4, 30)]]


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    anchor=st.sampled_from(ANCHORS),
    lead=st.integers(min_value=0, max_value=90),
    steps=st.lists(st.sampled_from([1, 1, 1, 1, 2, 3, 7]), min_size=30, max_size=150),
    level=st.sampled_from([-2.0, 0.3, 50.0]),
    with_time=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_year_scale_matches_the_date_scan(data, anchor, lead, steps, level, with_time, seed):
    """Both modes give the scan's bits or its error text, on dated indices
    with gaps, windows across a month end, a year end or 29 February,
    windows that swallow their month and windows past the series end."""
    start = anchor - datetime.timedelta(days=lead)
    if with_time:
        start = datetime.datetime.combine(start, datetime.time(13, 30))
    dates = [start]
    for step in steps:
        dates.append(dates[-1] + datetime.timedelta(days=step))
    x = np.random.default_rng(seed).normal(level, 3.0, size=len(dates))
    # the window starts up to 35 indices before the anchor's, so most cross it
    near = sum(day < start + datetime.timedelta(days=lead) for day in dates)
    offset = data.draw(st.integers(min_value=-35, max_value=5), label="offset")
    t0 = min(max(near + offset, 1), len(dates) - 1)
    window = el.EventWindow(t0=t0, d=data.draw(st.integers(min_value=1, max_value=40), label="d"))
    for mode in ("pre_event_month", "calendar_month"):
        args = (x, window, mode, dates)
        assert scale_or_error(el.year_scale, *args) == scale_or_error(reference_year_scale, *args)
