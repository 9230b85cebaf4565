from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import ValidationError, baselines


class TestDirectForecastAR1:
    def test_matches_recursive_counterfactual_exactly(self):
        spec = el.ARProcessSpec(phi=0.6, sigma=1.0)
        panel = el.simulate_ar1_panel(spec, n_series=1, horizon=60, seed=4)
        x = panel.series(0)
        window = el.EventWindow(t0=50, d=4)
        ctrl = el.direct_forecast(
            x,
            window,
            el.RollingWindowConfig(lookback=10, horizon=4),
            predictor="ar1",
        )
        fit = el.fit_ar1_ols(panel, t0=50)
        cf = el.forecast_counterfactual(fit, panel, window)
        assert np.array_equal(ctrl[list(window.indices)], cf[0])

    def test_never_reads_past_t0(self):
        spec = el.ARProcessSpec(phi=0.6, sigma=1.0)
        x = el.simulate_ar1_panel(spec, n_series=1, horizon=60, seed=4).series(0)
        corrupted = x.copy()
        corrupted[51:] = np.nan
        window = el.EventWindow(t0=50, d=4)
        cfg = el.RollingWindowConfig(lookback=10, horizon=4)
        clean = el.direct_forecast(x, window, cfg, predictor="ar1")
        dirty = el.direct_forecast(corrupted, window, cfg, predictor="ar1")
        assert np.array_equal(
            clean[np.flatnonzero(~np.isnan(clean))], dirty[np.flatnonzero(~np.isnan(dirty))]
        )


class TestDirectForecastMLP:
    def fw(self):
        return dict(
            arch=el.ForecasterArch(hidden_sizes=(64,), activation="tanh"),
            train_cfg=el.TrainConfig(
                epochs=1500,
                batch_size=32,
                learning_rate=0.05,
                final_learning_rate=0.005,
                seed=3,
            ),
        )

    def test_constant_series(self):
        x = np.full(80, 7.0)
        window = el.EventWindow(t0=60, d=3)
        ctrl = el.direct_forecast(
            x,
            window,
            el.RollingWindowConfig(lookback=10, horizon=5),
            arch=el.ForecasterArch(hidden_sizes=(16,), activation="relu"),
            train_cfg=el.TrainConfig(epochs=200, batch_size=16, learning_rate=0.01, seed=0),
        )
        preds = ctrl[list(window.indices)]
        assert np.all(np.abs(preds - 7.0) / 7.0 < 0.01)

    def test_tracks_sinusoid_peak_where_mean_cannot(self):
        t = np.arange(200)
        x = 5.0 + np.sin(2 * np.pi * t / 20.0)
        window = el.EventWindow(t0=164, d=1)  # index 165 sits on a peak
        ctrl = el.direct_forecast(
            x, window, el.RollingWindowConfig(lookback=40, horizon=10), **self.fw()
        )
        peak = x[165]
        assert abs(ctrl[165] - peak) / peak < 0.10
        mean_only = x[:165].mean()
        assert abs(mean_only - peak) / peak > 0.10

    def test_never_reads_past_t0(self):
        t = np.arange(200)
        x = 5.0 + np.sin(2 * np.pi * t / 20.0)
        corrupted = x.copy()
        corrupted[165:] = np.nan
        window = el.EventWindow(t0=164, d=1)
        cfg = el.RollingWindowConfig(lookback=40, horizon=10)
        clean = el.direct_forecast(x, window, cfg, **self.fw())
        dirty = el.direct_forecast(corrupted, window, cfg, **self.fw())
        assert np.array_equal(
            clean[np.flatnonzero(~np.isnan(clean))], dirty[np.flatnonzero(~np.isnan(dirty))]
        )

    def test_support_is_the_forecast_range(self):
        x = np.full(80, 7.0)
        window = el.EventWindow(t0=60, d=3)
        ctrl = el.direct_forecast(
            x,
            window,
            el.RollingWindowConfig(lookback=10, horizon=5),
            arch=el.ForecasterArch(hidden_sizes=(4,), activation="relu"),
            train_cfg=el.TrainConfig(epochs=5, batch_size=16, learning_rate=0.01, seed=0),
        )
        assert np.flatnonzero(~np.isnan(ctrl)).tolist() == [61, 62, 63, 64, 65]

    def test_support_truncated_at_series_end(self):
        x = np.full(64, 7.0)
        window = el.EventWindow(t0=60, d=3)
        ctrl = el.direct_forecast(
            x,
            window,
            el.RollingWindowConfig(lookback=10, horizon=5),
            arch=el.ForecasterArch(hidden_sizes=(4,), activation="relu"),
            train_cfg=el.TrainConfig(epochs=5, batch_size=16, learning_rate=0.01, seed=0),
        )
        assert np.flatnonzero(~np.isnan(ctrl)).tolist() == [61, 62, 63]

    def test_window_deeper_than_horizon_rejected(self):
        x = np.zeros(80)
        with pytest.raises(ValidationError, match="horizon"):
            el.direct_forecast(
                x,
                el.EventWindow(t0=60, d=6),
                el.RollingWindowConfig(lookback=10, horizon=5),
            )

    def test_insufficient_history_rejected(self):
        x = np.zeros(80)
        with pytest.raises(ValidationError):
            el.direct_forecast(
                x,
                el.EventWindow(t0=12, d=2),
                el.RollingWindowConfig(lookback=10, horizon=5),
            )

    def test_unknown_predictor_rejected(self):
        x = np.zeros(80)
        with pytest.raises(ValidationError):
            el.direct_forecast(
                x,
                el.EventWindow(t0=60, d=3),
                el.RollingWindowConfig(lookback=10, horizon=5),
                predictor="arima",
            )


@pytest.mark.parametrize("predictor", ["mlp", "ar1"])
@pytest.mark.parametrize("t0", [199, 250])
def test_window_past_the_series_rejected_before_training(predictor, t0, monkeypatch):
    """A window whose first day lies past a 200-day series has nothing to
    forecast: it fails naming t0 and the length, and no net trains."""

    def no_training(*args, **kwargs):
        raise AssertionError("a net trained for a window past the series")

    monkeypatch.setattr(baselines, "_train_stack", no_training)
    x = 10.0 + np.sin(np.arange(200.0))
    with pytest.raises(ValidationError, match=rf"t0={t0} .* series of length 200"):
        el.direct_forecast(
            x,
            el.EventWindow(t0=t0, d=3),
            el.RollingWindowConfig(lookback=20, horizon=5),
            predictor=predictor,
        )


class TestDirectForecastBlock:
    """An (S, T) block: one net per row, trained in lock-step stacks."""

    cfg = el.RollingWindowConfig(lookback=8, horizon=4)
    window = el.EventWindow(t0=50, d=3)
    arch = el.ForecasterArch(hidden_sizes=(6,), activation="tanh")

    def block(self, rows=8):
        rng = np.random.default_rng(5)
        t = np.arange(70)
        level = rng.uniform(5, 50, size=(rows, 1))
        return level * (1 + 0.1 * np.sin(t / 3.0)) + rng.normal(0, 0.5, size=(rows, len(t)))

    def train_cfgs(self, rows):
        return [el.TrainConfig(epochs=6, batch_size=9, learning_rate=0.02, seed=40 + i)
                for i in range(rows)]

    @pytest.mark.parametrize("rows", [1, 3, 8])  # 8 rows: two stacks
    def test_row_i_is_the_1d_call_with_config_i(self, rows):
        x = self.block(rows)
        cfgs = self.train_cfgs(rows)
        block = el.direct_forecast(x, self.window, self.cfg, self.arch, cfgs)
        assert block.shape == x.shape
        for row, train_cfg, control in zip(x, cfgs, block):
            alone = el.direct_forecast(row, self.window, self.cfg, self.arch, train_cfg)
            assert control.tobytes() == alone.tobytes()

    def test_one_config_serves_every_row(self):
        x = self.block(2)
        [train_cfg] = self.train_cfgs(1)
        block = el.direct_forecast(x, self.window, self.cfg, self.arch, train_cfg)
        assert block.tobytes() == el.direct_forecast(
            x, self.window, self.cfg, self.arch, [train_cfg] * 2
        ).tobytes()

    def test_ar1_rows_are_the_1d_calls(self):
        x = self.block(3)
        block = el.direct_forecast(x, self.window, self.cfg, predictor="ar1")
        for row, control in zip(x, block):
            alone = el.direct_forecast(row, self.window, self.cfg, predictor="ar1")
            assert control.tobytes() == alone.tobytes()

    def test_config_count_must_match_rows(self):
        with pytest.raises(ValidationError, match="2 training configs for 3 series"):
            el.direct_forecast(self.block(3), self.window, self.cfg, self.arch,
                               self.train_cfgs(2))

    def test_divergence_names_the_row(self):
        """Row 7 sits in the second stack; the error names it by its row.  Its
        spike is finite in float64 but overflows the float32 training stack."""
        x = self.block(8)
        x[7, 30] = 1e300
        cfgs = [replace(c, epochs=3) for c in self.train_cfgs(8)]
        with pytest.raises(el.TrainingDivergedError) as info, np.errstate(all="ignore"):
            el.direct_forecast(x, self.window, self.cfg, self.arch, cfgs)
        with pytest.raises(el.TrainingDivergedError) as alone, np.errstate(all="ignore"):
            el.direct_forecast(x[7], self.window, self.cfg, self.arch, cfgs[7])
        assert (info.value.net, info.value.epoch) == (7, alone.value.epoch)
        assert alone.value.net == 0

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValidationError, match="1-D series or a 2-D block"):
            el.direct_forecast(np.zeros((2, 2, 70)), self.window, self.cfg)


def loop_moving_average(x, period):
    """The per-index loop ``centered_moving_average`` replaced: the full
    window's weighted sum where it fits, else the widest symmetric mean."""
    n, h = len(x), period // 2
    full = np.ones(2 * h + 1)
    if period % 2 == 0:
        full[0] = full[-1] = 0.5
    full /= full.sum()
    out = np.empty(n)
    for t in range(n):
        r = min(h, t, n - 1 - t)
        out[t] = x[t - h : t + h + 1] @ full if r == h else x[t - r : t + r + 1].mean()
    return out


def loop_phase_means(detrended, period):
    """The per-phase loop ``seasonal_decompose`` replaced: each phase's mean
    over the indices whose moving-average window was full."""
    h = period // 2
    interior = np.arange(h, len(detrended) - h)
    return np.array(
        [detrended[interior[interior % period == phase]].mean() for phase in range(period)]
    )


def loop_decompose(x, periods):
    """``seasonal_decompose``'s passes built from the two loop references:
    (trend, {period: seasonal}, remainder)."""
    work = x.copy()
    seasonals = {}
    for period in sorted(periods):
        means = loop_phase_means(work - loop_moving_average(work, period), period)
        seasonals[period] = np.resize(means - means.mean(), len(x))
        work = work - seasonals[period]
    trend = loop_moving_average(work, max(periods))
    return trend, seasonals, work - trend


def random_series(seed, length, level, spread):
    return level + spread * np.random.default_rng(seed).normal(size=length)


# the array code sums in another order than the loops: allow 1e-12 of the
# series' largest magnitude, a few thousand float64 roundings
LOOP_TOL = 1e-12
# ... but no less than 4096 of the smallest subnormal: on a subnormal series
# the relative bound underflows to 0.0, while each rounding there errs by up
# to half a subnormal, absolutely
LOOP_FLOOR = 4096 * np.finfo(float).smallest_subnormal


def loop_bound(x):
    return max(LOOP_TOL * np.abs(x).max(), LOOP_FLOOR)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    period=st.integers(min_value=2, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    level=st.floats(min_value=-1e6, max_value=1e6),
    spread=st.floats(min_value=0.0, max_value=1e6),
)
def test_moving_average_matches_the_loop(data, period, seed, level, spread):
    # half the draws are no longer than the window, where every point is an edge
    short = data.draw(st.booleans())
    length = data.draw(st.integers(min_value=1, max_value=period if short else 1500))
    x = random_series(seed, length, level, spread)
    expected = loop_moving_average(x, period)
    got = el.centered_moving_average(x, period)
    assert np.all(np.abs(got - expected) <= loop_bound(x))


@st.composite
def periods_and_length(draw):
    """One or two periods and a series length of at least two of the longest."""
    periods = draw(st.lists(st.integers(min_value=2, max_value=400), min_size=1, max_size=2,
                            unique=True))
    return periods, draw(st.integers(min_value=2 * max(periods), max_value=1500))


@settings(max_examples=60, deadline=None)
@given(
    case=periods_and_length(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    level=st.floats(min_value=-1e6, max_value=1e6),
    spread=st.floats(min_value=0.0, max_value=1e6),
)
# a subnormal series: the trend differs from the loop's by 1e-323 while the
# relative bound underflows to 0.0
@example(case=([2], 4), seed=0, level=0.0, spread=2.2250738585e-313)
def test_decomposition_matches_the_loops(case, seed, level, spread):
    periods, length = case
    x = random_series(seed, length, level, spread)
    window = el.EventWindow(t0=length - 3, d=1)
    result, control = el.seasonal_decompose(x, periods, window)
    trend, seasonals, remainder = loop_decompose(x, periods)
    bound = loop_bound(x)
    assert np.all(np.abs(result.trend - trend) <= bound)
    assert result.seasonal_components.keys() == seasonals.keys()
    for period, seasonal in seasonals.items():
        assert np.all(np.abs(result.seasonal_components[period] - seasonal) <= bound)
    assert np.all(np.abs(result.remainder - remainder) <= bound)
    fitted = trend + sum(seasonals.values())
    assert np.all(np.abs(result.fitted_total - fitted) <= bound)
    day = length - 2
    expected = trend[day] + sum(s[day] for p, s in seasonals.items() if p != max(periods))
    assert abs(control[day] - expected) <= bound


class TestCenteredMovingAverage:
    def test_odd_period_hand_values(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        out = el.centered_moving_average(x, 3)
        assert out[1] == pytest.approx((1 + 2 + 4) / 3)
        assert out[2] == pytest.approx((2 + 4 + 8) / 3)
        assert out[0] == 1.0
        assert out[-1] == 16.0

    def test_even_period_half_weight_ends(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        out = el.centered_moving_average(x, 2)
        assert out[1] == pytest.approx((0.5 * 1 + 2 + 0.5 * 4) / 2)
        assert out[2] == pytest.approx((0.5 * 2 + 4 + 0.5 * 8) / 2)

    def test_linear_series_is_a_fixed_point(self):
        # symmetric windows (full or shrunk) average a line back to itself
        x = np.linspace(-3.0, 12.0, 30)
        for period in (2, 3, 7, 12):
            np.testing.assert_allclose(
                el.centered_moving_average(x, period), x, atol=1e-12
            )

    def test_period_too_small(self):
        with pytest.raises(ValidationError):
            el.centered_moving_average(np.zeros(10), 1)


class TestSeasonalDecompose:
    def test_recovers_pure_sinusoid(self):
        t = np.arange(140)
        x = np.sin(2 * np.pi * t / 7.0)
        result, _ = el.seasonal_decompose(x, [7], el.EventWindow(t0=100, d=2))
        rms = np.sqrt(np.mean((result.seasonal_components[7] - x) ** 2))
        assert rms < 0.02

    def test_constant_series(self):
        x = np.full(60, 42.0)
        result, ctrl = el.seasonal_decompose(x, [7], el.EventWindow(t0=30, d=2))
        np.testing.assert_allclose(result.trend, 42.0, atol=1e-9)
        np.testing.assert_allclose(result.seasonal_components[7], 0.0, atol=1e-9)
        np.testing.assert_allclose(result.remainder, 0.0, atol=1e-9)
        np.testing.assert_allclose(ctrl[np.flatnonzero(~np.isnan(ctrl))], 42.0, atol=1e-9)

    def test_annual_spike_lands_in_longest_seasonal(self):
        years, spike_day, d = 4, 100, 5
        x = np.full(years * 365, 100.0)
        for year in range(years):
            x[year * 365 + spike_day : year * 365 + spike_day + d] += 10.0
        window = el.EventWindow(t0=3 * 365 + spike_day - 1, d=d)
        result, ctrl = el.seasonal_decompose(x, [7, 365], window)
        annual = result.seasonal_components[365]
        idx = list(window.indices)
        assert np.all(annual[idx] > 8.5)
        assert np.all(np.abs(ctrl[idx] - 100.0) / 100.0 < 0.15)

    def test_control_excludes_only_longest_period(self):
        rng = np.random.default_rng(0)
        x = 50.0 + rng.normal(0, 1.0, size=200)
        window = el.EventWindow(t0=150, d=3)
        result, ctrl = el.seasonal_decompose(x, [5, 20], window)
        idx = list(window.indices)
        expected = result.trend[idx] + result.seasonal_components[5][idx]
        np.testing.assert_allclose(ctrl[idx], expected, atol=1e-12)

    def test_seasonal_components_sum_to_zero_per_period(self):
        rng = np.random.default_rng(1)
        x = 10.0 + rng.normal(0, 2.0, size=120)
        result, _ = el.seasonal_decompose(x, [4, 12], el.EventWindow(t0=100, d=2))
        scale = np.abs(x).max()
        for period, comp in result.seasonal_components.items():
            assert abs(comp[:period].sum()) < 1e-6 * scale

    def test_fitted_total_plus_remainder_reconstructs(self):
        rng = np.random.default_rng(2)
        x = 10.0 + rng.normal(0, 2.0, size=120)
        result, _ = el.seasonal_decompose(x, [4, 12], el.EventWindow(t0=100, d=2))
        np.testing.assert_allclose(result.fitted_total + result.remainder, x, rtol=1e-9)

    def test_validations(self):
        x = np.zeros(30)
        window = el.EventWindow(t0=20, d=2)
        with pytest.raises(ValidationError):
            el.seasonal_decompose(x, [7, 7], window)
        with pytest.raises(ValidationError):
            el.seasonal_decompose(x, [1], window)
        with pytest.raises(ValidationError):
            el.seasonal_decompose(x, [20], window)
        with pytest.raises(ValidationError):
            el.seasonal_decompose(x, [7], el.EventWindow(t0=28, d=5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_rejected(self, bad):
        x = np.zeros(30)
        x[4] = bad
        with pytest.raises(ValidationError, match=r"index 4 is not finite"):
            el.seasonal_decompose(x, [7], el.EventWindow(t0=20, d=2))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    p1=st.integers(min_value=2, max_value=5),
    p2=st.integers(min_value=6, max_value=10),
)
def test_decomposition_additivity(data, p1, p2):
    """Trend + seasonals + remainder reconstructs the series."""
    length = data.draw(st.integers(min_value=2 * p2, max_value=3 * p2))
    values = data.draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    x = np.array(values)
    window = el.EventWindow(t0=length - 3, d=1)
    result, _ = el.seasonal_decompose(x, [p1, p2], window)
    total = result.trend + result.seasonal_sum() + result.remainder
    np.testing.assert_allclose(total, x, rtol=1e-9, atol=1e-9)
