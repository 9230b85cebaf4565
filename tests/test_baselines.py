import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import ValidationError


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
        assert np.array_equal(ctrl.values[list(window.indices)], cf[0])

    def test_never_reads_past_t0(self):
        spec = el.ARProcessSpec(phi=0.6, sigma=1.0)
        x = el.simulate_ar1_panel(spec, n_series=1, horizon=60, seed=4).series(0)
        corrupted = x.copy()
        corrupted[51:] = np.nan
        window = el.EventWindow(t0=50, d=4)
        cfg = el.RollingWindowConfig(lookback=10, horizon=4)
        clean = el.direct_forecast(x, window, cfg, predictor="ar1")
        dirty = el.direct_forecast(corrupted, window, cfg, predictor="ar1")
        assert np.array_equal(clean.values[clean.support], dirty.values[dirty.support])


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
        preds = ctrl.values[list(window.indices)]
        assert np.all(np.abs(preds - 7.0) / 7.0 < 0.01)

    def test_tracks_sinusoid_peak_where_mean_cannot(self):
        t = np.arange(200)
        x = 5.0 + np.sin(2 * np.pi * t / 20.0)
        window = el.EventWindow(t0=164, d=1)  # index 165 sits on a peak
        ctrl = el.direct_forecast(
            x, window, el.RollingWindowConfig(lookback=40, horizon=10), **self.fw()
        )
        peak = x[165]
        assert abs(ctrl.values[165] - peak) / peak < 0.10
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
        assert np.array_equal(clean.values[clean.support], dirty.values[dirty.support])

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
        assert ctrl.support.tolist() == [61, 62, 63, 64, 65]

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
        assert ctrl.support.tolist() == [61, 62, 63]

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
        np.testing.assert_allclose(ctrl.values[ctrl.support], 42.0, atol=1e-9)

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
        assert np.all(np.abs(ctrl.values[idx] - 100.0) / 100.0 < 0.15)

    def test_control_excludes_only_longest_period(self):
        rng = np.random.default_rng(0)
        x = 50.0 + rng.normal(0, 1.0, size=200)
        window = el.EventWindow(t0=150, d=3)
        result, ctrl = el.seasonal_decompose(x, [5, 20], window)
        idx = list(window.indices)
        expected = result.trend[idx] + result.seasonal_components[5][idx]
        np.testing.assert_allclose(ctrl.values[idx], expected, atol=1e-12)

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
