import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import ValidationError
from eventlift.ar import _normal_quantile


class TestFitAR1:
    def test_hand_computed_single_series(self):
        # pairs (1,2) and (2,1): slope = (1*2 + 2*1) / (1 + 4) = 0.8,
        # residuals 1.2 and -0.6, mean square 0.9
        panel = el.PanelSeries(np.array([[1.0, 2.0, 1.0]]))
        fit = el.fit_ar1_ols(panel, t0=2)
        assert fit.phi_hat == pytest.approx(0.8)
        assert fit.sigma2_hat == pytest.approx(0.9)
        assert fit.n_pairs == 2

    def test_pools_across_series(self):
        # two one-pair series pooled: slope = (1*2 + 2*6) / (1 + 4) = 2.8
        panel = el.PanelSeries(np.array([[1.0, 2.0], [2.0, 6.0]]))
        fit = el.fit_ar1_ols(panel, t0=1)
        assert fit.phi_hat == pytest.approx(2.8)
        assert fit.n_pairs == 2

    def test_recovers_noise_free_coefficient(self):
        spec = el.ARProcessSpec(
            phi=0.5, sigma=0.0, initial_mode="fixed", initial_value=8.0
        )
        panel = el.simulate_ar1_panel(spec, n_series=3, horizon=10, seed=0)
        fit = el.fit_ar1_ols(panel, t0=10)
        assert fit.phi_hat == pytest.approx(0.5, abs=1e-12)
        assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-20)

    def test_recovers_noisy_coefficient(self):
        spec = el.ARProcessSpec(phi=0.7, sigma=2.0)
        panel = el.simulate_ar1_panel(spec, n_series=2000, horizon=100, seed=5)
        fit = el.fit_ar1_ols(panel, t0=100)
        assert fit.phi_hat == pytest.approx(0.7, abs=0.01)
        assert fit.sigma2_hat == pytest.approx(4.0, rel=0.02)

    def test_uses_only_pre_event_columns(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        panel = el.simulate_ar1_panel(spec, n_series=20, horizon=30, seed=1)
        corrupted = panel.values.copy()
        corrupted[:, 11:] = 1e6
        fit_clean = el.fit_ar1_ols(panel, t0=10)
        fit_dirty = el.fit_ar1_ols(el.PanelSeries(corrupted), t0=10)
        assert fit_dirty.phi_hat == fit_clean.phi_hat
        assert fit_dirty.sigma2_hat == fit_clean.sigma2_hat

    def test_t0_out_of_range(self):
        panel = el.PanelSeries(np.ones((1, 5)))
        with pytest.raises(ValidationError):
            el.fit_ar1_ols(panel, t0=0)
        with pytest.raises(ValidationError):
            el.fit_ar1_ols(panel, t0=5)

    def test_degenerate_zero_data(self):
        panel = el.PanelSeries(np.zeros((2, 5)))
        with pytest.raises(ValidationError, match="denominator"):
            el.fit_ar1_ols(panel, t0=3)


class TestForecastCounterfactual:
    def test_noise_free_forecast_is_exact(self):
        spec = el.ARProcessSpec(
            phi=0.5, sigma=0.0, initial_mode="fixed", initial_value=8.0
        )
        panel = el.simulate_ar1_panel(spec, n_series=1, horizon=6, seed=0)
        fit = el.fit_ar1_ols(panel, t0=3)
        window = el.EventWindow(t0=3, d=3)
        cf = el.forecast_counterfactual(fit, panel, window)
        assert np.array_equal(cf, panel.values[:, 4:7])

    def test_anchor_and_geometry(self):
        panel = el.PanelSeries(np.array([[1.0, 2.0, 6.0, 0.0, 0.0]]))
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=1.0, n_pairs=2)
        cf = el.forecast_counterfactual(fit, panel, el.EventWindow(t0=2, d=2))
        assert cf[0].tolist() == [3.0, 1.5]

    def test_window_checked_against_horizon(self):
        panel = el.PanelSeries(np.ones((1, 5)))
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=1.0, n_pairs=2)
        with pytest.raises(ValidationError):
            el.forecast_counterfactual(fit, panel, el.EventWindow(t0=5, d=2))


class TestEstimateEffect:
    def test_cross_series_mean(self):
        panel = el.PanelSeries(np.array([[4.0, 2.0, 5.0], [8.0, 4.0, 6.0]]))
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=1.0, n_pairs=2)
        window = el.EventWindow(t0=1, d=1)
        cf = el.forecast_counterfactual(fit, panel, window)
        est = el.estimate_effect(panel.values[:, window.columns], cf, window)
        # forecasts are 1.0 and 2.0, observed 5.0 and 6.0
        assert est.tolist() == [4.0]

    def test_window_mismatch_rejected(self):
        panel = el.PanelSeries(np.ones((1, 8)))
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=1.0, n_pairs=2)
        cf = el.forecast_counterfactual(fit, panel, el.EventWindow(t0=2, d=2))
        wider = el.EventWindow(t0=2, d=3)
        with pytest.raises(ValidationError):
            el.estimate_effect(panel.values[:, wider.columns], cf, wider)

    def test_recovers_injected_effect_without_noise(self):
        spec = el.ARProcessSpec(
            phi=0.9, sigma=0.0, initial_mode="fixed", initial_value=5.0
        )
        clean = el.simulate_ar1_panel(spec, n_series=4, horizon=12, seed=0)
        window = el.EventWindow(t0=8, d=3)
        delta = np.array([2.0, -1.0, 0.5])
        treated = el.inject_treatment(clean, window, delta)
        fit = el.fit_ar1_ols(treated, t0=8)
        cf = el.forecast_counterfactual(fit, treated, window)
        est = el.estimate_effect(treated.values[:, window.columns], cf, window)
        np.testing.assert_allclose(est, delta, atol=1e-9)


class TestExplosiveFits:
    """A huge phi_hat fails as a ValidationError, with no warning printed."""

    @pytest.mark.parametrize(
        "phi, sigma2, d",
        [(1e141, 1.0, 4), (1e100, 0.0, 3), (1e150, 1e10, 2)],
        ids=["power-overflows", "nan-from-zero-variance", "product-overflows"],
    )
    def test_error_covariance_names_phi_and_d(self, phi, sigma2, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(f"phi={phi!r}, d={d}")):
                el.ar1_error_covariance(phi, sigma2, d)

    def test_forecast_names_phi_hat(self):
        panel = el.PanelSeries(np.array([[1.0, 2.0, 0.0, 0.0]]))
        fit = el.ARModelFit(phi_hat=1e200, sigma2_hat=0.0, n_pairs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"phi_hat=1e\+200, d=2"):
                el.forecast_counterfactual(fit, panel, el.EventWindow(t0=1, d=2))


class TestEffectCovariance:
    def test_finite_horizon_hand_values(self):
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=1.0, n_pairs=100)
        cov = el.effect_covariance(fit, el.EventWindow(t0=5, d=3), n_series=1)
        assert np.diag(cov).tolist() == [1.0, 1.25, 1.3125]
        assert cov[0, 1] == 0.5

    @pytest.mark.parametrize(
        "phi, sigma2, d, n",
        [(0.5, 1.0, 3, 1), (0.52, 0.9, 3, 500), (-0.8, 2.5, 7, 13), (1.0, 1.0, 4, 2)],
    )
    def test_finite_horizon_is_full_error_covariance_over_n(self, phi, sigma2, d, n):
        fit = el.ARModelFit(phi_hat=phi, sigma2_hat=sigma2, n_pairs=100)
        cov = el.effect_covariance(fit, el.EventWindow(t0=5, d=d), n_series=n)
        assert np.array_equal(cov, el.ar1_error_covariance(phi, sigma2, d) / n)

    def test_asymptotic_diagonal(self):
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=1.0, n_pairs=100)
        cov = el.effect_covariance(
            fit, el.EventWindow(t0=5, d=2), n_series=4, mode="asymptotic_diagonal"
        )
        np.testing.assert_allclose(np.diag(cov), (4.0 / 3.0) / 4.0)

    def test_scales_inversely_with_n(self):
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=2.0, n_pairs=100)
        window = el.EventWindow(t0=5, d=3)
        one = el.effect_covariance(fit, window, n_series=1)
        ten = el.effect_covariance(fit, window, n_series=10)
        np.testing.assert_allclose(ten * 10.0, one)

    def test_finite_horizon_defined_at_unit_root(self):
        fit = el.ARModelFit(phi_hat=1.0, sigma2_hat=1.0, n_pairs=100)
        cov = el.effect_covariance(fit, el.EventWindow(t0=5, d=3), n_series=1)
        assert np.diag(cov).tolist() == [1.0, 2.0, 3.0]

    def test_asymptotic_rejects_unit_root(self):
        fit = el.ARModelFit(phi_hat=1.0, sigma2_hat=1.0, n_pairs=100)
        with pytest.raises(ValidationError):
            el.effect_covariance(
                fit, el.EventWindow(t0=5, d=3), n_series=1, mode="asymptotic_diagonal"
            )

    def test_unknown_mode(self):
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=1.0, n_pairs=100)
        with pytest.raises(ValidationError):
            el.effect_covariance(fit, el.EventWindow(t0=5, d=1), n_series=1, mode="x")

    def test_converges_to_asymptotic_with_depth(self):
        fit = el.ARModelFit(phi_hat=0.5, sigma2_hat=1.0, n_pairs=100)
        cov = el.effect_covariance(fit, el.EventWindow(t0=5, d=40), n_series=1)
        assert np.diag(cov)[-1] == pytest.approx(4.0 / 3.0, rel=1e-10)


class TestConfidenceIntervals:
    def test_hand_checked_width(self):
        est = np.array([2.0])
        cis = el.confidence_intervals(est, np.array([[4.0]]), level=0.95)
        lo, hi = cis[0]
        assert lo == pytest.approx(2.0 - 1.959964 * 2.0, abs=1e-4)
        assert hi == pytest.approx(2.0 + 1.959964 * 2.0, abs=1e-4)

    def test_level_interpolates(self):
        est = np.array([0.0])
        lo68, hi68 = el.confidence_intervals(est, np.eye(1), level=0.6827)[0]
        assert hi68 == pytest.approx(1.0, abs=1e-3)

    def test_bad_level_rejected(self):
        est = np.array([0.0])
        with pytest.raises(ValidationError):
            el.confidence_intervals(est, np.eye(1), level=1.0)

    def test_shape_mismatch_rejected(self):
        est = np.array([0.0, 0.0])
        with pytest.raises(ValidationError):
            el.confidence_intervals(est, np.eye(3))

    def test_width_uses_the_pinned_quantile(self):
        (lo, hi), = el.confidence_intervals(np.array([0.0]), np.eye(1), level=0.95)
        assert (lo, hi) == (-1.959963984540054, 1.959963984540054)


class TestNormalQuantile:
    def test_pinned_values(self):
        # scipy.special.ndtri's bits; statistics.NormalDist gives ...0536 at 0.975
        assert _normal_quantile(0.975) == 1.959963984540054
        assert _normal_quantile(0.5) == 0.0
        assert _normal_quantile(0.0) == -math.inf
        assert _normal_quantile(1.0) == math.inf
        assert math.isnan(_normal_quantile(1.5))

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.floats(min_value=-323.0, max_value=0.0).map(lambda e: 10.0**e),
            st.floats(min_value=-16.0, max_value=0.0).map(lambda e: 1.0 - 10.0**e),
        ).filter(lambda p: 0.0 < p < 1.0)
    )
    def test_matches_scipy_ndtri_bit_for_bit(self, p):
        special = pytest.importorskip("scipy.special")
        assert _normal_quantile(p) == float(special.ndtri(p))


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False, width=32),
    anchor=st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    d=st.integers(min_value=2, max_value=12),
)
def test_counterfactual_recursion_is_geometric(phi, anchor, d):
    """Each forecast column is bit-exactly phi_hat times the previous one."""
    values = np.zeros((1, d + 3))
    values[0, 2] = anchor
    panel = el.PanelSeries(values)
    fit = el.ARModelFit(phi_hat=float(phi), sigma2_hat=1.0, n_pairs=1)
    cf = el.forecast_counterfactual(fit, panel, el.EventWindow(t0=2, d=d))
    assert cf[0, 0] == float(phi) * anchor
    for k in range(d - 1):
        assert cf[0, k + 1] == float(phi) * cf[0, k]


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(min_value=-0.99, max_value=0.99, allow_nan=False),
    sigma2=st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
    d=st.integers(min_value=1, max_value=20),
)
def test_finite_horizon_variance_is_monotone_and_bounded(phi, sigma2, d):
    """Per-step variance grows with depth and never exceeds the asymptote."""
    fit = el.ARModelFit(phi_hat=phi, sigma2_hat=sigma2, n_pairs=1)
    diag = np.diag(el.effect_covariance(fit, el.EventWindow(t0=5, d=d), n_series=1))
    assert np.all(np.diff(diag) >= 0)
    limit = sigma2 / (1.0 - phi**2)
    assert np.all(diag <= limit * (1.0 + 1e-12))
    assert diag[0] == sigma2
