import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import ValidationError, montecarlo


def small_config(**overrides):
    base = dict(
        spec=el.ARProcessSpec(phi=0.5, sigma=1.0),
        n_series=400,
        t0=50,
        window=el.EventWindow(t0=50, d=3),
        delta=(2.0, -1.0, 0.5),
        replications=60,
        master_seed=7,
    )
    base.update(overrides)
    return el.MCConfig(**base)


class TestMixSeed:
    def test_deterministic(self):
        assert el.mix_seed(123, 5) == el.mix_seed(123, 5)

    def test_distinct_across_indices(self):
        seeds = {el.mix_seed(99, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_across_masters(self):
        assert el.mix_seed(1, 0) != el.mix_seed(2, 0)

    def test_64_bit_range(self):
        for i in range(100):
            s = el.mix_seed(2**63, i)
            assert 0 <= s < 2**64


class TestMCConfig:
    def test_fit_range_cannot_cross_event(self):
        with pytest.raises(ValidationError):
            small_config(t0=51)

    def test_fit_range_may_end_at_window_t0(self):
        cfg = small_config(t0=50)
        assert cfg.t0 == 50

    def test_delta_length_enforced(self):
        with pytest.raises(ValidationError):
            small_config(delta=(1.0, 2.0))

    def test_bad_standardize(self):
        with pytest.raises(ValidationError, match="standardize 'exact'"):
            small_config(standardize="exact")

    def test_bad_variance_mode(self):
        with pytest.raises(ValidationError):
            small_config(variance_mode="bootstrap")


class TestOracles:
    def test_finite_horizon_variances_hand_values(self):
        # phi = 0.5, sigma = 1: partial sums of 4^-j are 1, 1.25, 1.3125
        vars_ = np.diag(el.ar1_error_covariance(0.5, 1.0, 3))
        assert vars_.tolist() == [1.0, 1.25, 1.3125]

    def test_variances_scale_with_sigma_squared(self):
        np.testing.assert_allclose(
            el.ar1_error_covariance(0.5, 4.0, 3),
            4.0 * el.ar1_error_covariance(0.5, 1.0, 3),
        )

    def test_crosscov_diagonal_matches_variances(self):
        # the diagonal is the closed form sigma^2 * (1 - phi^(2k)) / (1 - phi^2)
        cov = el.ar1_error_covariance(0.7, 1.3**2, 5)
        depth = np.arange(1, 6)
        np.testing.assert_allclose(
            np.diag(cov), 1.3**2 * (1.0 - 0.7 ** (2 * depth)) / (1.0 - 0.7**2)
        )

    def test_crosscov_hand_value(self):
        # lag-1 covariance at the shallowest pair is sigma^2 * phi
        cov = el.ar1_error_covariance(0.5, 1.0, 3)
        assert cov[0, 1] == 0.5
        assert cov[1, 0] == 0.5

    def test_crosscov_symmetric(self):
        cov = el.ar1_error_covariance(0.8, 1.0, 6)
        np.testing.assert_array_equal(cov, cov.T)

    def test_crosscov_off_diagonal_does_not_vanish(self):
        cov = el.ar1_error_covariance(0.5, 1.0, 3)
        assert abs(cov[0, 1]) > 0.1


class TestRunReplications:
    def test_report_shapes(self):
        report = el.run_replications(small_config())
        assert len(report.per_component) == 3
        assert report.cross_cov_scaled.shape == (3, 3)
        assert report.cross_cov_oracle.shape == (3, 3)
        assert report.standardized_errors.shape == (60, 3)
        assert report.replications == 60
        assert report.n_series == 400

    def test_phi_recovered(self):
        report = el.run_replications(small_config())
        assert report.phi_hat_mean == pytest.approx(0.5, abs=0.02)
        assert report.phi_hat_sd < 0.02

    def test_bias_small(self):
        # mean_bias is on the root-N error scale; bound it by 3 sd / sqrt(R)
        report = el.run_replications(small_config())
        for stats in report.per_component:
            limit = 3.0 * np.sqrt(stats.theoretical_var_finite / report.replications)
            assert abs(stats.mean_bias) < limit

    def test_notes_flag_off_diagonal_dependence(self):
        report = el.run_replications(small_config())
        assert any("off-diagonal" in note for note in report.notes)

    def test_thread_count_does_not_change_results(self):
        cfg = small_config()
        serial = el.run_replications(cfg, n_jobs=1)
        threaded = el.run_replications(cfg, n_jobs=4)
        np.testing.assert_array_equal(
            serial.standardized_errors, threaded.standardized_errors
        )
        np.testing.assert_array_equal(
            serial.cross_cov_scaled, threaded.cross_cov_scaled
        )
        assert serial.phi_hat_mean == threaded.phi_hat_mean
        for a, b in zip(serial.per_component, threaded.per_component):
            assert a == b

    def test_estimated_standardization_runs(self):
        report = el.run_replications(small_config(standardize="estimated"))
        assert np.all(np.isfinite(report.standardized_errors))

    def test_replication_failures_carry_the_index(self):
        # an all-zero panel makes the OLS fit degenerate in replication 0
        cfg = small_config(
            spec=el.ARProcessSpec(phi=0.5, sigma=0.0),
            n_series=50,
            replications=2,
        )
        with pytest.raises(ValidationError, match="replication 0:"):
            el.run_replications(cfg)

    def test_overflowing_innovations_fail_as_a_validation_error(self):
        cfg = small_config(
            spec=el.ARProcessSpec(phi=0.5, sigma=1e308, initial_mode="fixed"),
            n_series=50,
            replications=2,
        )
        with np.errstate(all="ignore"), pytest.raises(
            ValidationError, match="replication 0:.*finite"
        ):
            el.run_replications(cfg)

    def test_overflowing_treated_window_rejected(self, monkeypatch):
        # the window column sits near the float maximum; adding delta overflows
        values = np.ones((4, 53))
        values[:, 51] = 1.5e308
        monkeypatch.setattr(
            montecarlo, "simulate_ar1_panel", lambda *args: el.PanelSeries(values)
        )
        cfg = small_config(
            n_series=4, window=el.EventWindow(t0=50, d=2), delta=(1e308, 0.0),
            replications=1,
        )
        with np.errstate(all="ignore"), pytest.raises(
            ValidationError, match="replication 0:.*finite"
        ):
            el.run_replications(cfg)


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, runs serially."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestJobs:
    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_rejects_fewer_than_one_job(self, n_jobs):
        with pytest.raises(ValidationError, match="n_jobs"):
            el.run_replications(small_config(replications=2), n_jobs=n_jobs)

    @pytest.mark.parametrize(
        "cpus, n_jobs, expected", [(3, 8, [3]), (3, 2, [2]), (1, 4, []), (4, 1, [])]
    )
    def test_threads_capped_at_available_cpus(
        self, monkeypatch, cpus, n_jobs, expected
    ):
        monkeypatch.setattr(RecordingExecutor, "created", [])
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
        cfg = small_config(n_series=60, replications=3)
        report = el.run_replications(cfg, n_jobs=n_jobs)
        assert RecordingExecutor.created == expected
        assert report.replications == 3


def composed_replication(config, r):
    """Reference: one replication through the public panel and ar functions."""
    window = config.window
    delta = np.asarray(config.delta)
    panel = el.simulate_ar1_panel(
        config.spec, config.n_series, window.t0 + window.d, el.mix_seed(config.master_seed, r)
    )
    treated = el.inject_treatment(panel, window, delta)
    fit = el.fit_ar1_ols(treated, config.t0)
    cf = el.forecast_counterfactual(fit, treated, window)
    est = el.estimate_effect(treated.values[:, window.columns], cf, window)
    cov = el.effect_covariance(fit, window, config.n_series, config.variance_mode)
    cis = el.confidence_intervals(est, cov, config.ci_level)
    covered = np.array([lo <= dk <= hi for dk, (lo, hi) in zip(delta, cis)])
    return est, fit.phi_hat, np.diag(cov), covered


def outcome(fn, *args):
    try:
        dh, ph, var, covered = fn(*args)
    except ValidationError as exc:
        return ("error", str(exc))
    return dh.tobytes(), ph, var.tobytes(), covered.tolist()


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    phi=st.floats(min_value=-0.95, max_value=0.95),
    sigma=st.floats(min_value=0.0, max_value=3.0),
    initial_mode=st.sampled_from(["stationary_draw", "fixed"]),
    initial_value=st.floats(min_value=-5.0, max_value=5.0),
    n=st.integers(min_value=1, max_value=60),
    window_t0=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    r=st.integers(min_value=0, max_value=5),
    variance_mode=st.sampled_from(["finite_horizon", "asymptotic_diagonal"]),
)
def test_replicate_equals_public_composition(
    data, phi, sigma, initial_mode, initial_value, n, window_t0, d, seed, r, variance_mode
):
    t0 = data.draw(st.integers(min_value=1, max_value=window_t0))
    delta = data.draw(
        st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=d, max_size=d)
    )
    config = el.MCConfig(
        spec=el.ARProcessSpec(
            phi=phi, sigma=sigma, initial_mode=initial_mode, initial_value=initial_value
        ),
        n_series=n,
        t0=t0,
        window=el.EventWindow(t0=window_t0, d=d),
        delta=tuple(delta),
        replications=r + 1,
        master_seed=seed,
        ci_level=data.draw(st.floats(min_value=0.5, max_value=0.99)),
        variance_mode=variance_mode,
    )
    # tiny panels can fit a huge phi_hat whose forecast overflows; both sides must agree
    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome(montecarlo._replicate, config, r) == outcome(
            composed_replication, config, r
        )


def test_explosive_fit_fails_alike_in_replicate_and_composition():
    # a fixed start of 1.7e-141 makes the one-pair fit return phi_hat ~ 1e141,
    # whose forecast overflows within the 4-day window
    config = el.MCConfig(
        spec=el.ARProcessSpec(
            phi=0.0, sigma=1.0, initial_mode="fixed", initial_value=1.7304431642557775e-141
        ),
        n_series=1,
        t0=1,
        window=el.EventWindow(t0=1, d=4),
        delta=(0.0, 0.0, 0.0, 0.0),
        replications=1,
        master_seed=0,
        ci_level=0.5,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = outcome(composed_replication, config, 0)
        assert expected[0] == "error" and "phi_hat=" in expected[1]
        assert outcome(montecarlo._replicate, config, 0) == expected
        with pytest.raises(ValidationError, match="replication 0: .*phi_hat="):
            el.run_replications(config)


class TestRateCheck:
    def test_validations(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        with pytest.raises(ValidationError):
            el.rate_check_phi(spec, t0=20, n_grid=[100], reps=5, master_seed=0)
        with pytest.raises(ValidationError):
            el.rate_check_phi(spec, t0=20, n_grid=[10, 100], reps=5, master_seed=0)
        with pytest.raises(ValidationError):
            el.rate_check_phi(spec, t0=20, n_grid=[100, 400], reps=1, master_seed=0)

    def test_expected_ratio_is_root_n(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        report = el.rate_check_phi(
            spec, t0=20, n_grid=[100, 400], reps=30, master_seed=5
        )
        assert report.pairs[0].expected_ratio == pytest.approx(2.0)

    def test_noise_free_grid_degenerates_to_zero_spread(self):
        spec = el.ARProcessSpec(
            phi=0.5, sigma=0.0, initial_mode="fixed", initial_value=1.0
        )
        report = el.rate_check_phi(
            spec, t0=20, n_grid=[50, 200], reps=3, master_seed=0
        )
        assert report.entries[0][1] == 0.0
        assert report.pairs[0].ratio == 0.0
