import os
import pickle
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

import eventlift as el
from eventlift import TrainingDivergedError, ValidationError
from eventlift.impact import impact_for_series
from eventlift.montecarlo import mix_seed


def tiny_setup():
    """Two short series with a twice-occurring 3-day event."""
    rng = np.random.default_rng(9)
    t = np.arange(230)
    rows = []
    for base in (50.0, 80.0):
        y = base * (1.0 + 0.02 * np.sin(2 * np.pi * t / 7.0)) + rng.normal(
            0, 0.3, size=len(t)
        )
        y[60:63] += 0.2 * base
        y[160:163] += 0.2 * base
        rows.append(y)
    panel = el.PanelSeries(np.stack(rows))
    calendar = el.EventCalendar(
        {"promo": [el.EventWindow(t0=59, d=3), el.EventWindow(t0=159, d=3)]}
    )
    return panel, calendar


def tiny_kwargs(seed=0):
    return dict(
        fw_config=el.RollingWindowConfig(lookback=10, horizon=5, stride=1),
        arch=el.ForecasterArch(hidden_sizes=(16,), activation="relu"),
        loss_cfg=el.AdaptiveLossConfig(rare_weight=0.1, nonrare_weight=1.0),
        train_cfg=el.TrainConfig(
            epochs=30, batch_size=32, learning_rate=0.02, seed=seed
        ),
        periods=[7, 100],
    )


class TestEvaluatePanel:
    def test_report_covers_every_series_event_pair(self):
        panel, calendar = tiny_setup()
        report = el.evaluate_panel(panel, calendar, **tiny_kwargs())
        assert len(report.results) == 2
        assert {r.series_id for r in report.results} == {"s000", "s001"}
        assert all(r.event == "promo" for r in report.results)

    def test_mean_mape_per_method(self):
        panel, calendar = tiny_setup()
        report = el.evaluate_panel(panel, calendar, **tiny_kwargs())
        means = report.mean_mape()
        assert set(means) == {"SD", "DF", "ours"}
        for value in means.values():
            assert np.isfinite(value) and value >= 0.0

    def test_target_is_the_last_occurrence(self):
        panel, calendar = tiny_setup()
        report = el.evaluate_panel(panel, calendar, **tiny_kwargs())
        result = report.results[0]
        assert result.target_window.t0 == 159
        np.testing.assert_array_equal(
            result.observed, panel.series(0)[160:163]
        )

    def test_impact_model_built_from_training_years_only(self):
        panel, calendar = tiny_setup()
        report = el.evaluate_panel(panel, calendar, **tiny_kwargs())
        result = report.results[0]
        assert result.ratios.shape == (1, 3)
        assert result.scales.shape == (1,)

    def test_deterministic_end_to_end(self):
        panel, calendar = tiny_setup()
        a = el.evaluate_panel(panel, calendar, **tiny_kwargs())
        b = el.evaluate_panel(panel, calendar, **tiny_kwargs())
        for ra, rb in zip(a.results, b.results):
            assert (ra.mape_sd, ra.mape_df, ra.mape_ours) == (rb.mape_sd, rb.mape_df, rb.mape_ours)
            assert np.array_equal(ra.predicted_effect, rb.predicted_effect)
            assert np.array_equal(ra.control_ours, rb.control_ours)

    def test_seed_changes_the_forecaster_path(self):
        panel, calendar = tiny_setup()
        a = el.evaluate_panel(panel, calendar, **tiny_kwargs(seed=0))
        b = el.evaluate_panel(panel, calendar, **tiny_kwargs(seed=1))
        assert not np.array_equal(
            a.results[0].control_ours, b.results[0].control_ours
        )

    def test_single_occurrence_event_rejected(self):
        panel, _ = tiny_setup()
        calendar = el.EventCalendar({"once": [el.EventWindow(t0=159, d=3)]})
        with pytest.raises(ValidationError, match="2 occurrences"):
            el.evaluate_panel(panel, calendar, **tiny_kwargs())

    def test_single_occurrence_event_rejected_before_training(self, monkeypatch):
        from eventlift import baselines, forecaster

        def no_training(*args, **kwargs):
            raise AssertionError("a net was trained")

        # every net, pooled or DF, trains in the one stacked loop
        monkeypatch.setattr(forecaster, "_train_stack", no_training)
        monkeypatch.setattr(baselines, "_train_stack", no_training)
        panel, _ = tiny_setup()
        calendar = el.EventCalendar(
            {
                "promo": [el.EventWindow(t0=59, d=3), el.EventWindow(t0=159, d=3)],
                "once": [el.EventWindow(t0=100, d=3)],
            }
        )
        with pytest.raises(ValidationError, match="'once' needs >= 2 occurrences"):
            el.evaluate_panel(panel, calendar, **tiny_kwargs())

    @pytest.mark.parametrize(
        "scale_mode, flat_s001, message",
        [
            ("calendar_month", False, "series 's000', event 'promo': calendar_month mode "
                                      "needs a date-valued time index"),
            ("annual", False, "series 's000', event 'promo': mode must be"),
            # s001 sells nothing in the 30 days before the target's run-up
            ("pre_event_month", True, "series 's001', event 'promo': pre_event_month scale "
                                      "of the occurrence at t0=159 is 0.0"),
        ],
        ids=["calendar_month_without_dates", "unknown_mode", "zero_pre_event_level"],
    )
    def test_bad_scale_rejected_before_any_work(
        self, monkeypatch, scale_mode, flat_s001, message
    ):
        from eventlift import baselines, evaluation, forecaster

        def no_work(*args, **kwargs):
            raise AssertionError("work was done before the scales were checked")

        monkeypatch.setattr(forecaster, "_train_stack", no_work)
        monkeypatch.setattr(baselines, "_train_stack", no_work)
        monkeypatch.setattr(evaluation, "seasonal_decompose", no_work)
        panel, calendar = tiny_setup()
        if flat_s001:
            values = panel.values.copy()
            values[1, 123:153] = 0.0
            panel = el.PanelSeries(values)
        with pytest.raises(ValidationError, match=re.escape(message)):
            el.evaluate_panel(panel, calendar, scale_mode=scale_mode, **tiny_kwargs())

    def test_zero_in_a_target_window_rejected_before_training(self, monkeypatch):
        from eventlift import baselines, forecaster

        def no_training(*args, **kwargs):
            raise AssertionError("a net was trained")

        monkeypatch.setattr(forecaster, "_train_stack", no_training)
        monkeypatch.setattr(baselines, "_train_stack", no_training)
        panel, calendar = tiny_setup()
        values = panel.values.copy()
        values[1, 161] = 0.0  # the second day of s001's target window
        panel = el.PanelSeries(values)
        message = "series 's001', event 'promo': observed value is zero on day 161; MAPE undefined"
        with pytest.raises(ValidationError, match=re.escape(message)):
            el.evaluate_panel(panel, calendar, **tiny_kwargs())

    def test_each_scale_is_computed_once(self, monkeypatch):
        from eventlift import evaluation, impact

        calls = []
        year_scale = impact.year_scale

        def counted(series, window, *args, **kwargs):
            calls.append(window.t0)
            return year_scale(series, window, *args, **kwargs)

        monkeypatch.setattr(impact, "year_scale", counted)
        monkeypatch.setattr(evaluation, "year_scale", counted, raising=False)
        panel, calendar = tiny_setup()
        el.evaluate_panel(panel, calendar, **tiny_kwargs())
        assert calls == [59, 159, 59, 159]

    def test_periods_longer_than_half_the_series_rejected_before_training(
        self, monkeypatch
    ):
        from eventlift import baselines, forecaster

        def no_training(*args, **kwargs):
            raise AssertionError("a net was trained")

        monkeypatch.setattr(forecaster, "_train_stack", no_training)
        monkeypatch.setattr(baselines, "_train_stack", no_training)
        panel, calendar = tiny_setup()
        kwargs = {**tiny_kwargs(), "periods": [7, 200]}
        with pytest.raises(ValidationError, match="series length 230 < 2 \\* max period = 400"):
            el.evaluate_panel(panel, calendar, **kwargs)

    @pytest.mark.parametrize(
        "lookback, horizon, message",
        [
            (10, 2, "event 'promo': window size d=3 exceeds forecast horizon H=2"),
            (10, 160, "event 'promo': need t0 >= lookback + horizon = 170 for training, "
                      "got t0=159"),
            # the training year's days 60..62 lie before day 61, where the
            # in-sample control starts
            (61, 5, "event 'promo': the occurrence at t0=59 starts before day 61, the "
                    "first day the in-sample control covers"),
        ],
        ids=["event_longer_than_horizon", "df_history_too_short", "control_starts_late"],
    )
    def test_window_the_methods_cannot_forecast_rejected_before_training(
        self, monkeypatch, lookback, horizon, message
    ):
        from eventlift import baselines, forecaster

        def no_training(*args, **kwargs):
            raise AssertionError("a net was trained")

        monkeypatch.setattr(forecaster, "_train_stack", no_training)
        monkeypatch.setattr(baselines, "_train_stack", no_training)
        panel, calendar = tiny_setup()
        kwargs = tiny_kwargs()
        kwargs["fw_config"] = el.RollingWindowConfig(lookback=lookback, horizon=horizon)
        with pytest.raises(ValidationError, match=re.escape(message)):
            el.evaluate_panel(panel, calendar, **kwargs)

    def test_sd_column_is_the_decomposition_mape(self):
        panel, calendar = tiny_setup()
        report = el.evaluate_panel(panel, calendar, **tiny_kwargs())
        assert_sd_column_is_the_decomposition_mape(report, panel, tiny_kwargs()["periods"])

    def test_df_divergence_names_the_series(self, monkeypatch):
        from eventlift import baselines

        def diverge(stack, norms, arch, loss_cfg, train_cfg, seeds):
            raise TrainingDivergedError(4, float("nan"), 1)

        monkeypatch.setattr(baselines, "_train_stack", diverge)
        panel, calendar = tiny_setup()
        with pytest.raises(TrainingDivergedError, match="epoch 4 for net DF of series 's001'"):
            el.evaluate_panel(panel, calendar, **tiny_kwargs())

    def test_df_divergence_in_a_forked_worker_names_the_series(self, forks, monkeypatch):
        """On two CPUs, each series' DF net trains in a forked child; s001's
        real float32 overflow is named by the series.  The pooled net, which
        would diverge on the spike first, is not trained."""
        from eventlift import evaluation, montecarlo

        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
        monkeypatch.setattr(evaluation, "train_pooled", lambda series, *_: [None] * len(series))
        panel, calendar = tiny_setup()
        values = panel.values.copy()
        values[1, 100] = 1e300
        panel = el.PanelSeries(values)
        with pytest.raises(TrainingDivergedError, match="for net DF of series 's001'"), \
                np.errstate(all="ignore"):
            el.evaluate_panel(panel, calendar, **tiny_kwargs())
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pooled_divergence_beside_the_df_workers_is_raised_first(self, forks, monkeypatch):
        """A spike after the target's t0 makes the pooled net overflow but not
        the DF nets, which train on the days up to t0 in forked children
        meanwhile: the pooled net's own error is raised, not named as a DF
        net's, and no child is left."""
        from eventlift import montecarlo

        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
        panel, calendar = tiny_setup()
        values = panel.values.copy()
        values[1, 200] = 1e300
        panel = el.PanelSeries(values)
        with pytest.raises(TrainingDivergedError) as info, np.errstate(all="ignore"):
            el.evaluate_panel(panel, calendar, **tiny_kwargs())
        assert re.fullmatch(r"training diverged at epoch \d+ for net 0: loss=\w+", str(info.value))
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pooled_net_trains_here_while_the_first_event_df_runs(self, monkeypatch):
        """``train_pooled`` runs as the first event's ``direct_forecast``'s
        ``alongside``, and both are called in this process."""
        from eventlift import evaluation, montecarlo

        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
        calls = []
        train_pooled, direct_forecast = evaluation.train_pooled, evaluation.direct_forecast

        def pooled(*args):
            calls.append(("pooled", os.getpid()))
            return train_pooled(*args)

        def df(*args, **kwargs):
            calls.append(("DF", os.getpid()))
            control = direct_forecast(*args, **kwargs)
            calls.append(("DF done", os.getpid()))
            return control

        monkeypatch.setattr(evaluation, "train_pooled", pooled)
        monkeypatch.setattr(evaluation, "direct_forecast", df)
        panel, calendar = tiny_setup()
        calendar = el.EventCalendar({"promo": calendar.occurrences("promo"),
                                     "sale": calendar.occurrences("promo")})
        el.evaluate_panel(panel, calendar, **tiny_kwargs())
        assert [name for name, _ in calls] == ["DF", "pooled", "DF done", "DF", "DF done"]
        assert {pid for _, pid in calls} == {os.getpid()}

    def test_event_name_filter(self):
        panel, calendar = tiny_setup()
        report = el.evaluate_panel(
            panel, calendar, event_names=["promo"], **tiny_kwargs()
        )
        assert len(report.results) == 2
        with pytest.raises(ValidationError, match="unknown event"):
            el.evaluate_panel(panel, calendar, event_names=["nope"], **tiny_kwargs())

    def test_empty_mean_mape_rejected(self):
        with pytest.raises(ValidationError):
            el.EvaluationReport().mean_mape()


def report_bytes(report) -> bytes:
    """Every number of the report, as bytes."""
    return pickle.dumps([
        (r.series_id, r.event, r.mape_sd, r.mape_df, r.mape_ours, r.predicted_effect.tobytes(),
         r.observed.tobytes(), r.control_ours.tobytes(), r.ratios.tobytes(), r.scales.tobytes())
        for r in report.results
    ])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="DF forks only on Linux")
@pytest.mark.parametrize("n_series", [2, 1], ids=["tiny", "one_series"])
def test_report_bytes_do_not_depend_on_the_cpu_count(n_series, forks, monkeypatch):
    """On one CPU nothing forks; on more, each DF group forks, a lone series
    too, while this process trains the pooled net.  The report is the same
    bytes every time."""
    from eventlift import montecarlo

    panel, calendar = tiny_setup()
    panel = el.PanelSeries(panel.values[:n_series])
    seen = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
        forks.clear()
        seen[cpus] = report_bytes(el.evaluate_panel(panel, calendar, **tiny_kwargs()))
        assert len(forks) == (0 if cpus == 1 else min(cpus, n_series))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(set(seen.values())) == 1


def df_reference_mapes(panel, calendar, fw_config, arch, train_cfg, **_):
    """Each series' DF MAPE from the 1-D ``direct_forecast``, one series at a
    time with its own derived seed, as ``evaluate_panel`` computed it before
    DF trained a panel's nets in stacks."""
    out = {}
    for i, sid in enumerate(panel.series_ids):
        series = panel.series(i)
        df_cfg = replace(train_cfg, seed=mix_seed(train_cfg.seed, 7919 + i) % (2**32))
        for name in sorted(calendar.events):
            target = calendar.occurrences(name)[-1]
            control = el.direct_forecast(series, target, fw_config, arch, df_cfg)
            days = target.columns
            out[sid, name] = el.evaluate_mape(control[days], series[days])
    return out


def test_df_column_matches_the_per_series_reference_on_the_tiny_panel():
    panel, calendar = tiny_setup()
    report = el.evaluate_panel(panel, calendar, **tiny_kwargs())
    expected = df_reference_mapes(panel, calendar, **tiny_kwargs())
    assert {(r.series_id, r.event): r.mape_df for r in report.results} == expected


def test_df_column_matches_the_per_series_reference_on_the_retail_panel(
    retail_data, retail_report, retail_eval_kwargs
):
    panel, calendar, _ = retail_data
    expected = df_reference_mapes(panel, calendar, **retail_eval_kwargs)
    assert {(r.series_id, r.event): r.mape_df for r in retail_report.results} == expected


def assert_sd_column_is_the_decomposition_mape(report, panel, periods):
    """Each SD MAPE is, bit for bit, the MAPE of ``seasonal_decompose``'s
    ``fitted_total`` on the target window."""
    for r in report.results:
        series = panel.series(panel.series_ids.index(r.series_id))
        decomposition, _ = el.seasonal_decompose(series, periods, r.target_window)
        days = r.target_window.columns
        assert r.mape_sd == el.evaluate_mape(decomposition.fitted_total[days], series[days])


def test_sd_column_is_the_decomposition_mape_on_the_retail_panel(
    retail_data, retail_report, retail_eval_kwargs
):
    panel, _, _ = retail_data
    assert_sd_column_is_the_decomposition_mape(
        retail_report, panel, retail_eval_kwargs["periods"]
    )


def ours_effect_error(retail_data, retail_eval_kwargs, loss_cfg):
    """Criterion 6's effect MAE, as a fraction of the true effects' mean
    magnitude, of the pooled forecaster trained with ``loss_cfg``."""
    panel, calendar, true_effects = retail_data
    kwargs = retail_eval_kwargs
    all_series = [panel.series(i) for i in range(panel.n_series)]
    models = el.train_pooled(
        all_series, kwargs["fw_config"], calendar, kwargs["arch"], loss_cfg, kwargs["train_cfg"]
    )
    occurrences = calendar.occurrences("holiday")
    predicted = []
    for series, model in zip(all_series, models):
        control = el.insample_forecast(model, series, kwargs["fw_config"].stride)
        scales = [el.year_scale(series, w, "pre_event_month", panel.time_index) for w in occurrences]
        _, effect = impact_for_series("holiday", series, occurrences, control, scales)
        predicted.append(effect)
    return np.mean(np.abs(np.stack(predicted) - true_effects)) / np.mean(np.abs(true_effects))


def test_rare_weighting_beats_no_weighting_on_the_retail_panel(retail_data, retail_eval_kwargs):
    """Down-weighting event days keeps the event out of the in-sample
    control: under the squared loss, which does not discount outlying days
    by itself, rare weight 0.1 estimates the effect clearly better than
    weight 1.0 (no weighting)."""
    weighted, unweighted = (
        ours_effect_error(
            retail_data, retail_eval_kwargs,
            el.AdaptiveLossConfig(rare_weight=rare_weight, distance="squared"),
        )
        for rare_weight in (0.1, 1.0)
    )
    assert 1.25 * weighted < unweighted, (weighted, unweighted)
