"""End-to-end comparison of the adaptive pipeline against both baselines.

For each series (department) and each recurring event, the last occurrence
is the prediction target and all earlier ones are training years:

* ours: train one adaptively weighted forecaster for the whole panel
  (``train_pooled``: every series' windows, each holding its series
  normalized once, by its own median and interquartile range, in one
  float32 training set; each series' model carries that pair; ``epochs`` is
  one series' budget of gradient steps, split over the pool), take each
  series' in-sample synthetic control (windows ``stride`` apart), hand it
  to ``impact_for_series``, which turns the training years'
  observed-minus-control gaps into impact ratios and predicts the target
  effect as (mean ratio) x (target year's pre-event scale).  The predicted
  total is control + predicted effect.
  The net also trains on the target year, but its event days enter only at
  ``rare_weight``: removing the target event moves the control by about
  0.1-0.3% of the effect, so the in-sample control is kept.
* DF: per series, train a uniform-weight forecaster on data up to the
  target window only and use its out-of-sample forecast as the predicted
  total.  One ``direct_forecast`` call per event covers every series: their
  nets train in lock-step stacks under one config, each with its own seed
  derived from ``train_cfg.seed`` and the bits of training it alone; a net
  that diverges is named by its series.
* SD: decompose the series (weekly + annual by default); the fitted values
  including the annual component are the predicted total.

The pooled net trains in this process as the first event's
``direct_forecast`` ``alongside`` work, which overlaps DF's training as
``montecarlo._forked_map`` states.  The report is the same bytes on any
number of CPUs, and a pooled-net divergence is raised before any DF error,
as when the pooled net trained first.  With no
event to evaluate, nothing trains.

Before anything trains, every event's occurrences, its target window
against DF's rules (``baselines._check_window``), every occurrence against
day ``lookback``, the first the in-sample control covers, the decomposition
periods, every (series, occurrence) scale and every target window's observed
days (``evaluate_mape`` needs them nonzero) are checked, so an input the run
cannot use fails at once and names its event, and its series where it is one
series'.  Each (series,
event) row (department, event, SD, DF, ours: each method's MAPE against the
observed window) is then built in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import _check_window, _ordered_periods, direct_forecast, seasonal_decompose
from .errors import TrainingDivergedError, ValidationError
from .forecaster import (
    AdaptiveLossConfig,
    ForecasterArch,
    RollingWindowConfig,
    TrainConfig,
    insample_forecast,
    train_pooled,
)
from .impact import evaluate_mape, impact_for_series, split_occurrences, year_scale
from .montecarlo import mix_seed
from .panel import EventCalendar, PanelSeries

__all__ = ["SeriesEventResult", "EvaluationReport", "evaluate_panel"]


@dataclass
class SeriesEventResult:
    series_id: str
    event: str
    mape_sd: float
    mape_df: float
    mape_ours: float
    predicted_effect: np.ndarray
    observed: np.ndarray
    control_ours: np.ndarray
    target_window: object
    ratios: np.ndarray
    scales: np.ndarray


@dataclass
class EvaluationReport:
    results: list[SeriesEventResult] = field(default_factory=list)

    def mean_mape(self) -> dict[str, float]:
        if not self.results:
            raise ValidationError("no results to aggregate")
        return {
            "SD": float(np.mean([r.mape_sd for r in self.results])),
            "DF": float(np.mean([r.mape_df for r in self.results])),
            "ours": float(np.mean([r.mape_ours for r in self.results])),
        }


def evaluate_panel(
    panel: PanelSeries,
    calendar: EventCalendar,
    event_names: list[str] | None = None,
    fw_config: RollingWindowConfig | None = None,
    arch: ForecasterArch | None = None,
    loss_cfg: AdaptiveLossConfig | None = None,
    train_cfg: TrainConfig | None = None,
    periods: list[int] | None = None,
    scale_mode: str = "pre_event_month",
) -> EvaluationReport:
    """Run all three methods on every (series, event) pair.

    Events need at least two occurrences (training years plus the target),
    a target window DF can forecast, no occurrence before day ``lookback``,
    and every series a positive ``year_scale`` at each of them and no zero
    in the target window; all of these, and the periods, are checked before
    any training.  The pooled net trains with ``train_cfg.seed``, and
    series i's DF net under ``train_cfg`` with the seed
    ``mix_seed(train_cfg.seed, 7919 + i) % 2**32``, so runs are reproducible
    end to end.
    """
    fw_config = fw_config or RollingWindowConfig()
    arch = arch or ForecasterArch()
    loss_cfg = loss_cfg or AdaptiveLossConfig()
    train_cfg = train_cfg or TrainConfig()
    periods = [7, 365] if periods is None else periods
    names = event_names if event_names is not None else sorted(calendar.events)
    targets = {}
    for name in names:
        occurrences = calendar.occurrences(name)
        _, targets[name] = split_occurrences(name, occurrences)
        first = min(w.t0 for w in occurrences)
        try:
            _check_window(targets[name], panel.values.shape[1], fw_config)
            if first + 1 < fw_config.lookback:
                raise ValidationError(
                    f"the occurrence at t0={first} starts before day {fw_config.lookback}, "
                    "the first day the in-sample control covers"
                )
        except ValidationError as exc:
            raise ValidationError(f"event {name!r}: {exc}") from exc
    _ordered_periods(periods, panel.values.shape[1])

    all_series = [panel.series(i) for i in range(panel.n_series)]
    scales = {}
    for sid, series in zip(panel.series_ids, all_series):
        for name in names:
            try:
                scales[sid, name] = [
                    year_scale(series, w, scale_mode, panel.time_index)
                    for w in calendar.occurrences(name)
                ]
                days = targets[name].columns
                evaluate_mape(series[days], series[days], panel.time_index[days])
            except ValidationError as exc:
                raise ValidationError(f"series {sid!r}, event {name!r}: {exc}") from exc

    models = []

    def train_ours():
        models.extend(train_pooled(all_series, fw_config, calendar, arch, loss_cfg, train_cfg))

    df_seeds = [mix_seed(train_cfg.seed, 7919 + i) % (2**32) for i in range(panel.n_series)]
    df_controls = {}
    for name, target in targets.items():
        try:
            df_controls[name] = direct_forecast(
                panel.values, target, fw_config, arch, train_cfg, seeds=df_seeds,
                alongside=None if models else train_ours,
            )
        except TrainingDivergedError as exc:
            if not models:  # the pooled net's own, raised before any DF error
                raise
            raise TrainingDivergedError(
                exc.epoch, exc.loss, f"DF of series {panel.series_ids[exc.net]!r}"
            ) from exc
    report = EvaluationReport()
    for i, (sid, series, model) in enumerate(zip(panel.series_ids, all_series, models)):
        control = insample_forecast(model, series, fw_config.stride)

        for name, target in targets.items():
            ratios, predicted = impact_for_series(
                name, series, calendar.occurrences(name), control, scales[sid, name]
            )
            decomposition, _ = seasonal_decompose(series, periods, target)

            # covered: the control has every day from the first training year on
            days = target.columns
            observed = series[days]
            control_window = control[days]
            report.results.append(
                SeriesEventResult(
                    series_id=sid,
                    event=name,
                    mape_sd=evaluate_mape(decomposition.fitted_total[days], observed),
                    mape_df=evaluate_mape(df_controls[name][i, days], observed),
                    mape_ours=evaluate_mape(control_window + predicted, observed),
                    predicted_effect=predicted,
                    observed=observed,
                    control_ours=control_window,
                    target_window=target,
                    ratios=ratios,
                    scales=np.array(scales[sid, name][:-1]),
                )
            )
    return report
