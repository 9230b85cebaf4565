"""End-to-end comparison of the adaptive pipeline against both baselines.

For each series (department) and each recurring event, the last occurrence
is the prediction target and all earlier ones are training years:

* ours: train the adaptively weighted forecaster once per series on the full
  history, take the in-sample synthetic control, turn the training years'
  observed-minus-control gaps into impact ratios, and predict the target
  effect as (mean ratio) x (target year's pre-event scale).  The predicted
  total is control + predicted effect.
* DF: train a uniform-weight forecaster on data up to the target window only
  and use its out-of-sample forecast as the predicted total.
* SD: decompose the series (weekly + annual by default); the fitted values
  including the annual component are the predicted total.

Each method's MAPE against the observed window fills one Table-style row
(department, event, SD, DF, ours).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import direct_forecast, seasonal_decompose
from .errors import ValidationError
from .forecaster import (
    AdaptiveLossConfig,
    ForecasterArch,
    RollingWindowConfig,
    TrainConfig,
    build_rolling_windows,
    extract_effect,
    insample_forecast,
    train,
)
from .impact import evaluate_mape, impact_for_series, split_occurrences
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

    def mape_rows(self) -> list[tuple]:
        return [
            (r.series_id, r.event, r.mape_sd, r.mape_df, r.mape_ours)
            for r in self.results
        ]

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

    Events need at least two occurrences (training years plus the target).
    The per-series training seed is derived from ``train_cfg.seed`` so runs
    are reproducible end to end.
    """
    fw_config = fw_config or RollingWindowConfig()
    arch = arch or ForecasterArch()
    loss_cfg = loss_cfg or AdaptiveLossConfig()
    train_cfg = train_cfg or TrainConfig()
    periods = periods or [7, 365]
    names = event_names if event_names is not None else sorted(calendar.events)
    for name in names:
        split_occurrences(name, calendar.occurrences(name))

    report = EvaluationReport()
    for i, sid in enumerate(panel.series_ids):
        series = panel.series(i)
        samples = build_rolling_windows(series, fw_config, calendar)
        series_cfg = replace(train_cfg, seed=mix_seed(train_cfg.seed, i) % (2**32))
        model = train(samples, arch, loss_cfg, series_cfg)
        control = insample_forecast(model, series, fw_config)

        def estimate(window):
            return extract_effect(control, series, window)

        for name in names:
            occurrences = calendar.occurrences(name)
            target = occurrences[-1]
            ratios, scales, _, predicted = impact_for_series(
                name, series, occurrences, estimate, scale_mode, panel.time_index
            )

            idx = np.array(list(target.indices))
            observed = series[idx]
            control_window = control[idx]
            if np.isnan(control_window).any():
                raise ValidationError(
                    f"series {sid!r}: in-sample control does not cover target window "
                    f"indices {idx[np.isnan(control_window)].tolist()}"
                )
            mape_ours = evaluate_mape(control_window + predicted, observed)

            df_cfg = replace(train_cfg, seed=mix_seed(train_cfg.seed, 7919 + i) % (2**32))
            df = direct_forecast(series, target, fw_config, arch, df_cfg)
            mape_df = evaluate_mape(df[idx], observed)

            decomposition, _ = seasonal_decompose(series, periods, target)
            mape_sd = evaluate_mape(decomposition.fitted_total[idx], observed)

            report.results.append(
                SeriesEventResult(
                    series_id=sid,
                    event=name,
                    mape_sd=mape_sd,
                    mape_df=mape_df,
                    mape_ours=mape_ours,
                    predicted_effect=predicted,
                    observed=observed,
                    control_ours=control_window,
                    target_window=target,
                    ratios=ratios,
                    scales=scales,
                )
            )
    return report
