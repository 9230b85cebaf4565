"""Reference baselines: direct out-of-sample forecasting and seasonal
decomposition.

Both produce a synthetic control on an event window without the adaptive
in-sample machinery, giving the comparison points for the main pipeline.
A control is a (T,) array along the series, NaN where no forecast lands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ar import fit_ar1_ols, forecast_counterfactual
from .errors import ValidationError
from .forecaster import (
    AdaptiveLossConfig,
    ForecasterArch,
    RollingWindowConfig,
    TrainConfig,
    build_rolling_windows,
    train,
)
from .panel import EventWindow, PanelSeries

__all__ = [
    "DecompositionResult",
    "direct_forecast",
    "seasonal_decompose",
    "centered_moving_average",
]


def direct_forecast(
    series: np.ndarray,
    window: EventWindow,
    config: RollingWindowConfig,
    arch: ForecasterArch | None = None,
    train_cfg: TrainConfig | None = None,
    predictor: str = "mlp",
) -> np.ndarray:
    """Train on data up to the window start only, then forecast into it.

    The model sees nothing after t0, so no event down-weighting is needed
    (the target event lies wholly outside training).  ``predictor`` picks
    the forecaster: ``"mlp"`` trains the net with uniform weights,
    ``"ar1"`` fits the autoregressive model and iterates it forward, which
    matches the recursive counterfactual exactly on the same data.

    Returns the (T,) control: the forecasts on indices t0+1 ..
    min(t0+H, end of series), NaN everywhere else.  A non-finite forecast
    is rejected.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("direct_forecast expects a single 1-D series")
    t0 = window.t0
    M, H = config.lookback, config.horizon
    if window.d > H:
        raise ValidationError(
            f"window size d={window.d} exceeds forecast horizon H={H}"
        )
    if predictor == "mlp":
        if t0 < M + H:
            raise ValidationError(
                f"need t0 >= lookback + horizon = {M + H} for training, got t0={t0}"
            )
        history = x[: t0 + 1]
        samples = build_rolling_windows(history, config, calendar=None)
        arch = arch or ForecasterArch()
        train_cfg = train_cfg or TrainConfig()
        uniform = AdaptiveLossConfig(rare_weight=1.0, nonrare_weight=1.0)
        model = train(samples, arch, uniform, train_cfg)
        preds = model.predict(x[t0 + 1 - M : t0 + 1])
    elif predictor == "ar1":
        history = PanelSeries(x[None, : t0 + 1])
        fit = fit_ar1_ols(history, t0)
        preds = forecast_counterfactual(fit, history, EventWindow(t0=t0, d=H))[0]
    else:
        raise ValidationError(f"predictor must be 'mlp' or 'ar1', got {predictor!r}")

    control = np.full(len(x), np.nan)
    stop = min(t0 + 1 + H, len(x))
    control[t0 + 1 : stop] = preds[: stop - (t0 + 1)]
    if not np.isfinite(control[t0 + 1 : stop]).all():
        raise ValidationError(f"{predictor} forecast after t0={t0} is not finite")
    return control


def centered_moving_average(x: np.ndarray, period: int) -> np.ndarray:
    """Centered moving average of one period's width.

    Even periods use the classical period+1 window with half weights at the
    ends.  Near the series edges the window shrinks symmetrically to the
    widest radius that fits (a plain mean), which affects the first and last
    period/2 points.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if period < 2:
        raise ValidationError(f"period must be >= 2, got {period}")
    h = period // 2
    out = np.empty(n)
    even = period % 2 == 0
    full = np.ones(2 * h + 1)
    if even:
        full[0] = full[-1] = 0.5
    full /= full.sum()
    for t in range(n):
        r = min(h, t, n - 1 - t)
        if r == h:
            out[t] = x[t - h : t + h + 1] @ full
        else:
            out[t] = x[t - r : t + r + 1].mean()
    return out


@dataclass
class DecompositionResult:
    """Additive decomposition: trend + all seasonal components + remainder
    reconstructs the series (to float rounding)."""

    trend: np.ndarray
    seasonal_components: dict[int, np.ndarray]
    remainder: np.ndarray

    def seasonal_sum(self, exclude: int | None = None) -> np.ndarray:
        comps = (c for p, c in self.seasonal_components.items() if p != exclude)
        return sum(comps, np.zeros_like(self.trend))

    @property
    def fitted_total(self) -> np.ndarray:
        """Trend plus every seasonal component (series minus remainder)."""
        return self.trend + self.seasonal_sum()


def seasonal_decompose(
    series: np.ndarray,
    periods: list[int],
    window: EventWindow,
) -> tuple[DecompositionResult, np.ndarray]:
    """Iterated classical decomposition and the control it implies.

    For each period in ascending order: estimate a trend by centered moving
    average at that period, take phase means of the detrended residual over
    the interior where the average had its full window (normalized to sum to
    zero over the period), and subtract the tiled seasonal before the next
    pass.  The final trend is the moving average of the deseasonalized
    series at the longest period.

    The longest period's seasonal absorbs annually recurring events, so the
    synthetic control on the window is trend plus all shorter-period
    seasonals, with the longest excluded; it is returned as a (T,) array,
    NaN outside the window.  The full fit including it (``fitted_total``) is
    the decomposition's estimate of observed values.  A non-finite series
    value is rejected.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("seasonal_decompose expects a single 1-D series")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValidationError(f"series value at index {bad[0]} is not finite ({x[bad[0]]})")
    ordered = sorted(int(p) for p in periods)
    if len(ordered) != len(set(ordered)):
        raise ValidationError(f"periods must be distinct, got {periods}")
    if not ordered or any(p < 2 for p in ordered):
        raise ValidationError(f"periods must all be >= 2, got {periods}")
    if len(x) < 2 * ordered[-1]:
        raise ValidationError(
            f"series length {len(x)} < 2 * max period = {2 * ordered[-1]}"
        )
    window.check_fits(len(x) - 1)

    work = x.copy()
    seasonals: dict[int, np.ndarray] = {}
    for period in ordered:
        trend_p = centered_moving_average(work, period)
        detrended = work - trend_p
        # phase means use only indices whose moving-average window was full,
        # so the edge-shrunk trend never contaminates the seasonal shape
        h = period // 2
        interior = np.arange(h, len(x) - h)
        phase_means = np.array(
            [detrended[interior[interior % period == phase]].mean() for phase in range(period)]
        )
        phase_means -= phase_means.mean()
        tiled = np.resize(phase_means, len(x))
        seasonals[period] = tiled
        work = work - tiled

    trend = centered_moving_average(work, ordered[-1])
    remainder = work - trend
    result = DecompositionResult(
        trend=trend, seasonal_components=seasonals, remainder=remainder
    )

    idx = np.array(list(window.indices))
    control = np.full(len(x), np.nan)
    control[idx] = trend[idx] + result.seasonal_sum(exclude=ordered[-1])[idx]
    return result, control
