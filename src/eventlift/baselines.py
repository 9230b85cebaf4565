"""Reference baselines: direct out-of-sample forecasting and seasonal
decomposition.

Both produce a synthetic control on an event window without the adaptive
in-sample machinery, giving the comparison points for the main pipeline.
A control is a (T,) array along the series, NaN where no forecast lands.
``direct_forecast`` also takes an (S, T) block of series and returns their
(S, T) controls, one net per series, trained in lock-step stacks that hold
each series' days up to the window start once, not a copy per window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ar import recursive_control
from .errors import TrainingDivergedError, ValidationError
from .forecaster import (
    AdaptiveLossConfig,
    ForecasterArch,
    RollingWindowConfig,
    TrainConfig,
    _train_stack,
    build_rolling_windows,
)
from .panel import EventWindow

__all__ = [
    "DecompositionResult",
    "direct_forecast",
    "seasonal_decompose",
    "centered_moving_average",
]

# nets per lock-step training stack: the gain of stacking has levelled off by
# six, and a panel of any size then holds at most six nets' buffers at once
_STACK_NETS = 6


def direct_forecast(
    series: np.ndarray,
    window: EventWindow,
    config: RollingWindowConfig,
    arch: ForecasterArch | None = None,
    train_cfg: TrainConfig | Sequence[TrainConfig] | None = None,
    predictor: str = "mlp",
) -> np.ndarray:
    """Train on data up to the window start only, then forecast into it.

    The model sees nothing after t0, so no event down-weighting is needed
    (the target event lies wholly outside training).  ``predictor`` picks
    the forecaster: ``"mlp"`` trains the net with uniform weights, and
    ``"ar1"`` is ``ar.recursive_control`` on one H-day window from t0, the
    same control ``impact --method ar`` uses.

    ``series`` is one (T,) series or an (S, T) block of them, each with its
    own net: ``train_cfg`` is one config for every row or a sequence of one
    per row.  The rows' nets train in lock-step stacks of at most
    ``_STACK_NETS`` (``forecaster._train_stack``), each stack filled one
    series at a time (its windows are offsets into its days up to t0), and
    row i gets the bits of the 1-D call on it with config i.  A net that
    diverges is named by its row.

    Returns the (T,) or (S, T) control: the forecasts on indices t0+1 ..
    min(t0+H, end of series), NaN everywhere else.  A window with no day
    before the series end is rejected before any training, and a non-finite
    forecast after it.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim not in (1, 2):
        raise ValidationError("direct_forecast expects a 1-D series or a 2-D block of them")
    rows = x.reshape(-1, x.shape[-1])
    t0 = window.t0
    M, H = config.lookback, config.horizon
    if window.d > H:
        raise ValidationError(
            f"window size d={window.d} exceeds forecast horizon H={H}"
        )
    if t0 + 1 >= rows.shape[1]:
        raise ValidationError(
            f"window t0={t0} leaves no day to forecast in a series of length {rows.shape[1]}"
        )
    if predictor == "ar1":
        windows = [EventWindow(t0, H)]
        return np.stack([recursive_control(row, windows) for row in rows]).reshape(x.shape)
    if predictor != "mlp":
        raise ValidationError(f"predictor must be 'mlp' or 'ar1', got {predictor!r}")
    if t0 < M + H:
        raise ValidationError(
            f"need t0 >= lookback + horizon = {M + H} for training, got t0={t0}"
        )
    if train_cfg is None or isinstance(train_cfg, TrainConfig):
        cfgs = [train_cfg or TrainConfig()] * len(rows)
    else:
        cfgs = list(train_cfg)
        if len(cfgs) != len(rows):
            raise ValidationError(f"{len(cfgs)} training configs for {len(rows)} series")
    arch = arch or ForecasterArch()
    uniform = AdaptiveLossConfig(rare_weight=1.0, nonrare_weight=1.0)

    control = np.full(rows.shape, np.nan)
    stop = min(t0 + 1 + H, rows.shape[1])
    for first in range(0, len(rows), _STACK_NETS):
        stack = rows[first : first + _STACK_NETS]
        samples = (build_rolling_windows(row[: t0 + 1], config, calendar=None) for row in stack)
        try:
            models = _train_stack(samples, arch, uniform, cfgs[first : first + _STACK_NETS])
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(exc.epoch, exc.loss, first + exc.net) from exc
        for row, out, model in zip(stack, control[first:], models):
            out[t0 + 1 : stop] = model.predict(row[t0 + 1 - M : t0 + 1])[: stop - (t0 + 1)]
    bad = np.flatnonzero(~np.isfinite(control[:, t0 + 1 : stop]).all(axis=1))
    if bad.size:
        where = f" for row {bad[0]}" if x.ndim == 2 else ""
        raise ValidationError(f"mlp forecast after t0={t0} is not finite{where}")
    return control.reshape(x.shape)


def centered_moving_average(x: np.ndarray, period: int) -> np.ndarray:
    """Centered moving average of one period's width.

    Even periods use the classical period+1 window with half weights at the
    ends.  Where that window fits, the average is one ``np.correlate`` of
    the series with the weights.  Near the series edges the window shrinks
    symmetrically to the widest radius that fits (a plain mean), which
    affects the first and last period/2 points, and every point of a series
    shorter than the window: edge point t averages the 2t+1 points nearest
    its end, read off running sums taken inward from that end.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if period < 2:
        raise ValidationError(f"period must be >= 2, got {period}")
    h = period // 2
    full = np.ones(2 * h + 1)
    if period % 2 == 0:
        full[0] = full[-1] = 0.5
    full /= full.sum()
    out = np.empty(n)
    if n > 2 * h:
        out[h : n - h] = np.correlate(x, full, "valid")
    lengths = np.arange(1, 2 * h, 2)
    left, right = min(h, (n + 1) // 2), min(h, n // 2)
    out[:left] = np.cumsum(x[: 2 * left])[::2] / lengths[:left]
    out[n - right :] = (np.cumsum(x[::-1][: 2 * right])[::2] / lengths[:right])[::-1]
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


def _ordered_periods(periods, length: int) -> list[int]:
    """The decomposition periods in ascending order, checked against a
    series of ``length`` points."""
    ordered = sorted(int(p) for p in periods)
    if len(ordered) != len(set(ordered)):
        raise ValidationError(f"periods must be distinct, got {periods}")
    if not ordered or any(p < 2 for p in ordered):
        raise ValidationError(f"periods must all be >= 2, got {periods}")
    if length < 2 * ordered[-1]:
        raise ValidationError(f"series length {length} < 2 * max period = {2 * ordered[-1]}")
    return ordered


def seasonal_decompose(
    series: np.ndarray,
    periods: list[int],
    window: EventWindow,
) -> tuple[DecompositionResult, np.ndarray]:
    """Iterated classical decomposition and the control it implies.

    For each period in ascending order: estimate a trend by centered moving
    average at that period, take phase means of the detrended residual over
    the interior where the average had its full window (one ``np.bincount``
    of the residual by phase, divided by the phase counts, then normalized
    to sum to zero over the period), and subtract the tiled seasonal before
    the next pass.  The final trend is the moving average of the
    deseasonalized series at the longest period.

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
    ordered = _ordered_periods(periods, len(x))
    window.check_fits(len(x) - 1)

    work = x.copy()
    seasonals: dict[int, np.ndarray] = {}
    for period in ordered:
        trend_p = centered_moving_average(work, period)
        detrended = work - trend_p
        # phase means use only indices whose moving-average window was full,
        # so the edge-shrunk trend never contaminates the seasonal shape
        # (the series is at least two periods long, so each phase has one)
        h = period // 2
        phases = np.arange(h, len(x) - h) % period
        phase_means = np.bincount(phases, weights=detrended[h : len(x) - h]) / np.bincount(phases)
        phase_means -= phase_means.mean()
        tiled = np.resize(phase_means, len(x))
        seasonals[period] = tiled
        work = work - tiled

    trend = centered_moving_average(work, ordered[-1])
    remainder = work - trend
    result = DecompositionResult(
        trend=trend, seasonal_components=seasonals, remainder=remainder
    )

    days = window.columns
    control = np.full(len(x), np.nan)
    control[days] = trend[days] + result.seasonal_sum(exclude=ordered[-1])[days]
    return result, control
