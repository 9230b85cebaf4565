"""Year-normalized impact ratios and next-occurrence effect prediction.

Effect sizes grow with the series' overall level, so a raw average across
years mixes scales.  Dividing each year's estimated effect by that year's
pre-event level gives a dimensionless impact ratio; the cross-year mean
ratio, rescaled by the target year's own level, predicts the target effect.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .panel import EventWindow

__all__ = [
    "ImpactRatioModel",
    "impact_ratio",
    "model_from_estimates",
    "predict_effect",
    "year_scale",
    "split_occurrences",
    "impact_for_series",
    "evaluate_mape",
]

# pre-event scale window: 30 days ending one week before the event starts,
# so the event run-up (the 7 days through t0) never leaks into the scale
SCALE_DAYS = 30
RUNUP_BUFFER = 7


def impact_ratio(delta: np.ndarray, scale: float) -> np.ndarray:
    """Per-day effect divided by the year's scale."""
    if scale <= 0:
        raise ValidationError(f"scale must be > 0, got {scale}")
    return np.asarray(delta, dtype=float) / scale


@dataclass
class ImpactRatioModel:
    """Per-year (ratio vector, scale) pairs plus their cross-year mean.

    ``per_year`` maps a year key to its (per-day ratio, scale) pair;
    ``averaged_ratio`` is the elementwise mean ratio over years in sorted key
    order, so it is independent of insertion order.
    """

    per_year: dict
    averaged_ratio: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.per_year:
            raise ValidationError("impact model needs at least one training year")
        normalized = {}
        d = None
        for year in sorted(self.per_year):
            ratio, scale = self.per_year[year]
            ratio = np.asarray(ratio, dtype=float)
            if ratio.ndim != 1:
                raise ValidationError(f"year {year}: ratio must be a vector")
            if d is None:
                d = ratio.size
            elif ratio.size != d:
                raise ValidationError(
                    f"year {year}: ratio length {ratio.size} != {d} of earlier years"
                )
            if scale <= 0:
                raise ValidationError(f"year {year}: scale must be > 0, got {scale}")
            normalized[year] = (ratio, float(scale))
        self.per_year = normalized
        stacked = np.stack([normalized[y][0] for y in sorted(normalized)])
        self.averaged_ratio = stacked.mean(axis=0)


def model_from_estimates(estimates_by_year: dict) -> ImpactRatioModel:
    """Build a ratio model from {year: (per-day effect, scale)} pairs."""
    per_year = {
        year: (impact_ratio(delta, scale), scale)
        for year, (delta, scale) in estimates_by_year.items()
    }
    return ImpactRatioModel(per_year=per_year)


def predict_effect(model: ImpactRatioModel, target_scale: float) -> np.ndarray:
    """Averaged ratio rescaled by the target year's pre-event level."""
    if target_scale <= 0:
        raise ValidationError(f"target_scale must be > 0, got {target_scale}")
    return model.averaged_ratio * target_scale


def year_scale(
    series: np.ndarray,
    window: EventWindow,
    mode: str = "pre_event_month",
    time_index=None,
) -> float:
    """Daily-level scale of the year an event occurrence falls in.

    ``pre_event_month``: mean over the 30 days ending one week before the
    event starts (indices t0-36 .. t0-7), which is observable before the
    event happens.  ``calendar_month``: mean over the event's calendar month
    excluding the event days themselves; needs a date-valued time index.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("year_scale expects a single 1-D series")
    window.check_fits(len(x) - 1)
    if mode == "pre_event_month":
        hi = window.t0 - RUNUP_BUFFER
        lo = max(0, hi - SCALE_DAYS + 1)
        if hi < 0:
            raise ValidationError(
                f"no pre-event days available for scale (t0={window.t0} leaves "
                f"nothing before the {RUNUP_BUFFER}-day run-up)"
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


def split_occurrences(event: str, occurrences) -> tuple[list, EventWindow]:
    """Training years (every occurrence but the last) and the target (the last)."""
    if len(occurrences) < 2:
        raise ValidationError(
            f"event {event!r} needs >= 2 occurrences (training years + target)"
        )
    return occurrences[:-1], occurrences[-1]


def impact_for_series(event: str, series, occurrences, estimate, scale_mode, time_index):
    """Ratio model of one series' event and its predicted target-year effect.

    ``estimate(window)`` gives a training year's effect, which is divided by
    that year's ``year_scale``; the cross-year ratio rescaled by the target
    year's scale is the prediction.  Returns (model, target scale, predicted
    per-day effect).
    """
    training_years, target = split_occurrences(event, occurrences)
    per_year = {}
    for year, window in enumerate(training_years):
        est = estimate(window)
        scale = year_scale(series, window, mode=scale_mode, time_index=time_index)
        per_year[year] = (est, scale)
    model = model_from_estimates(per_year)
    target_scale = year_scale(series, target, mode=scale_mode, time_index=time_index)
    return model, target_scale, predict_effect(model, target_scale)


def evaluate_mape(predicted_total: np.ndarray, observed: np.ndarray) -> float:
    """Mean absolute percentage error, in percent."""
    p = np.asarray(predicted_total, dtype=float)
    o = np.asarray(observed, dtype=float)
    if p.shape != o.shape or p.ndim != 1:
        raise ValidationError(
            f"predicted and observed must be equal-length vectors, got {p.shape}, {o.shape}"
        )
    zeros = np.flatnonzero(o == 0)
    if zeros.size:
        raise ValidationError(
            f"observed value is zero at index {int(zeros[0])}; MAPE undefined"
        )
    return float(100.0 * np.mean(np.abs(o - p) / np.abs(o)))
