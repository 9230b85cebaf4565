"""Year-normalized impact ratios and next-occurrence effect prediction.

Effect sizes grow with the series' overall level, so a raw average across
years mixes scales.  Dividing each year's estimated effect by that year's
pre-event level gives a dimensionless impact ratio; the cross-year mean
ratio, rescaled by the target year's own level, predicts the target effect.
A year's effect is the series minus a (T,) control from either estimator.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left, bisect_right
from operator import attrgetter

import numpy as np

from .errors import ValidationError
from .forecaster import extract_effect
from .panel import EventWindow

__all__ = [
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


def model_from_estimates(effects, scales) -> np.ndarray:
    """(K, d) impact ratios: row k is training year k's (d,) per-day effect
    divided by that year's scale."""
    effects = [np.asarray(e, dtype=float) for e in effects]
    if not effects:
        raise ValidationError("impact model needs at least one training year")
    if len(scales) != len(effects):
        raise ValidationError(f"{len(effects)} yearly effects but {len(scales)} scales")
    for year, (effect, scale) in enumerate(zip(effects, scales)):
        if effect.ndim != 1 or effect.shape != effects[0].shape:
            raise ValidationError(
                f"year {year}: effect shape {effect.shape}; every year needs a vector "
                f"as long as year 0's ({effects[0].size})"
            )
        if scale <= 0:
            raise ValidationError(f"year {year}: scale must be > 0, got {scale}")
    return np.stack(effects) / np.asarray(scales, dtype=float)[:, None]


def predict_effect(ratios: np.ndarray, target_scale: float) -> np.ndarray:
    """Cross-year mean ratio rescaled by the target year's pre-event level."""
    if target_scale <= 0:
        raise ValidationError(f"target_scale must be > 0, got {target_scale}")
    return np.mean(ratios, axis=0) * target_scale


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
    excluding the event days themselves; needs the panel's date-valued time
    index, which ``PanelSeries`` keeps strictly increasing.
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
        days, first, last = x[lo : hi + 1], lo, hi
    elif mode == "calendar_month":
        if time_index is None:
            raise ValidationError("calendar_month mode needs a time_index")
        if len(time_index) != len(x):
            raise ValidationError("time_index length must match the series")
        start = time_index[window.t0 + 1]
        if not isinstance(start, datetime.date):
            raise ValidationError("calendar_month mode needs a date-valued time index")
        # the month is the index range [lo, hi), bisected; the window starts in it
        month = attrgetter("year", "month")
        lo = bisect_left(time_index, month(start), hi=window.t0 + 1, key=month)
        hi = bisect_right(time_index, month(start), lo=window.t0 + 1, key=month)
        after = min(window.t0 + window.d + 1, hi)
        days = np.concatenate((x[lo : window.t0 + 1], x[after:hi]))
        if not days.size:
            raise ValidationError(
                f"no non-event days in {start.year}-{start.month:02d} to compute a scale"
            )
        first = lo if lo <= window.t0 else after
        last = hi - 1 if after < hi else window.t0
    else:
        raise ValidationError(
            f"mode must be 'pre_event_month' or 'calendar_month', got {mode!r}"
        )
    scale = float(days.mean())
    if scale <= 0:
        raise ValidationError(
            f"{mode} scale of the occurrence at t0={window.t0} is {scale}, the mean of "
            f"{days.size} days in {first}..{last}; impact ratios need a positive level"
        )
    return scale


def split_occurrences(event: str, occurrences) -> tuple[list, EventWindow]:
    """Training years (every occurrence but the last) and the target (the last).

    Every occurrence must last the same number of days: a ratio averaged over
    the training years predicts one effect per day of the target.
    """
    if len(occurrences) < 2:
        raise ValidationError(
            f"event {event!r} needs >= 2 occurrences (training years + target)"
        )
    lengths = [w.d for w in occurrences]
    if len(set(lengths)) > 1:
        raise ValidationError(
            f"event {event!r} occurrences last {lengths} days; impact ratios "
            "need every occurrence to be equally long"
        )
    return occurrences[:-1], occurrences[-1]


def impact_for_series(event: str, series, occurrences, control, scales):
    """Impact ratios of one series' event and its predicted target-year effect.

    ``scales`` holds each occurrence's ``year_scale``, the target's last, so
    a caller checks every scale before it builds a control.  A training
    year's effect is ``extract_effect`` of the (T,) ``control`` on its
    window, divided by that year's scale; the cross-year mean ratio rescaled
    by the target scale is the prediction.  The control need not cover the
    target window.  Returns the (K, d) ratios and the (d,) predicted per-day
    effect.
    """
    training_years, _ = split_occurrences(event, occurrences)
    *training_scales, target_scale = scales
    effects = [extract_effect(control, series, w) for w in training_years]
    ratios = model_from_estimates(effects, training_scales)
    return ratios, predict_effect(ratios, target_scale)


def evaluate_mape(predicted_total: np.ndarray, observed: np.ndarray, days=None) -> float:
    """Mean absolute percentage error, in percent.

    A zero observation leaves it undefined: the error names the first one by
    its index, or by its label in ``days`` when given.
    """
    p = np.asarray(predicted_total, dtype=float)
    o = np.asarray(observed, dtype=float)
    if p.shape != o.shape or p.ndim != 1:
        raise ValidationError(
            f"predicted and observed must be equal-length vectors, got {p.shape}, {o.shape}"
        )
    zeros = np.flatnonzero(o == 0)
    if zeros.size:
        k = int(zeros[0])
        where = f"at index {k}" if days is None else f"on day {days[k]}"
        raise ValidationError(f"observed value is zero {where}; MAPE undefined")
    return float(100.0 * np.mean(np.abs(o - p) / np.abs(o)))
