"""Forecaster pipeline: rolling windows, weighted loss, a small net, and
in-sample synthetic-control extraction.

The idea: train a forecaster on the rolling windows of the full series (one
``RollingWindows`` of row-aligned arrays) with forecast errors inside
rare-event windows down-weighted, so the model learns the routine signal
(trend, seasonality) but not the event spikes.  Re-forecasting the same
windows in-sample then yields a synthetic control; the observed-minus-control
gap on an event window is the effect estimate.

The forecaster itself is a small fully connected net implemented directly on
numpy arrays: parameters live in one flat vector, gradients come from manual
backpropagation, and training is mini-batch gradient descent with a seeded
shuffle: each epoch gathers one permuted copy of the windows, each batch is a
slice of it, and each step writes into buffers allocated once and updates the
parameters in place.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TrainingDivergedError, ValidationError
from .panel import EventCalendar, EventWindow

__all__ = [
    "RollingWindowConfig",
    "RollingWindows",
    "AdaptiveLossConfig",
    "ForecasterArch",
    "TrainConfig",
    "TrainedForecaster",
    "build_rolling_windows",
    "adaptive_loss",
    "train",
    "training_loss",
    "insample_forecast",
    "extract_effect",
    "gradient_check",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1

# residual_inverse adaptation: 1 / (ADAPTATION_FLOOR + rare residual) keeps a
# window whose rare steps are already fit exactly at a finite weight
ADAPTATION_FLOOR = 1e-3


@dataclass(frozen=True)
class RollingWindowConfig:
    """Sliding-window layout: ``lookback`` input steps predict the next
    ``horizon`` steps; consecutive windows start ``stride`` apart."""

    lookback: int = 90
    horizon: int = 30
    stride: int = 1

    def __post_init__(self):
        for name in ("lookback", "horizon", "stride"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RollingWindows:
    """Row-aligned windows of one series: ``inputs`` (n, lookback), the
    ``labels`` (n, horizon) that follow them, and ``rare_mask`` (n, horizon),
    true where a label step falls inside an event window.  Indexing with
    rows returns those rows as another ``RollingWindows``."""

    inputs: np.ndarray
    labels: np.ndarray
    rare_mask: np.ndarray

    def __post_init__(self):
        for name, dtype in (("inputs", float), ("labels", float), ("rare_mask", bool)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        X, Y, mask = self.inputs, self.labels, self.rare_mask
        if not (X.ndim == Y.ndim == 2 and mask.shape == Y.shape and 1 <= len(X) == len(Y)):
            raise ValidationError(
                "windows need >= 1 row of 2-D inputs, labels and rare_mask that agree, "
                f"got shapes {X.shape}, {Y.shape}, {mask.shape}"
            )

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, rows) -> RollingWindows:
        return RollingWindows(self.inputs[rows], self.labels[rows], self.rare_mask[rows])


@dataclass(frozen=True)
class AdaptiveLossConfig:
    """Weights for forecast errors inside vs outside rare-event windows.

    ``rare_weight`` < ``nonrare_weight`` makes the model under-fit events so
    their signal stays in the residuals.  ``distance`` picks the per-step
    error (absolute or squared).  ``adaptation`` is either ``fixed`` or
    ``residual_inverse``, which rescales each window's rare weight by the
    inverse of its current rare-step residual once per epoch (renormalized
    so the mean rare weight stays at ``rare_weight``).
    """

    rare_weight: float = 0.1
    nonrare_weight: float = 1.0
    distance: str = "absolute"
    adaptation: str = "fixed"

    def __post_init__(self):
        if self.rare_weight < 0 or self.nonrare_weight < 0:
            raise ValidationError("loss weights must be >= 0")
        if self.rare_weight + self.nonrare_weight <= 0:
            raise ValidationError("at least one loss weight must be positive")
        if self.distance not in ("absolute", "squared"):
            raise ValidationError(f"distance must be 'absolute' or 'squared', got {self.distance!r}")
        if self.adaptation not in ("fixed", "residual_inverse"):
            raise ValidationError(
                f"adaptation must be 'fixed' or 'residual_inverse', got {self.adaptation!r}"
            )


@dataclass(frozen=True)
class ForecasterArch:
    hidden_sizes: tuple[int, ...] = (64, 64)
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValidationError(f"hidden sizes must be positive, got {self.hidden_sizes}")
        if self.activation not in ("relu", "tanh"):
            raise ValidationError(f"activation must be 'relu' or 'tanh', got {self.activation!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.01
    final_learning_rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if self.final_learning_rate is not None and self.final_learning_rate <= 0:
            raise ValidationError("final_learning_rate must be > 0 when set")


def _layer_shapes(layer_sizes: Sequence[int]) -> list[tuple[int, int]]:
    return [(layer_sizes[i], layer_sizes[i + 1]) for i in range(len(layer_sizes) - 1)]


def parameter_count(layer_sizes: Sequence[int]) -> int:
    return sum((fi + 1) * fo for fi, fo in _layer_shapes(layer_sizes))


def _unpack(flat: np.ndarray, layer_sizes: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter (or gradient) vector into (weights, bias) views
    per layer; writing into a view writes into ``flat``."""
    out = []
    pos = 0
    for fi, fo in _layer_shapes(layer_sizes):
        W = flat[pos : pos + fi * fo].reshape(fi, fo)
        pos += fi * fo
        b = flat[pos : pos + fo]
        pos += fo
        out.append((W, b))
    return out


@dataclass
class TrainedForecaster:
    """Immutable result of training: architecture, flat parameters, and the
    per-series normalization (shift, scale) recorded at train time."""

    layer_sizes: tuple[int, ...]
    theta: np.ndarray
    activation: str
    shift: float
    scale: float
    loss_history: tuple[float, ...] = ()

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ValidationError(f"bad layer sizes {self.layer_sizes}")
        if self.activation not in ("relu", "tanh"):
            raise ValidationError(f"bad activation {self.activation!r}")
        theta = np.asarray(self.theta, dtype=float)
        expected = parameter_count(self.layer_sizes)
        if theta.shape != (expected,):
            raise ValidationError(
                f"parameter vector has {theta.size} entries, layout needs {expected}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValidationError("parameters must all be finite")
        if self.scale <= 0:
            raise ValidationError(f"normalization scale must be > 0, got {self.scale}")
        theta = theta.copy()
        theta.setflags(write=False)
        self.theta = theta

    @property
    def lookback(self) -> int:
        return self.layer_sizes[0]

    @property
    def horizon(self) -> int:
        return self.layer_sizes[-1]

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Forecast from raw (unnormalized) inputs; shape (M,) or (B, M)."""
        x = np.asarray(inputs, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.lookback:
            raise ValidationError(
                f"input width {x.shape[1]} != model lookback {self.lookback}"
            )
        z = (x - self.shift) / self.scale
        acts = _forward(_unpack(self.theta, self.layer_sizes), self.activation, z)
        pred = acts[-1] * self.scale + self.shift
        return pred[0] if single else pred


def _forward(layers, activation, X, bufs=None):
    """Activations [X, hidden..., prediction] of the unpacked ``layers`` (the
    last one linear), written into the leading rows of ``bufs`` when given."""
    acts = [X]
    for li, (W, b) in enumerate(layers):
        z = np.matmul(acts[-1], W, out=None if bufs is None else bufs[li][: len(X)])
        z += b
        if li < len(layers) - 1:
            if activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                np.tanh(z, out=z)
        acts.append(z)
    return acts


def _backward(layers, activation, acts, dpred, grads, bufs=None):
    """Write the loss gradient, given d(loss)/d(prediction) ``dpred`` (which is
    overwritten), into the (weights, bias) views ``grads``; hidden-layer deltas
    go into the leading rows of ``bufs`` when given."""
    delta = dpred
    for li in reversed(range(len(layers))):
        gW, gb = grads[li]
        np.matmul(acts[li].T, delta, out=gW)
        delta.sum(axis=0, out=gb)
        if li == 0:
            break
        out = None if bufs is None else bufs[li - 1][: len(delta)]
        delta = np.matmul(delta, layers[li][0].T, out=out)
        h = acts[li]
        if activation == "relu":
            # max(z, 0) > 0 exactly where z > 0
            delta *= h > 0
        else:
            delta *= 1.0 - h**2


def _window_starts(series, config: RollingWindowConfig) -> tuple[np.ndarray, np.ndarray]:
    """Validate a series; return it and the starts i * stride of every window
    that fits lookback + horizon steps."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("rolling windows need a single 1-D series")
    M, H = config.lookback, config.horizon
    if len(x) < M + H:
        raise ValidationError(f"series length {len(x)} < lookback + horizon = {M + H}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValidationError(f"series value at index {bad[0]} is not finite ({x[bad[0]]})")
    return x, np.arange(0, len(x) - M - H + 1, config.stride)


def build_rolling_windows(
    series: np.ndarray,
    config: RollingWindowConfig,
    calendar: EventCalendar | None = None,
) -> RollingWindows:
    """Slice one series into overlapping (input, label) windows.

    Row i covers input indices [i*s, i*s+M) and label indices
    [i*s+M, i*s+M+H); i runs to ((len-M-H) // s).  Rare masks are set from
    the calendar (no calendar means all-false masks; indices past the series
    end are ignored).  The rows are copies, not views of ``series``.
    """
    x, starts = _window_starts(series, config)
    M, H = config.lookback, config.horizon
    events = calendar.window_indices() if calendar is not None else ()
    event_day = np.isin(np.arange(len(x)), list(events))
    return RollingWindows(
        inputs=sliding_window_view(x, M)[starts],
        labels=sliding_window_view(x[M:], H)[starts],
        rare_mask=sliding_window_view(event_day[M:], H)[starts],
    )


def _weighted_error(diff: np.ndarray, wv, distance: str):
    """Per-step weighted error ``wv * eta`` of the residuals ``diff`` and its
    derivative ``wv * d(eta)/d(diff)``; callers do their own reductions."""
    if distance == "absolute":
        eta, deta = np.abs(diff), np.sign(diff)
    else:
        eta, deta = diff**2, 2.0 * diff
    return wv * eta, wv * deta


def adaptive_loss(
    pred: np.ndarray,
    label: np.ndarray,
    mask: np.ndarray,
    cfg: AdaptiveLossConfig,
) -> tuple[float, np.ndarray]:
    """Weighted loss for one window.

    Returns (rare_weight * sum of rare-step errors + nonrare_weight * sum of
    the rest, unweighted per-step errors).  Averaging over a batch of windows
    is the caller's job.  The loss is written as two masked sums, not as the
    row sum of weighted errors the training loop uses, so that its
    decomposition into rare and non-rare parts holds exactly.
    """
    p = np.asarray(pred, dtype=float)
    y = np.asarray(label, dtype=float)
    m = np.asarray(mask, dtype=bool)
    if p.shape != y.shape or p.shape != m.shape or p.ndim != 1:
        raise ValidationError(
            f"pred/label/mask must be equal-length vectors, got {p.shape}, {y.shape}, {m.shape}"
        )
    eta, _ = _weighted_error(p - y, 1.0, cfg.distance)
    loss = cfg.rare_weight * eta[m].sum() + cfg.nonrare_weight * eta[~m].sum()
    return float(loss), eta


def _normalization(X: np.ndarray, Y: np.ndarray) -> tuple[float, float]:
    """Median shift and interquartile-range scale over all training values.

    Robust to the event spikes themselves; a degenerate (constant) series
    falls back to scale 1.0.
    """
    vals = np.concatenate([X.ravel(), Y.ravel()])
    shift = float(np.median(vals))
    q75, q25 = np.percentile(vals, [75.0, 25.0])
    scale = float(q75 - q25)
    if scale <= 0:
        scale = 1.0
    return shift, scale


def _rare_weights(layers, activation, X, Y, mask, cfg: AdaptiveLossConfig) -> np.ndarray:
    """Per-window rare weights for the residual_inverse adaptation mode."""
    B = X.shape[0]
    base = np.full(B, cfg.rare_weight)
    if cfg.adaptation != "residual_inverse":
        return base
    acts = _forward(layers, activation, X)
    rare_eta, _ = _weighted_error(acts[-1] - Y, mask, cfg.distance)
    rare_resid = rare_eta.sum(axis=1)
    has_rare = mask.any(axis=1)
    if not has_rare.any():
        return base
    raw = 1.0 / (ADAPTATION_FLOOR + rare_resid)
    out = base.copy()
    out[has_rare] = cfg.rare_weight * raw[has_rare] / raw[has_rare].mean()
    return out


def train(
    windows: RollingWindows,
    arch: ForecasterArch,
    loss_cfg: AdaptiveLossConfig,
    train_cfg: TrainConfig,
) -> TrainedForecaster:
    """Mini-batch gradient descent on the batch-mean adaptive loss.

    Inputs and labels are normalized by the robust per-series (shift, scale)
    before training; the pair is recorded on the model for exact
    denormalization.  Identical windows, configs, and seed give bit-identical
    parameters.  A non-finite loss aborts with the offending epoch.
    """
    mask = windows.rare_mask
    shift, scale = _normalization(windows.inputs, windows.labels)
    X = (windows.inputs - shift) / scale
    Y = (windows.labels - shift) / scale
    layer_sizes = (X.shape[1], *arch.hidden_sizes, Y.shape[1])

    rng = np.random.default_rng(train_cfg.seed)
    parts = []
    for fi, fo in _layer_shapes(layer_sizes):
        bound = 1.0 / np.sqrt(fi)
        parts.append(rng.uniform(-bound, bound, size=fi * fo))
        parts.append(rng.uniform(-bound, bound, size=fo))
    theta = np.concatenate(parts)

    B = X.shape[0]
    bs = train_cfg.batch_size
    layers = _unpack(theta, layer_sizes)
    grad = np.empty_like(theta)
    grads = _unpack(grad, layer_sizes)
    act_bufs = [np.empty((min(bs, B), fo)) for _, fo in _layer_shapes(layer_sizes)]
    delta_bufs = [np.empty_like(buf) for buf in act_bufs[:-1]]
    lr0 = train_cfg.learning_rate
    lr1 = train_cfg.final_learning_rate if train_cfg.final_learning_rate is not None else lr0
    history = []
    for epoch in range(train_cfg.epochs):
        frac = epoch / max(train_cfg.epochs - 1, 1)
        lr = lr0 + (lr1 - lr0) * frac
        w1 = _rare_weights(layers, arch.activation, X, Y, mask, loss_cfg)
        perm = rng.permutation(B)
        # one gather per epoch: batch rows are contiguous slices of these copies
        Xp, Yp = X[perm], Y[perm]
        Wp = np.where(mask, w1[:, None], loss_cfg.nonrare_weight)[perm]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, B, bs):
            rows = slice(start, start + bs)
            acts = _forward(layers, arch.activation, Xp[rows], act_bufs)
            n = len(acts[0])
            weighted, dpred = _weighted_error(acts[-1] - Yp[rows], Wp[rows], loss_cfg.distance)
            batch_loss = float(weighted.sum(axis=1).sum()) / n
            if not math.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, batch_loss)
            dpred /= n
            _backward(layers, arch.activation, acts, dpred, grads, delta_bufs)
            grad *= lr
            theta -= grad
            epoch_loss += batch_loss
            n_batches += 1
        history.append(epoch_loss / n_batches)

    return TrainedForecaster(
        layer_sizes=layer_sizes,
        theta=theta,
        activation=arch.activation,
        shift=shift,
        scale=scale,
        loss_history=tuple(history),
    )


def training_loss(
    model: TrainedForecaster,
    windows: RollingWindows,
    loss_cfg: AdaptiveLossConfig,
) -> float:
    """Batch-mean adaptive loss of a model on windows, in normalized units.

    Uses fixed weights (the adaptation mode, if any, applies only inside the
    training loop).
    """
    X = (windows.inputs - model.shift) / model.scale
    Y = (windows.labels - model.shift) / model.scale
    acts = _forward(_unpack(model.theta, model.layer_sizes), model.activation, X)
    wv = np.where(windows.rare_mask, loss_cfg.rare_weight, loss_cfg.nonrare_weight)
    weighted, _ = _weighted_error(acts[-1] - Y, wv, loss_cfg.distance)
    return float(weighted.sum(axis=1).mean())


def insample_forecast(
    model: TrainedForecaster,
    series: np.ndarray,
    stride: int = 1,
    aggregate: str = "mean",
) -> np.ndarray:
    """Re-forecast every rolling window and combine overlapping predictions.

    Windows of the model's lookback and horizon start ``stride`` apart; a
    stride past the horizon would leave days with no forecast and is
    rejected.  Returns the (T,) synthetic control: each index t gets the
    mean (or median) of the predictions landing on it, denormalized back to
    the series scale.  Only the first ``lookback`` indices are NaN: when the
    strided starts miss the last possible start, one more window ending at
    the series end is added.  A non-finite forecast is rejected.
    """
    M, H = model.lookback, model.horizon
    config = RollingWindowConfig(lookback=M, horizon=H, stride=stride)
    if stride > H:
        raise ValidationError(f"stride {stride} exceeds the model horizon {H}: days go unforecast")
    if aggregate not in ("mean", "median"):
        raise ValidationError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    x, starts = _window_starts(series, config)
    if starts[-1] != len(x) - M - H:
        starts = np.append(starts, len(x) - M - H)
    preds = model.predict(sliding_window_view(x, M)[starts])
    target = starts[:, None] + M + np.arange(H)
    counts = np.bincount(target.ravel(), minlength=len(x))
    values = np.full(len(x), np.nan)
    on = counts >= 1
    if aggregate == "mean":
        # np.add.at adds in row order, so every sum matches a per-row loop bit for bit
        sums = np.zeros(len(x))
        np.add.at(sums, target, preds)
        values[on] = sums[on] / counts[on]
    else:
        by_offset = np.full((len(x), H), np.nan)
        by_offset[target, np.arange(H)] = preds
        values[on] = np.nanmedian(by_offset[on], axis=1)
    bad = np.flatnonzero(on & ~np.isfinite(values))
    if bad.size:
        raise ValidationError(
            f"in-sample forecast at index {bad[0]} is not finite ({values[bad[0]]})"
        )
    return values


def extract_effect(
    control: np.ndarray,
    series: np.ndarray,
    window: EventWindow,
) -> np.ndarray:
    """Observed minus the (T,) control on the event window, one series.

    Returns the (d,) per-day effect; a window day where the control is NaN
    (no forecast lands there) is rejected.  There is no covariance: the net
    has no closed-form sampling variance.  Cross-series pooling is done by
    averaging the per-series effects.
    """
    x = np.asarray(series, dtype=float)
    control = np.asarray(control, dtype=float)
    if control.shape != x.shape:
        raise ValidationError(f"control shape {control.shape} != series shape {x.shape}")
    window.check_fits(len(x) - 1)
    days = window.columns
    gaps = np.isnan(control[days])
    if gaps.any():
        missing = [t for t, gap in zip(window.indices, gaps) if gap]
        raise ValidationError(f"synthetic control does not cover window indices {missing}")
    return x[days] - control[days]


def gradient_check(
    model: TrainedForecaster,
    windows: RollingWindows,
    loss_cfg: AdaptiveLossConfig,
    epsilon: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients
    of the adaptive loss summed over the windows' rows.

    Each parameter is perturbed by +/- epsilon.  Perturbations that flip a
    relu preactivation sign or an absolute-error residual sign straddle a
    kink where the two-sided difference is meaningless, so those parameters
    are skipped.  Errors below 1e-8 in magnitude are compared absolutely.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    X = (windows.inputs - model.shift) / model.scale
    Y = (windows.labels - model.shift) / model.scale
    wv = np.where(windows.rare_mask, loss_cfg.rare_weight, loss_cfg.nonrare_weight)
    sizes = model.layer_sizes
    act = model.activation

    def evaluate(theta):
        acts = _forward(_unpack(theta, sizes), act, X)
        diff = acts[-1] - Y
        weighted, dpred = _weighted_error(diff, wv, loss_cfg.distance)
        return float(weighted.sum()), diff, acts, dpred

    theta0 = model.theta.astype(float).copy()
    _, _, acts0, dpred0 = evaluate(theta0)
    analytic = np.empty_like(theta0)
    _backward(_unpack(theta0, sizes), act, acts0, dpred0, _unpack(analytic, sizes))

    def signature(diff, acts):
        hidden = [h > 0 for h in acts[1:-1]] if act == "relu" else []
        resid = [np.sign(diff)] if loss_cfg.distance == "absolute" else []
        return hidden, resid

    max_err = 0.0
    for j in range(theta0.size):
        tp = theta0.copy()
        tp[j] += epsilon
        tm = theta0.copy()
        tm[j] -= epsilon
        lp, dp, ap, _ = evaluate(tp)
        lm, dm, am, _ = evaluate(tm)
        hp, rp = signature(dp, ap)
        hm, rm = signature(dm, am)
        if any(not np.array_equal(a, b) for a, b in zip(hp, hm)):
            continue
        if any(not np.array_equal(a, b) for a, b in zip(rp, rm)):
            continue
        numeric = (lp - lm) / (2.0 * epsilon)
        a = analytic[j]
        denom = max(abs(a), abs(numeric))
        err = abs(a - numeric) if denom < 1e-8 else abs(a - numeric) / denom
        max_err = max(max_err, err)
    return max_err


def save_model(model: TrainedForecaster, path) -> None:
    """Write the model as versioned JSON; floats round-trip exactly."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "activation": model.activation,
        "shift": model.shift,
        "scale": model.scale,
        "theta": [float(v) for v in model.theta],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> TrainedForecaster:
    """Read a model written by ``save_model``; a bad file fails naming its path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"model file not found: {path}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: not a model JSON file ({exc})") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        return TrainedForecaster(
            layer_sizes=tuple(payload["layer_sizes"]),
            theta=np.array(payload["theta"], dtype=float),
            activation=payload["activation"],
            shift=float(payload["shift"]),
            scale=float(payload["scale"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad model entry ({exc!r})") from exc
