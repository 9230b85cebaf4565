"""Forecaster pipeline: rolling windows, weighted loss, a small net, and
in-sample synthetic-control extraction.

The idea: train a forecaster on the rolling windows of the full series with
forecast errors inside rare-event windows down-weighted, so the model learns
the routine signal (trend, seasonality) but not the event spikes.
Re-forecasting the same windows in-sample then yields a synthetic control;
the observed-minus-control gap on an event window is the effect estimate.

A ``RollingWindows`` holds one copy of its series and each window's start
in it, not a copy of every window: lookback + horizon steps (120 in the
retail settings) would multiply a panel's memory by that factor.  Training
keeps the same layout (each net's normalized values in one flat float32
array, each mini-batch gathered from a strided view of it), so its memory
grows with the series' total length, O(S * T) for S series of T days.  The
row-aligned ``inputs``, ``labels`` and ``rare_mask`` arrays are built only
when read.

The forecaster itself is a small fully connected net implemented directly on
numpy arrays: parameters live in one flat vector, gradients come from manual
backpropagation, and training is mini-batch gradient descent with a seeded
shuffle: each epoch draws one permutation of the windows, each batch gathers
only its own rows, and each step writes its activations into buffers
allocated once and updates the parameters in place.  Everything is
deterministic given the seed.

Training runs in single precision (``TRAIN_DTYPE``): the normalized inputs
and labels, the parameters, the gradient and every batch buffer are
float32, the usual precision for training nets this size.  It halves the
memory traffic of each step's small matrix products and about doubles their
throughput; the trained nets forecast as well as float64-trained ones, since
their error is set by the data and the training budget, not by rounding.
Everything else stays float64: the normalization statistics, the series
the windows hold, and the stored model, whose parameters are float32 values
held exactly in a float64 vector, so prediction, ``gradient_check`` and the
model file are double precision as before.

A panel trains one pooled net (``train_pooled``): every series' windows,
each series normalized by its own robust (shift, scale), pooled into one
training set, so a panel of S series costs one training instead of S.

Nets that must stay separate (the per-series direct-forecast baseline)
train in lock-step instead (``_train_stack``): S nets with the same window
shape and configs but their own seeds run each step as one pass of 3-D
numpy calls over a leading net axis, which amortizes the per-call cost of
the small matrix products, and each net gets the bits of training it alone.
It is the only training loop: ``train`` is the stack of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

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
    "train",
    "train_pooled",
    "insample_forecast",
    "extract_effect",
    "gradient_check",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1

# precision of every training step; see the module docstring
TRAIN_DTYPE = np.float32


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


class RollingWindows:
    """Rolling (input, label) windows of one or more series, held as index
    ranges rather than copies.

    ``values`` is a private, read-only float64 copy of the series laid end
    to end (training holds its normalized float32 values the same way), and
    ``event_day`` flags the values that fall inside an event window.  Window
    i reads its ``lookback`` inputs from ``values`` at ``starts[i]`` and the
    ``horizon`` labels right after them; no window runs from one series into
    the next.  The row-aligned arrays ``inputs``
    (n, lookback), ``labels`` (n, horizon) and ``rare_mask`` (n, horizon),
    true where a label falls in an event window, are built each time they
    are read, so only code that reads them pays for a copy of every window.

    ``RollingWindows(inputs, labels, rare_mask)`` holds given arrays, each
    row a series of its own.  ``len()`` counts the windows, and indexing
    with rows returns those windows over the same values.
    """

    __slots__ = ("values", "event_day", "starts", "lookback", "horizon", "__weakref__")

    def __init__(self, inputs, labels, rare_mask):
        X = np.asarray(inputs, dtype=float)
        Y = np.asarray(labels, dtype=float)
        mask = np.asarray(rare_mask, dtype=bool)
        if not (
            X.ndim == Y.ndim == 2 and mask.shape == Y.shape and 1 <= len(X) == len(Y)
            and min(X.shape[1], Y.shape[1]) >= 1
        ):
            raise ValidationError(
                "windows need >= 1 row of 2-D inputs, labels and rare_mask that agree, "
                f"got shapes {X.shape}, {Y.shape}, {mask.shape}"
            )
        n, M = X.shape
        H = Y.shape[1]
        self._hold(
            np.concatenate([X, Y], axis=1).ravel(),
            np.concatenate([np.zeros(X.shape, bool), mask], axis=1).ravel(),
            np.arange(n) * (M + H), M, H,
        )

    @classmethod
    def _over(cls, values, event_day, starts, lookback: int, horizon: int) -> RollingWindows:
        """Windows at ``starts`` over ``values``, which they then own."""
        windows = cls.__new__(cls)
        windows._hold(values, event_day, starts, lookback, horizon)
        return windows

    @classmethod
    def _joined(cls, parts: Sequence[RollingWindows]) -> RollingWindows:
        """Every part's windows, over the parts' values laid end to end."""
        firsts = np.cumsum([0] + [len(part.values) for part in parts[:-1]])
        return cls._over(
            np.concatenate([part.values for part in parts]),
            np.concatenate([part.event_day for part in parts]),
            np.concatenate([part.starts + first for part, first in zip(parts, firsts)]),
            parts[0].lookback,
            parts[0].horizon,
        )

    def _scaled(self, shift: float, scale: float, dtype=float) -> RollingWindows:
        """The same windows over (values - shift) / scale, the difference
        rounded once into ``dtype``, then divided there."""
        values = np.empty(len(self.values), dtype)
        np.subtract(self.values, shift, out=values)
        values /= scale
        return RollingWindows._over(
            values, self.event_day, self.starts, self.lookback, self.horizon
        )

    def _hold(self, values, event_day, starts, lookback, horizon):
        if starts.ndim != 1 or not len(starts):
            raise ValidationError(f"windows need >= 1 row, got starts of shape {starts.shape}")
        for array in (values, event_day, starts):
            array.setflags(write=False)
        self.values, self.event_day, self.starts = values, event_day, starts
        self.lookback, self.horizon = lookback, horizon

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, rows) -> RollingWindows:
        starts = np.array(self.starts[rows])
        return RollingWindows._over(
            self.values, self.event_day, starts, self.lookback, self.horizon
        )

    @property
    def inputs(self) -> np.ndarray:
        return sliding_window_view(self.values, self.lookback)[self.starts]

    @property
    def labels(self) -> np.ndarray:
        return sliding_window_view(self.values[self.lookback :], self.horizon)[self.starts]

    @property
    def rare_mask(self) -> np.ndarray:
        return sliding_window_view(self.event_day[self.lookback :], self.horizon)[self.starts]


@dataclass(frozen=True)
class AdaptiveLossConfig:
    """Weights for forecast errors inside vs outside rare-event windows.

    ``rare_weight`` < ``nonrare_weight`` makes the model under-fit events so
    their signal stays in the residuals.  ``distance`` picks the per-step
    error (absolute or squared).
    """

    rare_weight: float = 0.1
    nonrare_weight: float = 1.0
    distance: str = "absolute"

    def __post_init__(self):
        if self.rare_weight < 0 or self.nonrare_weight < 0:
            raise ValidationError("loss weights must be >= 0")
        if self.rare_weight + self.nonrare_weight <= 0:
            raise ValidationError("at least one loss weight must be positive")
        if self.distance not in ("absolute", "squared"):
            raise ValidationError(f"distance must be 'absolute' or 'squared', got {self.distance!r}")


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
    """Split parameter (or gradient) vectors into (weights, bias) views per
    layer: a (..., P) array gives (..., fi, fo) weights and (..., 1, fo)
    biases, one per leading index (net); writing into a view writes into
    ``flat``."""
    lead = flat.shape[:-1]
    out = []
    pos = 0
    for fi, fo in _layer_shapes(layer_sizes):
        W = flat[..., pos : pos + fi * fo].reshape(*lead, fi, fo)
        pos += fi * fo
        b = flat[..., pos : pos + fo].reshape(*lead, 1, fo)
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
        if theta.flags.writeable:
            # a read-only vector (another model's, as train_pooled's models
            # share one) is kept as it is
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
    last one linear), written into ``bufs`` when given.  Rows are the last
    axis but one, so an (S, n, lookback) ``X`` with (S, fi, fo) layers runs
    S nets, each with the same matrix products as alone."""
    acts = [X]
    for li, (W, b) in enumerate(layers):
        z = np.matmul(acts[-1], W, out=None if bufs is None else bufs[li])
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
    go into ``bufs`` when given.  Leading net axes work as in ``_forward``."""
    delta = dpred
    for li in reversed(range(len(layers))):
        gW, gb = grads[li]
        np.matmul(acts[li].swapaxes(-1, -2), delta, out=gW)
        delta.sum(axis=-2, keepdims=True, out=gb)
        if li == 0:
            break
        out = None if bufs is None else bufs[li - 1]
        delta = np.matmul(delta, layers[li][0].swapaxes(-1, -2), out=out)
        h = acts[li]
        if activation == "relu":
            # max(z, 0) > 0 exactly where z > 0
            delta *= h > 0
        else:
            delta *= 1.0 - h**2


def _window_starts(series, config: RollingWindowConfig, block: bool = False):
    """Validate a (T,) series, or an (S, T) block of them when ``block``;
    return it as float64 and the starts i * stride of every window that fits
    lookback + horizon steps in one series."""
    x = np.asarray(series, dtype=float)
    if not (x.ndim == 1 or (block and x.ndim == 2)):
        raise ValidationError(
            "rolling windows need a 1-D series or a 2-D block of them" if block
            else "rolling windows need a single 1-D series"
        )
    M, H = config.lookback, config.horizon
    if x.shape[-1] < M + H:
        raise ValidationError(f"series length {x.shape[-1]} < lookback + horizon = {M + H}")
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        where = f"series {bad[0, 0]} value" if x.ndim == 2 else "series value"
        raise ValidationError(
            f"{where} at index {bad[0, -1]} is not finite ({x[tuple(bad[0])]})"
        )
    return x, np.arange(0, x.shape[-1] - M - H + 1, config.stride)


def build_rolling_windows(
    series: np.ndarray,
    config: RollingWindowConfig,
    calendar: EventCalendar | None = None,
) -> RollingWindows:
    """The overlapping (input, label) windows of a (T,) series, or of each
    row of an (S, T) block, held as index ranges.

    A series' window i covers its input indices [i*s, i*s+M) and label
    indices [i*s+M, i*s+M+H); i runs to ((T-M-H) // s), and the windows run
    series by series.  Rare masks are set from the calendar, the same days
    in every series (no calendar means all-false masks; indices past the
    series end are ignored).  The windows hold one private copy of the
    series, not a view of ``series`` and not a copy per window.
    """
    x, starts = _window_starts(series, config, block=True)
    rows = x.reshape(-1, x.shape[-1])
    S, T = rows.shape
    return RollingWindows._over(
        rows.flatten(),
        np.tile((calendar or EventCalendar()).event_days(T), S),
        (np.arange(0, S * T, T)[:, None] + starts).ravel(),
        config.lookback,
        config.horizon,
    )


def _weighted_error(diff: np.ndarray, wv, distance: str):
    """Per-step weighted error ``wv * eta`` of the residuals ``diff`` and its
    derivative ``wv * d(eta)/d(diff)``; callers do their own reductions."""
    if distance == "absolute":
        eta, deta = np.abs(diff), np.sign(diff)
    else:
        eta, deta = diff**2, 2.0 * diff
    return wv * eta, wv * deta


def _normalization(windows: RollingWindows) -> tuple[float, float]:
    """Median shift and interquartile-range scale over all training values.

    The values are every window's inputs and labels, each series value
    counted once per window that covers it; a running count of the window
    starts gives those counts.  The median and quartiles are then
    read off the sorted values' cumulative counts with ``np.median``'s and
    ``np.percentile``'s (linear) formulas, so they equal those functions
    over the materialized windows bit for bit (up to the sign of a zero
    that ties with its negation).  Robust to the event spikes themselves; a
    degenerate (constant) series falls back to scale 1.0.
    """
    width = windows.lookback + windows.horizon
    # a value is covered by the windows that start in the width before it
    counts = np.cumsum(np.bincount(windows.starts, minlength=len(windows.values)))
    counts[width:] -= counts[:-width].copy()
    order = np.argsort(windows.values)
    ends = counts[order]  # uncovered values count 0 and are never picked
    del counts
    np.cumsum(ends, out=ends)
    n = int(ends[-1])  # >= 2: a window covers lookback + horizon values

    def kth(k: int) -> float:
        """The k-th smallest (0-based) of the n counted values."""
        return float(windows.values[order[np.searchsorted(ends, k, side="right")]])

    half = n // 2
    shift = kth(half) if n % 2 else (kth(half - 1) + kth(half)) / 2

    def quantile(q: float) -> float:
        """``np.percentile``'s linear interpolation at fraction q."""
        virtual = (n - 1) * q
        below = math.floor(virtual)
        gamma = virtual - below
        lo, hi = kth(below), kth(below + 1)
        diff = hi - lo
        return hi - diff * (1 - gamma) if gamma >= 0.5 else lo + diff * gamma

    scale = quantile(0.75) - quantile(0.25)
    if scale <= 0:
        scale = 1.0
    return shift, scale


def _train_stack(
    windows: Iterable[RollingWindows],
    arch: ForecasterArch,
    loss_cfg: AdaptiveLossConfig,
    train_cfgs: Sequence[TrainConfig],
) -> list[TrainedForecaster]:
    """Train one net per config in lock-step, net s on the s-th ``windows``.

    Each net's series values, shifted and scaled by its robust
    ``_normalization``, are written once into one flat float32 array (the
    difference rounded once into float32, then divided there), and its
    windows become offsets into that array: no window is copied up front.
    The S nets share one pass of numpy calls per step: the parameters are an
    (S, P) array, each layer an (S, fi, fo) weight view and an (S, 1, fo)
    bias view of it, and each step gathers every net's batch of inputs,
    labels and loss weights with one fancy index per array into
    ``sliding_window_view``s of per-day arrays; a loss weight belongs to its
    label's day.  Each net keeps its own seeded generator (its initial
    draws, then one permutation of its B windows per epoch), its own
    (shift, scale) and its own loss sums, reduced in the order one net
    alone would use, so net s gets the bits of training it alone.
    ``windows`` is read one entry at a time and normalized before the next
    is read, so a generator keeps one net's float64 values alive at once.

    The nets must share the window count, lookback and horizon and every
    ``TrainConfig`` field but ``seed``.  A non-finite loss stops the stack at
    that step and raises for the lowest-index net whose loss it is, at the
    epoch that net diverges alone.
    """
    if not train_cfgs:
        raise ValidationError("a training stack needs at least one net")
    cfg = train_cfgs[0]
    for s, other in enumerate(train_cfgs):
        if replace(other, seed=cfg.seed) != cfg:
            raise ValidationError(
                f"net {s} of a training stack differs from net 0 in more than its seed: "
                f"{other} vs {cfg}"
            )
    S = len(train_cfgs)
    norms, parts = [], []
    for w in windows:  # not enumerate: its reused result tuple would keep w alive
        s = len(norms)
        if s == 0:
            B, M, H = len(w), w.lookback, w.horizon
        if s >= S or (len(w), w.lookback, w.horizon) != (B, M, H):
            raise ValidationError(
                f"net {s} of a training stack of {S} has windows ({len(w)}, {w.lookback}) -> "
                f"({len(w)}, {w.horizon}), the stack holds ({B}, {M}) -> ({B}, {H})"
            )
        shift, scale = _normalization(w)
        norms.append((shift, scale))
        parts.append(w._scaled(shift, scale, TRAIN_DTYPE))
        del w  # before the next net's windows are read
    if len(norms) != S:
        raise ValidationError(f"a training stack of {S} nets got {len(norms)} windows")
    stack = RollingWindows._joined(parts)
    del parts
    starts = stack.starts  # window s * B + i is net s's window i
    inputs = sliding_window_view(stack.values, M)
    labels = sliding_window_view(stack.values[M:], H)
    rare, nonrare = TRAIN_DTYPE(loss_cfg.rare_weight), TRAIN_DTYPE(loss_cfg.nonrare_weight)
    label_weights = sliding_window_view(np.where(stack.event_day, rare, nonrare)[M:], H)
    layer_sizes = (M, *arch.hidden_sizes, H)

    rngs = [np.random.default_rng(c.seed) for c in train_cfgs]
    theta = np.empty((S, parameter_count(layer_sizes)), TRAIN_DTYPE)
    for row, rng in zip(theta, rngs):
        draws = []
        for fi, fo in _layer_shapes(layer_sizes):
            bound = 1.0 / np.sqrt(fi)
            draws.append(rng.uniform(-bound, bound, size=fi * fo))
            draws.append(rng.uniform(-bound, bound, size=fo))
        row[:] = np.concatenate(draws)

    bs = cfg.batch_size
    full = min(bs, B)
    layers = _unpack(theta, layer_sizes)
    grad = np.empty_like(theta)
    grads = _unpack(grad, layer_sizes)
    act_bufs = [np.empty((S * full, width), TRAIN_DTYPE) for width in layer_sizes[1:]]
    delta_bufs = [np.empty_like(buf) for buf in act_bufs[:-1]]

    def batch_views(n):
        # (S, n, .) views of the buffers' leading rows, contiguous per net
        def view(buf):
            return buf[: S * n].reshape(S, n, -1)

        return [view(b) for b in act_bufs], [view(b) for b in delta_bufs]

    views = {n: batch_views(n) for n in {full, B % bs} - {0}}
    net_offsets = np.arange(0, S * B, B)[:, None]
    lr0 = cfg.learning_rate
    lr1 = cfg.final_learning_rate if cfg.final_learning_rate is not None else lr0
    history = []
    for epoch in range(cfg.epochs):
        frac = epoch / max(cfg.epochs - 1, 1)
        lr = lr0 + (lr1 - lr0) * frac
        perm = np.stack([rng.permutation(B) for rng in rngs])
        perm += net_offsets
        perm_starts = starts[perm]
        epoch_loss = [0.0] * S
        n_batches = 0
        for start in range(0, B, bs):
            pos = perm_starts[:, start : start + bs]
            n = pos.shape[1]
            act_views, delta_views = views[n]
            # fancy indexing copies this batch's rows only, where take would
            # first copy the whole strided view
            acts = _forward(layers, arch.activation, inputs[pos], act_views)
            weighted, dpred = _weighted_error(
                acts[-1] - labels[pos], label_weights[pos], loss_cfg.distance
            )
            # per net: float32 row sums, their float32 sum, the mean in float64
            for net, total in enumerate(weighted.sum(axis=-1).sum(axis=-1).tolist()):
                batch_loss = total / n
                if not math.isfinite(batch_loss):
                    raise TrainingDivergedError(epoch, batch_loss, net)
                epoch_loss[net] += batch_loss
            dpred /= n
            _backward(layers, arch.activation, acts, dpred, grads, delta_views)
            grad *= lr
            theta -= grad
            n_batches += 1
        history.append([total / n_batches for total in epoch_loss])

    return [
        TrainedForecaster(
            layer_sizes=layer_sizes,
            theta=row,
            activation=arch.activation,
            shift=shift,
            scale=scale,
            loss_history=losses,
        )
        for row, (shift, scale), losses in zip(theta, norms, zip(*history))
    ]


def train(
    windows: RollingWindows,
    arch: ForecasterArch,
    loss_cfg: AdaptiveLossConfig,
    train_cfg: TrainConfig,
) -> TrainedForecaster:
    """Mini-batch gradient descent on the batch-mean adaptive loss.

    Inputs and labels are normalized by the robust per-series (shift, scale)
    before training; the pair is recorded on the model for exact
    denormalization.  Every step runs in ``TRAIN_DTYPE`` (float32, about
    half the cost of a float64 step); the initial parameters are drawn in
    float64 from the seeded generator and rounded, so the draws and the
    batch order do not depend on the precision.  The returned parameters
    are float32 values stored as float64.  Identical windows, configs, and
    seed give bit-identical parameters.  A non-finite loss aborts with the
    offending epoch (and net 0).  This is ``_train_stack`` of one net.
    """
    return _train_stack([windows], arch, loss_cfg, [train_cfg])[0]


def train_pooled(
    series_list: Sequence[np.ndarray],
    config: RollingWindowConfig,
    calendar: EventCalendar | None,
    arch: ForecasterArch,
    loss_cfg: AdaptiveLossConfig,
    train_cfg: TrainConfig,
) -> list[TrainedForecaster]:
    """Train one net on the rolling windows of every series; one model each.

    Series i is normalized by the robust (shift_i, scale_i) of its own
    windows, and one pooled ``RollingWindows`` holds every series' windows
    over the normalized series laid end to end (they may differ in length).
    ``train`` then runs once on the pool for ceil(epochs / S) epochs, about
    the gradient steps of training one series.  Its model's normalization
    (shift, scale) of the pool composes with each series' own: model i has
    the shared parameters with shift_i + scale_i * shift and scale_i *
    scale, so it maps series i's raw inputs to forecasts.  A pool of one is
    not ``train`` on that series: the pool is normalized twice.
    """
    if not series_list:
        raise ValidationError("pooled training needs at least one series")
    norms, parts = [], []
    for x in series_list:
        windows = build_rolling_windows(x, config, calendar)
        shift, scale = _normalization(windows)
        norms.append((shift, scale))
        parts.append(windows._scaled(shift, scale))
    pool = RollingWindows._joined(parts)
    del parts
    pooled_cfg = replace(train_cfg, epochs=math.ceil(train_cfg.epochs / len(norms)))
    model = train(pool, arch, loss_cfg, pooled_cfg)
    return [
        replace(model, shift=shift + scale * model.shift, scale=scale * model.scale)
        for shift, scale in norms
    ]


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
        # bincount adds in row order, so every sum matches a per-row loop bit for bit
        sums = np.bincount(target.ravel(), weights=preds.ravel(), minlength=len(x))
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
