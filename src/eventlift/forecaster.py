"""Forecaster pipeline: rolling windows, weighted loss, a small net, and
in-sample synthetic-control extraction.

The idea: train a forecaster on the rolling windows of the full series with
forecast errors inside rare-event windows down-weighted, so the model learns
the routine signal (trend, seasonality) but not the event spikes.
Re-forecasting the same windows in-sample then yields a synthetic control;
the observed-minus-control gap on an event window is the effect estimate.

A ``RollingWindows`` holds one copy of its series, already normalized and
in float32, its (shift, scale), and each window's start in it, not a copy
of every window: lookback + horizon steps (120 in the retail settings)
would multiply a panel's memory by that factor.  Training reads those
values as they are (each mini-batch gathered from a strided view of them),
so its memory grows with the series' total length, O(S * T) for S series
of T days; nothing builds a row per window.  In-sample forecasting keeps
to the same bound: ``insample_forecast`` predicts ``_PREDICT_ROWS``
windows at a time and adds each block's forecasts into per-day running
sums (or the median's (T, horizon) float64 table of forecasts by offset)
before it reads the next, so its memory is O(T + block) for the mean and
O(T * horizon + block) for the median, not a copy of every window and
every activation of the net.  ``gradient_check`` alone takes rows as
arrays, a few at a time.

The forecaster itself is a small fully connected net implemented directly on
numpy arrays: parameters live in one flat vector, gradients come from manual
backpropagation, and training is mini-batch gradient descent with a seeded
shuffle: each epoch draws one permutation of the windows, each batch gathers
only its own rows, and each step writes its activations into buffers
allocated once and updates the parameters in place.  Everything is
deterministic given the seed.

Training runs in single precision (``TRAIN_DTYPE``): the normalized values
the windows hold, the parameters, the gradient and every batch buffer are
float32, the usual precision for training nets this size.  It halves the
memory traffic of each step's small matrix products and about doubles their
throughput; the trained nets forecast as well as float64-trained ones, since
their error is set by the data and the training budget, not by rounding.
Everything else stays float64: the normalization statistics and the stored
model, whose parameters are float32 values held exactly in a float64
vector, so prediction and ``gradient_check`` are double precision.  The
model file writes each parameter in its shortest float32 form, and
``load_model`` rounds it back to that float32 value.

``build_rolling_windows`` is the one place a series is normalized: by the
median and interquartile range of its own values (``_normalization``), each
value counted once whether or not a window covers it.  A panel trains one
pooled net (``train_pooled``): every series' windows, each series
normalized by its own pair, pooled as they are into one training set, so a
panel of S series costs one training instead of S.

Nets that must stay separate (the per-series direct-forecast baseline)
train in lock-step instead (``_train_stack``): their series are joined as
the pool's are (``RollingWindows._joined``), net s trains on the s-th of S
equal runs of the joined windows, and the S nets, under one config and each
with its own seed, run each step as one pass of 3-D numpy calls over a
leading net axis, which amortizes the per-call cost of the small matrix
products; each net gets the bits of training it alone.  It is the only
training loop: ``train`` is the stack of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TrainingDivergedError, ValidationError, check_finite, check_size
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
    "parameter_count",
]

MODEL_FORMAT_VERSION = 2

# precision of every training step; see the module docstring
TRAIN_DTYPE = np.float32

# windows per ``model.predict`` call in ``insample_forecast``: bounds its memory
_PREDICT_ROWS = 256
# days per ``np.nanmedian`` call in ``insample_forecast``: bounds its copies
_MEDIAN_DAYS = 1024


@dataclass(frozen=True)
class RollingWindowConfig:
    """Sliding-window layout: ``lookback`` input steps predict the next
    ``horizon`` steps; consecutive windows start ``stride`` apart."""

    lookback: int = 90
    horizon: int = 30
    stride: int = 1

    def __post_init__(self):
        for name in ("lookback", "horizon", "stride"):
            object.__setattr__(self, name, check_size(name, getattr(self, name)))


class RollingWindows:
    """Rolling (input, label) windows of one or more series, held as index
    ranges rather than copies, on normalized values.

    ``values`` is a float32 array of the series laid end to end, already
    normalized: (series - ``shift``) / ``scale``, the pair training records
    on its model.  ``event_day`` flags the values that fall inside an event
    window.  Window i reads its ``lookback`` inputs from ``values`` at
    ``starts[i]`` and the ``horizon`` labels right after them; no window
    runs from one series into the next.  The windows own the three arrays
    they are given and make them read-only.  ``len()`` counts the windows,
    and indexing with rows returns those windows over the same values.
    """

    __slots__ = ("values", "event_day", "starts", "lookback", "horizon", "shift", "scale")

    def __init__(self, values, event_day, starts, lookback, horizon, shift, scale):
        if starts.ndim != 1 or not len(starts):
            raise ValidationError(f"windows need >= 1 row, got starts of shape {starts.shape}")
        for array in (values, event_day, starts):
            array.setflags(write=False)
        self.values, self.event_day, self.starts = values, event_day, starts
        self.lookback, self.horizon = lookback, horizon
        self.shift, self.scale = shift, scale

    @classmethod
    def _joined(
        cls, parts: Iterable[RollingWindows], length: int
    ) -> tuple[RollingWindows, list[tuple[float, float]]]:
        """Every part's windows over the parts' ``length`` values laid end to
        end as they are, so at (0.0, 1.0), and each part's (shift, scale):
        the one join of several series' windows, for the pooled net and for
        each DF stack.  Each part is copied in and dropped before the next is
        read; a first part that fills ``length`` is the join itself, not a
        copy.  The starts are int32, as the float32 values they index would
        fill 8 GB before an offset passed 2**31."""
        parts = iter(parts)
        part = next(parts)  # before the join is allocated
        M, H = part.lookback, part.horizon
        if len(part.values) == length:
            pair = (part.shift, part.scale)
            return cls(part.values, part.event_day, part.starts, M, H, 0.0, 1.0), [pair]
        values = np.empty(length, TRAIN_DTYPE)
        event_day = np.empty(length, bool)
        # a part has fewer windows than values, so ``length`` starts hold
        # them all; the pages of the unused tail are never touched
        starts = np.empty(length, np.int32)
        pairs, first, n = [], 0, 0
        for part in chain([part], parts):
            last = first + len(part.values)
            values[first:last] = part.values
            event_day[first:last] = part.event_day
            np.add(part.starts, first, out=starts[n : n + len(part)])
            n += len(part)
            pairs.append((part.shift, part.scale))
            first = last
            del part  # before the next part is read
        return cls(values, event_day, starts[:n], M, H, 0.0, 1.0), pairs

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, rows) -> RollingWindows:
        return RollingWindows(
            self.values, self.event_day, np.array(self.starts[rows]), self.lookback,
            self.horizon, self.shift, self.scale,
        )


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
        for name in ("rare_weight", "nonrare_weight"):
            weight = getattr(self, name)
            if not (math.isfinite(weight) and weight >= 0):
                raise ValidationError(f"{name} must be finite and >= 0, got {weight}")
        if self.rare_weight + self.nonrare_weight <= 0:
            raise ValidationError("at least one loss weight must be positive")
        if self.distance not in ("absolute", "squared"):
            raise ValidationError(f"distance must be 'absolute' or 'squared', got {self.distance!r}")


@dataclass(frozen=True)
class ForecasterArch:
    hidden_sizes: tuple[int, ...] = (64, 64)
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(check_size("hidden_sizes", h) for h in self.hidden_sizes)
        if not sizes:
            raise ValidationError("hidden_sizes must hold at least one layer size")
        object.__setattr__(self, "hidden_sizes", sizes)
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
        for name in ("epochs", "batch_size"):
            object.__setattr__(self, name, check_size(name, getattr(self, name)))
        for name in ("learning_rate", "final_learning_rate"):
            rate = getattr(self, name)
            if rate is not None and not (math.isfinite(rate) and rate > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {rate}")


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
        sizes = tuple(self.layer_sizes)
        try:
            self.layer_sizes = tuple(check_size("layer_sizes", s) for s in sizes)
        except ValidationError as exc:
            raise ValidationError(f"bad layer sizes {sizes}: {exc}") from None
        if len(sizes) < 2:
            raise ValidationError(f"bad layer sizes {sizes}: a net needs an input and an output")
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
        if not math.isfinite(self.shift):
            raise ValidationError(f"normalization shift must be finite, got {self.shift}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"normalization scale must be finite and > 0, got {self.scale}")
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


def _window_starts(series, config: RollingWindowConfig):
    """Validate a (T,) series; return it as float64 and the int32 starts
    i * stride of every window that fits lookback + horizon steps; a series
    long enough to overflow int32 would fill 16 GB as float64."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("rolling windows need a single 1-D series")
    M, H = config.lookback, config.horizon
    if len(x) < M + H:
        raise ValidationError(f"series length {len(x)} < lookback + horizon = {M + H}")
    check_finite(x)
    return x, np.arange(0, len(x) - M - H + 1, config.stride, dtype=np.int32)


def build_rolling_windows(
    series: np.ndarray,
    config: RollingWindowConfig,
    calendar: EventCalendar | None = None,
) -> RollingWindows:
    """The overlapping (input, label) windows of a (T,) series, held as
    index ranges over the normalized series.

    Window i covers input indices [i*s, i*s+M) and label indices
    [i*s+M, i*s+M+H); i runs to ((T-M-H) // s).  Rare masks are set from
    the calendar (no calendar means all-false masks; indices past the
    series end are ignored).  The windows hold one private float32 copy of
    the series, normalized by its (shift, scale) (``_normalization``: the
    difference rounded once into float32, then divided there), and that
    pair; not a view of ``series`` and not a copy per window.
    """
    x, starts = _window_starts(series, config)
    days = (calendar or EventCalendar()).event_days(len(x))
    shift, scale = _normalization(x)
    values = np.empty(len(x), TRAIN_DTYPE)
    np.subtract(x, shift, out=values)
    values /= scale
    return RollingWindows(values, days, starts, config.lookback, config.horizon, shift, scale)


def _weighted_error(diff: np.ndarray, wv, distance: str):
    """Per-step weighted error ``wv * eta`` of the residuals ``diff`` and its
    derivative ``wv * d(eta)/d(diff)``; callers do their own reductions."""
    if distance == "absolute":
        eta, deta = np.abs(diff), np.sign(diff)
    else:
        eta, deta = diff**2, 2.0 * diff
    return wv * eta, wv * deta


def _normalization(values: np.ndarray) -> tuple[float, float]:
    """Median shift and interquartile-range scale of a series' values.

    Each value counts once, whether or not a training window covers it, so
    the pair depends on the series alone, not on the windows' stride or
    subset.  Robust to the event spikes themselves; a degenerate (constant)
    series falls back to scale 1.0.
    """
    q25, shift, q75 = np.percentile(values, [25, 50, 75]).tolist()
    scale = q75 - q25
    if scale <= 0:
        scale = 1.0
    return shift, scale


def _train_stack(
    stack: RollingWindows,
    norms: Sequence[tuple[float, float]],
    arch: ForecasterArch,
    loss_cfg: AdaptiveLossConfig,
    train_cfg: TrainConfig,
    seeds: Sequence[int],
) -> list[TrainedForecaster]:
    """Train one net per seed under ``train_cfg`` in lock-step, net s on the
    s-th of S equal runs of ``stack``'s windows, drawing from ``seeds[s]``,
    and record ``norms[s]`` on its model.

    Every net reads the stack's normalized float32 values as they are:
    ``train`` passes one series' windows, and a caller with several nets
    lays their series end to end first (``RollingWindows._joined``).  No
    window is copied up front.
    The S nets share one pass of numpy calls per step: the parameters are an
    (S, P) array, each layer an (S, fi, fo) weight view and an (S, 1, fo)
    bias view of it, and each step gathers every net's batch of inputs and
    labels with one fancy index per array into ``sliding_window_view``s of
    the values.  A loss weight belongs to its label's day: a weight equal
    on every day is one scalar (DF's uniform loss), and otherwise each
    batch picks its weights with ``np.where`` from the labels' one-byte
    event flags, gathered the same way.  Each net keeps its own seeded
    generator (its initial draws, then one shuffle of its own B starts per
    epoch, the draws of a permutation of its windows) and its own loss
    sums, reduced in the order one net alone would use, so net s gets the
    bits of training it alone.  Beside the values and flags, training holds
    the starts and one int32 order of them per net.

    ``train_cfg.seed`` is not read: net s alone is what ``train`` gives
    with ``replace(train_cfg, seed=seeds[s])``.  A non-finite loss stops the
    stack at that step and raises for the lowest-index net whose loss it is,
    at the epoch that net diverges alone.
    """
    if not seeds:
        raise ValidationError("a training stack needs at least one net")
    S = len(seeds)
    if len(norms) != S or len(stack) % S:
        raise ValidationError(
            f"a training stack of {S} nets needs one (shift, scale) pair per net and windows "
            f"that split evenly among them, got {len(norms)} pairs and {len(stack)} windows"
        )
    B, M, H = len(stack) // S, stack.lookback, stack.horizon
    own_starts = stack.starts.reshape(S, B)  # window s * B + i is net s's window i
    inputs = sliding_window_view(stack.values, M)
    labels = sliding_window_view(stack.values[M:], H)
    rare, nonrare = TRAIN_DTYPE(loss_cfg.rare_weight), TRAIN_DTYPE(loss_cfg.nonrare_weight)
    # a weight equal on every day is one scalar; otherwise each batch picks
    # its weights by the one-byte event flag of each label's day
    label_events = None
    if rare != nonrare and stack.event_day[M:].any():
        label_events = sliding_window_view(stack.event_day[M:], H)
    layer_sizes = (M, *arch.hidden_sizes, H)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    theta = np.empty((S, parameter_count(layer_sizes)), TRAIN_DTYPE)
    for row, rng in zip(theta, rngs):
        draws = []
        for fi, fo in _layer_shapes(layer_sizes):
            bound = 1.0 / np.sqrt(fi)
            draws.append(rng.uniform(-bound, bound, size=fi * fo))
            draws.append(rng.uniform(-bound, bound, size=fo))
        row[:] = np.concatenate(draws)

    bs = train_cfg.batch_size
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
    # rng.permutation(B) shuffles arange(B), and the draws depend on B alone:
    # shuffling a copy of the net's own starts in place puts them in that
    # order, so each epoch's order holds the starts a batch reads, in int32
    order = np.empty((S, B), np.int32)
    lr0 = train_cfg.learning_rate
    lr1 = train_cfg.final_learning_rate if train_cfg.final_learning_rate is not None else lr0
    history = []
    for epoch in range(train_cfg.epochs):
        frac = epoch / max(train_cfg.epochs - 1, 1)
        lr = lr0 + (lr1 - lr0) * frac
        for row, net_starts, rng in zip(order, own_starts, rngs):
            row[:] = net_starts
            rng.shuffle(row)
        epoch_loss = [0.0] * S
        n_batches = 0
        for start in range(0, B, bs):
            pos = order[:, start : start + bs]
            n = pos.shape[1]
            act_views, delta_views = views[n]
            # fancy indexing copies this batch's rows only, where take would
            # first copy the whole strided view
            acts = _forward(layers, arch.activation, inputs[pos], act_views)
            if label_events is None:
                weights = nonrare
            else:
                weights = np.where(label_events[pos], rare, nonrare)
            weighted, dpred = _weighted_error(acts[-1] - labels[pos], weights, loss_cfg.distance)
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

    Trains on the normalized float32 values the windows hold, as they are;
    the windows' (shift, scale) (the median and interquartile range of the
    series, each value counted once) is recorded on the model for exact
    denormalization.  Every step runs in ``TRAIN_DTYPE`` (float32, about
    half the cost of a float64 step); the initial parameters are drawn in
    float64 from the seeded generator and rounded, so the draws and the
    batch order do not depend on the precision.  The returned parameters
    are float32 values stored as float64.  Identical windows, configs, and
    seed give bit-identical parameters.  A non-finite loss aborts with the
    offending epoch (and net 0).  This is ``_train_stack`` of one net.
    """
    norms = [(windows.shift, windows.scale)]
    return _train_stack(windows, norms, arch, loss_cfg, train_cfg, [train_cfg.seed])[0]


def train_pooled(
    series_list: Sequence[np.ndarray],
    config: RollingWindowConfig,
    calendar: EventCalendar | None,
    arch: ForecasterArch,
    loss_cfg: AdaptiveLossConfig,
    train_cfg: TrainConfig,
) -> list[TrainedForecaster]:
    """Train one net on the rolling windows of every series; one model each.

    Each series' windows (``build_rolling_windows``) hold it normalized by
    the median and interquartile range (shift_i, scale_i) of its own
    values.  Their float32 values are copied, series by series, into one
    preallocated pool laid end to end (the series may differ in length),
    each series' windows dropped before the next are built, and the pool is
    not normalized again: ``train`` runs once on it at (0.0, 1.0), for
    ceil(epochs / S) epochs, about the gradient steps of training one
    series.  Model i has the shared parameters and (shift_i, scale_i), so
    it maps series i's raw inputs to forecasts.  A pool of one is ``train``
    on that series' windows.
    """
    if not series_list:
        raise ValidationError("pooled training needs at least one series")
    pool, norms = RollingWindows._joined(
        (build_rolling_windows(x, config, calendar) for x in series_list),
        sum(np.size(x) for x in series_list),
    )
    pooled_cfg = replace(train_cfg, epochs=math.ceil(train_cfg.epochs / len(norms)))
    model = train(pool, arch, loss_cfg, pooled_cfg)
    return [replace(model, shift=shift, scale=scale) for shift, scale in norms]


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

    The windows are predicted in blocks of ``_PREDICT_ROWS``, and only one
    block's inputs, activations and forecasts are alive at a time, beside
    the (T,) sums and counts (or the (T, horizon) float64 table of
    forecasts by offset the median reads, ``_MEDIAN_DAYS`` rows at a time),
    so memory is O(T + block) for the mean and O(T * horizon + block) for
    the median rather than O(windows * lookback).  ``np.add.at`` adds a
    block's forecasts into the sums row by row, continuing the earlier
    blocks' sums, which is the order ``np.bincount`` adds all rows in at
    once: the sums, and so the control, have the bits of one full-batch
    pass whenever the net gives each window the same bits in a block as in
    one call over every window.
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
    inputs = sliding_window_view(x, M)
    steps = np.arange(H)
    offsets = steps + M
    counts = np.zeros(len(x), np.int64)
    if aggregate == "mean":
        sums = np.zeros(len(x))
    else:
        by_offset = np.full((len(x), H), np.nan)
    for first in range(0, len(starts), _PREDICT_ROWS):
        block = starts[first : first + _PREDICT_ROWS]
        preds = model.predict(inputs[block])
        target = block[:, None] + offsets
        np.add.at(counts, target, 1)
        if aggregate == "mean":
            np.add.at(sums, target, preds)
        else:
            by_offset[target, steps] = preds
    values = np.full(len(x), np.nan)
    on = counts >= 1
    if aggregate == "mean":
        values[on] = sums[on] / counts[on]
    else:
        # each day's median reads only its own row, so blocks keep the bits
        for first in range(0, len(x), _MEDIAN_DAYS):
            days = slice(first, first + _MEDIAN_DAYS)
            values[days][on[days]] = np.nanmedian(by_offset[days][on[days]], axis=1)
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
    (no forecast lands there), or where the series is not finite, is
    rejected.  There is no covariance: the net has no closed-form sampling
    variance.  Cross-series pooling is done by averaging the per-series
    effects.
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
    check_finite(x[days], first=days.start)
    return x[days] - control[days]


def gradient_check(
    model: TrainedForecaster,
    inputs: np.ndarray,
    labels: np.ndarray,
    rare_mask: np.ndarray,
    loss_cfg: AdaptiveLossConfig,
    epsilon: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients
    of the adaptive loss summed over n rows of normalized values: (n,
    lookback) ``inputs``, (n, horizon) ``labels`` and an (n, horizon)
    ``rare_mask``, true where a label falls in an event window.  Inputs
    and labels are rounded to ``TRAIN_DTYPE``, as training reads them; the
    model's own shift and scale are not used.

    Each parameter is perturbed by +/- epsilon.  Perturbations that flip a
    relu preactivation sign or an absolute-error residual sign straddle a
    kink where the two-sided difference is meaningless, so those parameters
    are skipped.  Errors below 1e-8 in magnitude are compared absolutely.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    X = np.asarray(inputs, dtype=TRAIN_DTYPE)
    Y = np.asarray(labels, dtype=TRAIN_DTYPE)
    mask = np.asarray(rare_mask, dtype=bool)
    if not (X.ndim == Y.ndim == 2 and mask.shape == Y.shape and 1 <= len(X) == len(Y)):
        raise ValidationError(
            "gradient_check needs >= 1 row of 2-D inputs, labels and rare_mask that agree, "
            f"got shapes {X.shape}, {Y.shape}, {mask.shape}"
        )
    if (X.shape[1], Y.shape[1]) != (model.lookback, model.horizon):
        raise ValidationError(
            f"rows of {X.shape[1]} inputs and {Y.shape[1]} labels do not fit the model's "
            f"lookback {model.lookback} and horizon {model.horizon}"
        )
    wv = np.where(mask, loss_cfg.rare_weight, loss_cfg.nonrare_weight)
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
    """Write the model as versioned JSON: the shift and scale exactly, each
    parameter in the shortest text that reads back to its float32 value
    (training's precision), which ``load_model`` rounds it back to."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "activation": model.activation,
        "shift": model.shift,
        "scale": model.scale,
        "theta": [float(str(v)) for v in model.theta.astype(TRAIN_DTYPE)],
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
    except IsADirectoryError as exc:
        raise ValidationError(f"model file is a directory: {path}") from exc
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
            theta=np.array(payload["theta"], dtype=TRAIN_DTYPE),
            activation=payload["activation"],
            shift=float(payload["shift"]),
            scale=float(payload["scale"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad model entry ({exc!r})") from exc
