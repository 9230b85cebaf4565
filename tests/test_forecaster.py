import math
import pickle
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import TrainingDivergedError, ValidationError, forecaster
from eventlift.forecaster import _weighted_error


def constant_model(outputs, lookback=1, activation="relu"):
    """Forecaster that ignores its input and predicts ``outputs`` verbatim.

    All weights are zero, so only the final-layer biases reach the output.
    """
    outputs = np.asarray(outputs, dtype=float)
    layer_sizes = (lookback, 1, len(outputs))
    theta = np.zeros(el.parameter_count(layer_sizes))
    theta[-len(outputs) :] = outputs
    return el.TrainedForecaster(
        layer_sizes=layer_sizes,
        theta=theta,
        activation=activation,
        shift=0.0,
        scale=1.0,
    )


def quick_train(seed=0, epochs=30):
    rng = np.random.default_rng(4)
    x = rng.normal(10.0, 1.0, size=40)
    cfg = el.RollingWindowConfig(lookback=8, horizon=3, stride=1)
    samples = el.build_rolling_windows(x, cfg)
    model = el.train(
        samples,
        el.ForecasterArch(hidden_sizes=(8,), activation="relu"),
        el.AdaptiveLossConfig(),
        el.TrainConfig(epochs=epochs, batch_size=16, learning_rate=0.01, seed=seed),
    )
    return model, samples, x, cfg


def normalized(x):
    """A series as its windows hold it, and its (shift, scale): the median
    and interquartile range from ``np.percentile``, each value counted once
    (scale 1.0 for a constant series); the difference from the median is
    rounded once into float32, then divided by the scale there."""
    q25, q50, q75 = np.percentile(x, [25, 50, 75])
    shift, scale = float(q50), float(q75 - q25)
    scale = scale if scale > 0 else 1.0
    return (x - shift).astype(np.float32) / np.float32(scale), (shift, scale)


class TestRollingWindows:
    def test_window_count_and_indices(self):
        x = np.arange(10.0)
        cfg = el.RollingWindowConfig(lookback=4, horizon=2, stride=1)
        windows = el.build_rolling_windows(x, cfg)
        z, pair = normalized(x)
        assert len(windows) == 5
        assert (windows.shift, windows.scale) == pair == (4.5, 4.5)
        assert windows.inputs[0].tolist() == z[0:4].tolist()
        assert windows.labels[0].tolist() == z[4:6].tolist()
        assert windows.labels[-1].tolist() == z[8:10].tolist()

    def test_stride_consuming_series_gives_one_sample(self):
        x = np.arange(10.0)
        cfg = el.RollingWindowConfig(lookback=4, horizon=2, stride=5)
        windows = el.build_rolling_windows(x, cfg)
        assert len(windows) == 1

    def test_rare_mask_from_calendar(self):
        x = np.arange(12.0)
        cfg = el.RollingWindowConfig(lookback=4, horizon=2, stride=1)
        calendar = el.EventCalendar({"e": [el.EventWindow(t0=3, d=2)]})
        windows = el.build_rolling_windows(x, cfg, calendar)
        # event occupies indices 4 and 5
        assert windows.rare_mask[0].tolist() == [True, True]
        assert windows.rare_mask[2].tolist() == [False, False]

    def test_rare_mask_partial_overlap(self):
        x = np.arange(12.0)
        cfg = el.RollingWindowConfig(lookback=4, horizon=2, stride=1)
        calendar = el.EventCalendar({"e": [el.EventWindow(t0=4, d=2)]})
        windows = el.build_rolling_windows(x, cfg, calendar)
        # event occupies indices 5 and 6; window 0 labels indices 4 and 5
        assert windows.rare_mask[0].tolist() == [False, True]

    def test_no_calendar_means_all_false(self):
        x = np.arange(10.0)
        windows = el.build_rolling_windows(
            x, el.RollingWindowConfig(lookback=4, horizon=2)
        )
        assert not windows.rare_mask.any()

    def test_row_selection_keeps_the_layout(self):
        windows = el.build_rolling_windows(
            np.arange(20.0), el.RollingWindowConfig(lookback=4, horizon=2)
        )
        head = windows[:3]
        assert isinstance(head, el.RollingWindows) and len(head) == 3
        assert np.array_equal(head.inputs, windows.inputs[:3])
        assert (head.shift, head.scale) == (windows.shift, windows.scale)
        z, _ = normalized(np.arange(20.0))
        assert windows[np.array([0, 2])].labels[:, 0].tolist() == z[[4, 6]].tolist()

    @pytest.mark.parametrize("rows", [3, np.array([], dtype=int), slice(5, 5)])
    def test_selection_of_no_window_row_rejected(self, rows):
        windows = el.build_rolling_windows(
            np.arange(20.0), el.RollingWindowConfig(lookback=4, horizon=2)
        )
        with pytest.raises(ValidationError, match="windows need >= 1 row"):
            windows[rows]

    def test_windows_hold_one_read_only_copy_of_the_series(self):
        x = np.arange(20.0)
        z, _ = normalized(x)
        windows = el.build_rolling_windows(x, el.RollingWindowConfig(lookback=4, horizon=2))
        assert windows.values.tobytes() == z.tobytes()
        assert not np.shares_memory(windows.values, x)
        assert not windows.values.flags.writeable
        x[:] = -1.0
        assert windows.inputs[0].tolist() == z[0:4].tolist()

    def test_given_arrays_are_held_as_normalized_values(self):
        windows = el.RollingWindows(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]),
            np.array([[True], [False]]),
        )
        assert (windows.shift, windows.scale) == (0.0, 1.0)
        assert windows.values.dtype == np.float32
        assert windows.labels[:, 0].tolist() == [5.0, 6.0]

    def test_a_block_of_series_is_rejected(self):
        # a pool of series is joined from per-series windows, as train_pooled does
        with pytest.raises(ValidationError, match="need a single 1-D series"):
            el.build_rolling_windows(np.zeros((3, 17)), el.RollingWindowConfig(4, 2))

    @pytest.mark.parametrize(
        "inputs, labels, mask",
        [((3,), (3, 2), (3, 2)), ((3, 4), (2, 2), (2, 2)), ((3, 4), (3, 2), (3, 3))],
    )
    def test_misaligned_arrays_rejected(self, inputs, labels, mask):
        with pytest.raises(ValidationError):
            el.RollingWindows(np.zeros(inputs), np.zeros(labels), np.zeros(mask, dtype=bool))

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError):
            el.build_rolling_windows(
                np.arange(5.0), el.RollingWindowConfig(lookback=4, horizon=2)
            )


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(min_value=3, max_value=60),
    lookback=st.integers(min_value=1, max_value=20),
    horizon=st.integers(min_value=1, max_value=10),
    stride=st.integers(min_value=1, max_value=5),
)
def test_rolling_window_index_arithmetic(length, lookback, horizon, stride):
    if length < lookback + horizon:
        return
    x = np.arange(float(length))
    cfg = el.RollingWindowConfig(lookback=lookback, horizon=horizon, stride=stride)
    windows = el.build_rolling_windows(x, cfg)
    assert len(windows) == (length - lookback - horizon) // stride + 1
    # the normalized days stay distinct, so each value names its day
    day = {v: t for t, v in enumerate(normalized(x)[0].tolist())}
    label_starts = [day[v] for v in windows.labels[:, 0].tolist()]
    for i in range(len(windows)):
        assert label_starts[i] == i * stride + lookback
        assert day[windows.inputs[i, 0].item()] == i * stride
    if stride == 1:
        covered = set()
        for label_start in label_starts:
            covered.update(range(label_start, label_start + horizon))
        assert covered == set(range(lookback, length))


def reference_windows(x, cfg, calendar):
    """Per-window construction that ``build_rolling_windows`` replaced: one
    row per start, a calendar set lookup per label step, then stacking."""
    M, H = cfg.lookback, cfg.horizon
    event_idx = {t for occ in calendar.events.values() for w in occ for t in w.indices}
    inputs, labels, masks = [], [], []
    for start in range(0, len(x) - M - H + 1, cfg.stride):
        label_start = start + M
        inputs.append(x[start:label_start].copy())
        labels.append(x[label_start : label_start + H].copy())
        masks.append(np.array([(label_start + k) in event_idx for k in range(H)]))
    return np.stack(inputs), np.stack(labels), np.stack(masks)


def reference_insample(model, x, cfg, aggregate):
    """Per-window loops and the dense (windows x T) median matrix that
    ``insample_forecast`` replaced, plus one window ending at the series
    end when the stride misses it; returns (values, counts)."""
    M, H = cfg.lookback, cfg.horizon
    starts = list(range(0, len(x) - M - H + 1, cfg.stride))
    if starts[-1] != len(x) - M - H:
        starts.append(len(x) - M - H)
    preds = model.predict(np.stack([x[i : i + M] for i in starts]))
    counts = np.zeros(len(x), dtype=int)
    for i in starts:
        counts[i + M : i + M + H] += 1
    values = np.full(len(x), np.nan)
    on = counts >= 1
    if aggregate == "mean":
        sums = np.zeros(len(x))
        for row, i in enumerate(starts):
            sums[i + M : i + M + H] += preds[row]
        values[on] = sums[on] / counts[on]
    else:
        stacked = np.full((len(preds), len(x)), np.nan)
        for row, i in enumerate(starts):
            stacked[row, i + M : i + M + H] = preds[row]
        values[on] = np.nanmedian(stacked[:, on], axis=0)
    return values, counts


@settings(max_examples=150, deadline=None)
@given(
    length=st.integers(min_value=2, max_value=90),
    lookback=st.integers(min_value=1, max_value=20),
    horizon=st.integers(min_value=1, max_value=12),
    stride=st.integers(min_value=1, max_value=5),
    event_t0s=st.lists(st.integers(min_value=1, max_value=100), max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_windows_and_insample_match_per_window_reference(
    length, lookback, horizon, stride, event_t0s, seed
):
    if length < lookback + horizon:
        return
    rng = np.random.default_rng(seed)
    x = rng.normal(10.0, 3.0, size=length)
    # one event per window, so windows may overlap or pass the series end
    calendar = el.EventCalendar(
        {f"e{j}": [el.EventWindow(t0=t0, d=3)] for j, t0 in enumerate(event_t0s)}
    )
    cfg = el.RollingWindowConfig(lookback=lookback, horizon=horizon, stride=stride)
    windows = el.build_rolling_windows(x, cfg, calendar)
    z, pair = normalized(x)
    assert (windows.shift, windows.scale) == pair
    for got, want in zip(
        (windows.inputs, windows.labels, windows.rare_mask),
        reference_windows(z, cfg, calendar),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, x)

    layer_sizes = (lookback, 4, horizon)
    model = el.TrainedForecaster(
        layer_sizes=layer_sizes,
        theta=rng.normal(0.0, 0.5, size=el.parameter_count(layer_sizes)),
        activation="tanh",
        shift=10.0,
        scale=3.0,
    )
    for aggregate in ("mean", "median"):
        if stride > horizon:
            # in-sample windows that far apart would leave days with no forecast
            with pytest.raises(ValidationError, match=rf"stride {stride} .*horizon {horizon}"):
                el.insample_forecast(model, x, stride, aggregate=aggregate)
            continue
        ctrl = el.insample_forecast(model, x, stride, aggregate=aggregate)
        values, _ = reference_insample(model, x, cfg, aggregate)
        assert ctrl.tobytes() == values.tobytes()


def full_batch_insample(model, x, stride, aggregate):
    """``insample_forecast`` as one ``predict`` call over every window, its
    sums by ``bincount`` and its median table filled at once: the body the
    blocked walk replaced."""
    M, H = model.lookback, model.horizon
    starts = np.arange(0, len(x) - M - H + 1, stride)
    if starts[-1] != len(x) - M - H:
        starts = np.append(starts, len(x) - M - H)
    preds = model.predict(np.lib.stride_tricks.sliding_window_view(x, M)[starts])
    target = starts[:, None] + M + np.arange(H)
    counts = np.bincount(target.ravel(), minlength=len(x))
    values = np.full(len(x), np.nan)
    on = counts >= 1
    if aggregate == "mean":
        sums = np.bincount(target.ravel(), weights=preds.ravel(), minlength=len(x))
        values[on] = sums[on] / counts[on]
    else:
        by_offset = np.full((len(x), H), np.nan)
        by_offset[target, np.arange(H)] = preds
        values[on] = np.nanmedian(by_offset[on], axis=1)
    return values


def exact_product_model(layer_sizes, rng, activation):
    """A net whose matrix products are exact: each weight column holds one
    nonzero entry, a power of two, so every product is one exact scaling and
    its bits cannot depend on how BLAS splits or orders it for a given row
    count.  Biases, activations and the (shift, scale) are arbitrary."""
    theta = np.zeros(el.parameter_count(layer_sizes))
    pos = 0
    for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]):
        W = theta[pos : pos + fi * fo].reshape(fi, fo)
        W[rng.integers(0, fi, size=fo), np.arange(fo)] = rng.choice([-2.0, -0.5, 0.5, 1.0, 2.0], fo)
        theta[pos + fi * fo : pos + fi * fo + fo] = rng.normal(0.0, 0.5, size=fo)
        pos += (fi + 1) * fo
    return el.TrainedForecaster(layer_sizes, theta, activation, shift=10.0, scale=3.0)


@settings(max_examples=120, deadline=None)
@given(
    block_rows=st.sampled_from([1, 2, 5, forecaster._PREDICT_ROWS]),
    median_days=st.sampled_from([1, 3, 16, forecaster._MEDIAN_DAYS]),
    blocks=st.integers(min_value=0, max_value=3),
    partial=st.integers(min_value=0, max_value=2**16),
    lookback=st.integers(min_value=1, max_value=12),
    horizon=st.integers(min_value=1, max_value=8),
    stride_draw=st.integers(min_value=1, max_value=2**16),
    appended=st.booleans(),
    activation=st.sampled_from(["relu", "tanh"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_blocked_insample_forecast_is_the_full_batch_bit_for_bit(
    block_rows, median_days, blocks, partial, lookback, horizon, stride_draw, appended,
    activation, seed
):
    """One block, exactly k blocks and k blocks plus a partial one (the
    appended last window included), every stride 1..horizon, both
    aggregates, the medians taken in blocks of days or all at once: the
    blocked walk gives the full-batch body's bytes."""
    stride = 1 + stride_draw % horizon
    appended = appended and stride > 1
    windows = max(blocks * block_rows + partial % block_rows or block_rows, 1 + appended)
    # the strided windows, then, when the series runs 1..stride-1 days past
    # the last of them, one more ending at the series end
    past_last = 1 + seed % (stride - 1) if appended else 0
    length = lookback + horizon + (windows - appended - 1) * stride + past_last
    rng = np.random.default_rng(seed)
    x = rng.normal(10.0, 3.0, size=length)
    model = exact_product_model((lookback, 3, 4, horizon), rng, activation)
    with mock.patch.object(forecaster, "_PREDICT_ROWS", block_rows), \
            mock.patch.object(forecaster, "_MEDIAN_DAYS", median_days):
        for aggregate in ("mean", "median"):
            got = el.insample_forecast(model, x, stride, aggregate=aggregate)
            want = full_batch_insample(model, x, stride, aggregate)
            assert got.tobytes() == want.tobytes()


def test_insample_forecast_holds_no_window_copy():
    """Traced peak of the mean path on a 20,000-day series with 90/30
    windows and a 64-64 net: under 16 times the 0.16 MB series, where every
    window's inputs alone take 90 times it and the full-batch body peaked at
    367 times it."""
    import tracemalloc

    rng = np.random.default_rng(6)
    x = rng.normal(100.0, 5.0, size=20_000)
    sizes = (90, 64, 64, 30)
    model = el.TrainedForecaster(
        sizes, rng.normal(0.0, 0.1, el.parameter_count(sizes)), "relu", shift=100.0, scale=5.0
    )
    el.insample_forecast(model, x)  # imports and caches are not the forecast's cost
    tracemalloc.start()
    try:
        el.insample_forecast(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * x.nbytes, (peak, x.nbytes)


def test_insample_median_takes_its_medians_a_block_of_days_at_a_time():
    """Traced peak of the median path on the same 20,000-day series: under
    64 times the series (10.2 MB).  The (T, horizon) table of forecasts by
    offset is 30 times it; handing every covered row to ``np.nanmedian`` at
    once peaked at 166 times it, a block of days at a time at 41 times."""
    import tracemalloc

    rng = np.random.default_rng(6)
    x = rng.normal(100.0, 5.0, size=20_000)
    sizes = (90, 64, 64, 30)
    model = el.TrainedForecaster(
        sizes, rng.normal(0.0, 0.1, el.parameter_count(sizes)), "relu", shift=100.0, scale=5.0
    )
    el.insample_forecast(model, x, aggregate="median")  # imports and caches
    tracemalloc.start()
    try:
        el.insample_forecast(model, x, aggregate="median")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * x.nbytes, (peak, x.nbytes)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_series_names_the_first_bad_index(bad):
    x = np.arange(20.0)
    x[13] = bad
    x[17] = bad
    cfg = el.RollingWindowConfig(lookback=4, horizon=2)
    with pytest.raises(ValidationError, match=r"index 13 "):
        el.build_rolling_windows(x, cfg)
    with pytest.raises(ValidationError, match=r"index 13 "):
        el.insample_forecast(constant_model([1.0, 2.0], lookback=4), x)


def fixed_weights(mask, cfg):
    """Fixed per-step weights: rare_weight on the rare steps, nonrare_weight elsewhere."""
    return np.where(mask, cfg.rare_weight, cfg.nonrare_weight)


class TestAdaptiveLoss:
    """``_weighted_error``, the per-step loss and derivative training reduces."""

    def test_hand_computed(self):
        cfg = el.AdaptiveLossConfig(rare_weight=0.5, nonrare_weight=1.0)
        mask = np.array([True, False, False])
        diff = np.zeros(3) - np.array([2.0, 1.0, 1.0])
        weighted, deriv = _weighted_error(diff, fixed_weights(mask, cfg), cfg.distance)
        assert weighted.tolist() == [1.0, 1.0, 1.0]
        assert weighted.sum() == 3.0
        assert deriv.tolist() == [-0.5, -1.0, -1.0]

    def test_perfect_prediction_is_free(self):
        cfg = el.AdaptiveLossConfig(rare_weight=3.0, nonrare_weight=7.0)
        label = np.array([1.0, -2.0])
        weighted, deriv = _weighted_error(
            label - label, fixed_weights(np.array([True, False]), cfg), cfg.distance
        )
        assert weighted.sum() == 0.0
        assert deriv.tolist() == [0.0, 0.0]

    def test_unit_weights_give_total_distance(self):
        cfg = el.AdaptiveLossConfig(rare_weight=1.0, nonrare_weight=1.0)
        pred = np.array([1.0, 2.0, 3.0])
        label = np.array([0.0, 4.0, 3.5])
        weighted, _ = _weighted_error(
            pred - label, fixed_weights(np.array([True, False, True]), cfg), cfg.distance
        )
        assert weighted.sum() == pytest.approx(3.5)

    def test_squared_distance(self):
        cfg = el.AdaptiveLossConfig(
            rare_weight=1.0, nonrare_weight=1.0, distance="squared"
        )
        diff = np.array([0.0, 0.0]) - np.array([2.0, -3.0])
        mask = np.array([False, False])
        weighted, deriv = _weighted_error(diff, fixed_weights(mask, cfg), cfg.distance)
        assert weighted.tolist() == [4.0, 9.0]
        assert weighted.sum() == 13.0
        assert deriv.tolist() == [-4.0, 6.0]

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            el.AdaptiveLossConfig(rare_weight=-0.1)
        for field, value in [("rare_weight", math.nan), ("rare_weight", math.inf),
                             ("nonrare_weight", math.nan), ("nonrare_weight", math.inf)]:
            with pytest.raises(ValidationError, match=rf"{field} must be finite and >= 0"):
                el.AdaptiveLossConfig(**{field: value})
        with pytest.raises(ValidationError):
            el.AdaptiveLossConfig(rare_weight=0.0, nonrare_weight=0.0)
        with pytest.raises(ValidationError):
            el.AdaptiveLossConfig(distance="huber")


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    h=st.integers(min_value=1, max_value=8),
    w1=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    w2=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    distance=st.sampled_from(["absolute", "squared"]),
)
def test_loss_decomposes_into_weighted_masked_sums(data, h, w1, w2, distance):
    """The row sum training takes is the rare part plus the non-rare part."""
    finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
    pred = np.array(data.draw(st.lists(finite, min_size=h, max_size=h)))
    label = np.array(data.draw(st.lists(finite, min_size=h, max_size=h)))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=h, max_size=h)))
    check_loss_decomposition(pred, label, mask, w1, w2, distance)


def check_loss_decomposition(pred, label, mask, w1, w2, distance):
    """Both sides weight each term before adding, then add the same
    nonnegative terms in different orders, so they agree to a few rounding
    errors of the total, not bit for bit. Weighting a masked sum after adding
    would not: ``w * (a + b)`` and ``w * a + w * b`` round apart by a whole
    subnormal step once the products underflow."""
    cfg = el.AdaptiveLossConfig(rare_weight=w1, nonrare_weight=w2, distance=distance)
    weighted, _ = _weighted_error(pred - label, fixed_weights(mask, cfg), distance)
    eta, _ = _weighted_error(pred - label, 1.0, distance)
    parts = (w1 * eta[mask]).sum() + (w2 * eta[~mask]).sum()
    assert weighted.sum() == pytest.approx(parts, rel=1e-12, abs=0.0)


def test_loss_decomposes_with_subnormal_products():
    """The smallest subnormal rare weight: every rare product underflows."""
    check_loss_decomposition(
        pred=np.array([0.0, 0.0, 0.0, 1.5, 0.0]),
        label=np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
        mask=np.array([False, True, False, True, False]),
        w1=5e-324, w2=1.0, distance="absolute",
    )
    check_loss_decomposition(
        pred=np.array([5e-324, 5e-324]), label=np.zeros(2),
        mask=np.array([False, False]), w1=0.0, w2=0.3, distance="absolute",
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    h=st.integers(min_value=1, max_value=8),
    w1_low=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    bump=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_loss_never_decreases_in_rare_weight(data, h, w1_low, bump):
    finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
    pred = np.array(data.draw(st.lists(finite, min_size=h, max_size=h)))
    label = np.array(data.draw(st.lists(finite, min_size=h, max_size=h)))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=h, max_size=h)))

    def loss(rare_weight):
        cfg = el.AdaptiveLossConfig(rare_weight=rare_weight)
        return _weighted_error(pred - label, fixed_weights(mask, cfg), cfg.distance)[0].sum()

    assert loss(w1_low + bump) >= loss(w1_low)


class TestTrain:
    def test_constant_series_learned(self):
        x = np.full(40, 5.0)
        cfg = el.RollingWindowConfig(lookback=8, horizon=3, stride=1)
        samples = el.build_rolling_windows(x, cfg)
        model = el.train(
            samples,
            el.ForecasterArch(hidden_sizes=(16,), activation="relu"),
            el.AdaptiveLossConfig(),
            el.TrainConfig(epochs=200, batch_size=16, learning_rate=0.01, seed=0),
        )
        preds = model.predict(np.lib.stride_tricks.sliding_window_view(x, cfg.lookback))
        assert np.all(np.abs(preds - 5.0) / 5.0 < 0.01)

    def test_training_is_deterministic(self):
        a, _, _, _ = quick_train(seed=7)
        b, _, _, _ = quick_train(seed=7)
        c, _, _, _ = quick_train(seed=8)
        assert np.array_equal(a.theta, b.theta)
        assert a.loss_history == b.loss_history
        assert not np.array_equal(a.theta, c.theta)

    def test_loss_history_improves(self):
        model, _, _, _ = quick_train(epochs=60)
        assert model.loss_history[-1] <= model.loss_history[0]

    def test_sinusoid_fit_in_sample(self):
        t = np.arange(160)
        x = 5.0 + np.sin(2 * np.pi * t / 20.0)
        cfg = el.RollingWindowConfig(lookback=40, horizon=10, stride=1)
        samples = el.build_rolling_windows(x, cfg)
        model = el.train(
            samples,
            el.ForecasterArch(hidden_sizes=(64,), activation="tanh"),
            el.AdaptiveLossConfig(
                rare_weight=1.0, nonrare_weight=1.0, distance="squared"
            ),
            el.TrainConfig(
                epochs=2000,
                batch_size=32,
                learning_rate=0.05,
                final_learning_rate=0.005,
                seed=3,
            ),
        )
        ctrl = el.insample_forecast(model, x)
        sup = np.flatnonzero(~np.isnan(ctrl))
        mape = 100.0 * np.mean(np.abs(x[sup] - ctrl[sup]) / np.abs(x[sup]))
        assert mape < 5.0

    def test_zero_rare_weight_leaves_spike_in_residuals(self):
        t = np.arange(200)
        x = 5.0 + np.sin(2 * np.pi * t / 20.0)
        x[130] += 3.0
        window = el.EventWindow(t0=129, d=1)
        calendar = el.EventCalendar({"spike": [window]})
        cfg = el.RollingWindowConfig(lookback=40, horizon=10, stride=1)
        samples = el.build_rolling_windows(x, cfg, calendar)
        model = el.train(
            samples,
            el.ForecasterArch(hidden_sizes=(64,), activation="tanh"),
            el.AdaptiveLossConfig(
                rare_weight=0.0, nonrare_weight=1.0, distance="squared"
            ),
            el.TrainConfig(
                epochs=2000,
                batch_size=32,
                learning_rate=0.05,
                final_learning_rate=0.005,
                seed=3,
            ),
        )
        ctrl = el.insample_forecast(model, x)
        est = el.extract_effect(ctrl, x, window)
        assert 2.4 <= est[0] <= 3.6

    def test_divergence_error_pickles(self):
        err = pickle.loads(pickle.dumps(TrainingDivergedError(3, float("nan"))))
        assert type(err) is TrainingDivergedError
        assert err.epoch == 3 and np.isnan(err.loss) and err.net is None
        assert str(err) == "training diverged at epoch 3: loss=nan"

    @pytest.mark.parametrize("net", [2, "DF of series 's001'"])
    def test_divergence_error_with_a_net_pickles(self, net):
        err = pickle.loads(pickle.dumps(TrainingDivergedError(3, float("inf"), net)))
        assert type(err) is TrainingDivergedError
        assert (err.epoch, err.loss, err.net) == (3, float("inf"), net)
        assert str(err) == f"training diverged at epoch 3 for net {net}: loss=inf"

    def test_divergence_names_the_epoch(self):
        x = np.linspace(0.0, 100.0, 40)
        cfg = el.RollingWindowConfig(lookback=8, horizon=3, stride=1)
        samples = el.build_rolling_windows(x, cfg)
        with pytest.raises(TrainingDivergedError) as info, np.errstate(all="ignore"):
            el.train(
                samples,
                el.ForecasterArch(hidden_sizes=(16,), activation="relu"),
                el.AdaptiveLossConfig(
                    rare_weight=1.0, nonrare_weight=1.0, distance="squared"
                ),
                el.TrainConfig(epochs=50, batch_size=16, learning_rate=1e12, seed=0),
            )
        with pytest.raises(TrainingDivergedError) as ref, np.errstate(all="ignore"):
            reference_train(
                samples,
                el.ForecasterArch(hidden_sizes=(16,), activation="relu"),
                el.AdaptiveLossConfig(
                    rare_weight=1.0, nonrare_weight=1.0, distance="squared"
                ),
                el.TrainConfig(epochs=50, batch_size=16, learning_rate=1e12, seed=0),
            )
        assert info.value.epoch == ref.value.epoch

    def test_empty_samples_rejected(self):
        with pytest.raises(ValidationError):
            el.RollingWindows(
                inputs=np.zeros((0, 4)),
                labels=np.zeros((0, 2)),
                rare_mask=np.zeros((0, 2), dtype=bool),
            )

    @pytest.mark.parametrize("field", ["learning_rate", "final_learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.01])
    def test_rate_must_be_finite_and_positive(self, field, value):
        """NaN passes a ``<= 0`` check and inf passes ``> 0``; each must fail
        naming its field, not train until the loss turns NaN."""
        with pytest.raises(ValidationError, match=rf"^{field} must be finite and > 0"):
            el.TrainConfig(**{field: value})


def _ref_layers(theta, layer_sizes):
    out, pos = [], 0
    for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]):
        W = theta[pos : pos + fi * fo].reshape(fi, fo)
        pos += fi * fo
        out.append((W, theta[pos : pos + fo]))
        pos += fo
    return out


def _ref_forward(theta, layer_sizes, activation, X):
    layers = _ref_layers(theta, layer_sizes)
    acts, pres, a = [X], [], X
    for li, (W, b) in enumerate(layers):
        z = a @ W + b
        pres.append(z)
        if li < len(layers) - 1:
            a = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
        else:
            a = z
        acts.append(a)
    return acts, pres


def _ref_backward(theta, layer_sizes, activation, acts, pres, dpred):
    layers = _ref_layers(theta, layer_sizes)
    n_layers = len(layers)
    grads = [None] * n_layers
    delta = dpred
    for li in reversed(range(n_layers)):
        if li < n_layers - 1:
            if activation == "relu":
                delta = delta * (pres[li] > 0)
            else:
                delta = delta * (1.0 - acts[li + 1] ** 2)
        W, _ = layers[li]
        grads[li] = (acts[li].T @ delta, delta.sum(axis=0))
        if li > 0:
            delta = delta @ W.T
    return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])


def _ref_eta_and_grad(diff, distance):
    if distance == "absolute":
        return np.abs(diff), np.sign(diff)
    return diff**2, 2.0 * diff


def reference_train(windows, arch, loss_cfg, train_cfg):
    """The allocating training loop that ``train`` replaced, in the same
    float32 steps, on the windows' normalized values as they are: per-step
    row gathers, fresh activations and gradients, and a new theta per step.
    Returns (theta as float64, loss_history)."""
    X, Y, mask = windows.inputs, windows.labels, windows.rare_mask
    layer_sizes = (X.shape[1], *arch.hidden_sizes, Y.shape[1])

    rng = np.random.default_rng(train_cfg.seed)
    parts = []
    for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fi)
        parts.append(rng.uniform(-bound, bound, size=fi * fo))
        parts.append(rng.uniform(-bound, bound, size=fo))
    theta = np.concatenate(parts).astype(np.float32)

    B = X.shape[0]
    lr0 = train_cfg.learning_rate
    lr1 = train_cfg.final_learning_rate if train_cfg.final_learning_rate is not None else lr0
    history = []
    for epoch in range(train_cfg.epochs):
        frac = epoch / max(train_cfg.epochs - 1, 1)
        lr = lr0 + (lr1 - lr0) * frac
        perm = rng.permutation(B)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, B, train_cfg.batch_size):
            idx = perm[start : start + train_cfg.batch_size]
            acts, pres = _ref_forward(theta, layer_sizes, arch.activation, X[idx])
            diff = acts[-1] - Y[idx]
            eta, deta = _ref_eta_and_grad(diff, loss_cfg.distance)
            wv = np.where(
                mask[idx], np.float32(loss_cfg.rare_weight), np.float32(loss_cfg.nonrare_weight)
            )
            # the float32 row sums are added in float32, the mean taken in float64
            batch_loss = float((wv * eta).sum(axis=1).sum()) / len(idx)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, batch_loss)
            grad = _ref_backward(
                theta, layer_sizes, arch.activation, acts, pres, wv * deta / len(idx)
            )
            theta = theta - lr * grad
            epoch_loss += batch_loss
            n_batches += 1
        history.append(epoch_loss / n_batches)
    return theta.astype(np.float64), tuple(history)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    # 13 = the longest lookback + horizon drawn, so every draw has a window
    length=st.integers(min_value=13, max_value=70),
    lookback=st.integers(min_value=1, max_value=8),
    horizon=st.integers(min_value=1, max_value=5),
    event_t0s=st.lists(st.integers(min_value=1, max_value=70), max_size=3),
    hidden=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
    activation=st.sampled_from(["relu", "tanh"]),
    distance=st.sampled_from(["absolute", "squared"]),
    epochs=st.integers(min_value=1, max_value=4),
    batching=st.sampled_from(["divides", "remainder", "exceeds"]),
    pick=st.integers(min_value=0, max_value=6),
)
def test_train_matches_the_allocating_reference_bit_for_bit(
    seed, length, lookback, horizon, event_t0s, hidden, activation, distance,
    epochs, batching, pick,
):
    rng = np.random.default_rng(seed)
    x = rng.normal(10.0, 3.0, size=length)
    calendar = el.EventCalendar(
        {f"e{j}": [el.EventWindow(t0=t0, d=2)] for j, t0 in enumerate(event_t0s)}
    )
    cfg = el.RollingWindowConfig(lookback=lookback, horizon=horizon)
    windows = el.build_rolling_windows(x, cfg, calendar)
    B = len(windows)
    sizes = {
        "divides": [k for k in range(1, B + 1) if B % k == 0],
        "remainder": [k for k in range(2, B) if B % k],
        "exceeds": [B + 1, B + 7],
    }[batching]
    if not sizes:  # B <= 2: every batch size up to B divides it
        return
    batch_size = sizes[pick % len(sizes)]
    arch = el.ForecasterArch(hidden_sizes=tuple(hidden), activation=activation)
    loss_cfg = el.AdaptiveLossConfig(rare_weight=0.3, distance=distance)
    train_cfg = el.TrainConfig(
        epochs=epochs, batch_size=batch_size, learning_rate=0.05,
        final_learning_rate=0.01, seed=seed,
    )
    model = el.train(windows, arch, loss_cfg, train_cfg)
    z, pair = normalized(x)
    reference = el.RollingWindows(*reference_windows(z, cfg, calendar))
    theta, history = reference_train(reference, arch, loss_cfg, train_cfg)
    assert model.theta.tobytes() == theta.tobytes()
    assert np.array(model.loss_history).tobytes() == np.array(history).tobytes()
    assert (model.shift, model.scale) == pair


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    nets=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=13, max_value=60),
    lookback=st.integers(min_value=1, max_value=8),
    horizon=st.integers(min_value=1, max_value=5),
    event_t0=st.integers(min_value=1, max_value=60),
    hidden=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
    activation=st.sampled_from(["relu", "tanh"]),
    distance=st.sampled_from(["absolute", "squared"]),
    epochs=st.integers(min_value=1, max_value=4),
    batching=st.sampled_from(["divides", "remainder", "exceeds"]),
    pick=st.integers(min_value=0, max_value=6),
)
def test_train_stack_matches_training_each_net_alone_bit_for_bit(
    seed, nets, length, lookback, horizon, event_t0, hidden, activation, distance,
    epochs, batching, pick,
):
    """Net s of a lock-step stack gets the parameters and loss history of
    ``train`` and of the allocating reference loop on its windows alone,
    with its seed."""
    rng = np.random.default_rng(seed)
    cfg = el.RollingWindowConfig(lookback=lookback, horizon=horizon)
    calendar = el.EventCalendar({"e": [el.EventWindow(t0=event_t0, d=2)]})
    series = [
        rng.normal(rng.uniform(-20, 20), rng.uniform(0.5, 5), size=length) for _ in range(nets)
    ]
    windows = [el.build_rolling_windows(x, cfg, calendar) for x in series]
    B = len(windows[0])
    sizes = {
        "divides": [k for k in range(1, B + 1) if B % k == 0],
        "remainder": [k for k in range(2, B) if B % k],
        "exceeds": [B + 1, B + 7],
    }[batching]
    if not sizes:  # B <= 2: every batch size up to B divides it
        return
    arch = el.ForecasterArch(hidden_sizes=tuple(hidden), activation=activation)
    loss_cfg = el.AdaptiveLossConfig(rare_weight=0.3, distance=distance)
    train_cfgs = [
        el.TrainConfig(
            epochs=epochs, batch_size=sizes[pick % len(sizes)], learning_rate=0.05,
            final_learning_rate=0.01, seed=seed + 17 * s,
        )
        for s in range(nets)
    ]
    stack = el.forecaster._train_stack(iter(windows), arch, loss_cfg, train_cfgs)
    assert len(stack) == nets
    for x, w, train_cfg, model in zip(series, windows, train_cfgs, stack):
        alone = el.train(w, arch, loss_cfg, train_cfg)
        z, pair = normalized(x)
        theta, history = reference_train(
            el.RollingWindows(*reference_windows(z, cfg, calendar)), arch, loss_cfg, train_cfg
        )
        for ref_theta, ref_history in ((alone.theta, alone.loss_history), (theta, history)):
            assert model.theta.tobytes() == ref_theta.tobytes()
            assert np.array(model.loss_history).tobytes() == np.array(ref_history).tobytes()
        assert (model.shift, model.scale) == (alone.shift, alone.scale) == pair


class TestTrainStack:
    cfg = el.RollingWindowConfig(lookback=8, horizon=3)
    arch = el.ForecasterArch(hidden_sizes=(16,))
    loss_cfg = el.AdaptiveLossConfig(rare_weight=1.0, nonrare_weight=1.0, distance="squared")

    def windows(self, spike=0.0, length=60):
        """A smooth series; a spike of ``spike`` at day 30 makes it diverge."""
        x = 10.0 + np.sin(np.arange(length) / 3.0)
        x[30] += spike
        return el.build_rolling_windows(x, self.cfg)

    def train_cfgs(self, n, **fields):
        base = dict(epochs=30, batch_size=8, learning_rate=0.01)
        return [el.TrainConfig(**{**base, **fields}, seed=s) for s in range(n)]

    def divergence(self, windows, train_cfgs):
        with pytest.raises(TrainingDivergedError) as info, np.errstate(all="ignore"):
            el.forecaster._train_stack(windows, self.arch, self.loss_cfg, train_cfgs)
        return info.value

    def test_spikes_diverge_at_different_epochs_alone(self):
        """The data the divergence tests stack: a smooth series trains, a
        spike of 90 diverges at epoch 1 and one of 1e4 at epoch 0."""
        [cfg] = self.train_cfgs(1)
        el.train(self.windows(), self.arch, self.loss_cfg, cfg)
        assert self.divergence([self.windows(90.0)], [cfg]).epoch == 1
        assert self.divergence([self.windows(1e4)], [cfg]).epoch == 0

    def test_divergence_names_the_lowest_net_at_the_first_bad_step(self):
        cfgs = self.train_cfgs(4)
        spikes = [0.0, 90.0, 0.0, 90.0]
        err = self.divergence([self.windows(s) for s in spikes], cfgs)
        alone = self.divergence([self.windows(90.0)], [cfgs[1]])
        assert (err.net, err.epoch) == (1, alone.epoch)
        assert f"at epoch {alone.epoch} for net 1:" in str(err)
        # net 3 goes bad at an earlier step than net 1, so it is the one named
        spikes = [0.0, 90.0, 0.0, 1e4]
        err = self.divergence([self.windows(s) for s in spikes], cfgs)
        alone = self.divergence([self.windows(1e4)], [cfgs[3]])
        assert (err.net, err.epoch) == (3, alone.epoch)

    @pytest.mark.parametrize(
        "fields",
        [dict(epochs=31), dict(batch_size=9), dict(learning_rate=0.02),
         dict(final_learning_rate=0.001)],
    )
    def test_configs_may_differ_in_seed_only(self, fields):
        cfgs = self.train_cfgs(3)
        cfgs[2] = replace(cfgs[2], **fields)
        with pytest.raises(ValidationError, match="net 2 of a training stack differs"):
            el.forecaster._train_stack(
                [self.windows()] * 3, self.arch, self.loss_cfg, cfgs
            )

    @pytest.mark.parametrize(
        "stack, match",
        [
            (lambda w: [w, w[1:]], "net 1 of a training stack of 2 has windows"),
            (lambda w: [w, w, w], "net 2 of a training stack of 2 has windows"),
            (lambda w: [w], "a training stack of 2 nets got 1 windows"),
            (lambda w: [w, el.build_rolling_windows(np.arange(60.0), el.RollingWindowConfig(8, 4))],
             "net 1 of a training stack of 2 has windows"),
        ],
        ids=["rows", "too-many", "too-few", "widths"],
    )
    def test_mismatched_windows_rejected(self, stack, match):
        with pytest.raises(ValidationError, match=match):
            el.forecaster._train_stack(
                stack(self.windows()), self.arch, self.loss_cfg, self.train_cfgs(2)
            )

    def test_empty_stack_rejected(self):
        with pytest.raises(ValidationError, match="at least one net"):
            el.forecaster._train_stack([], self.arch, self.loss_cfg, [])


def hand_stacked(series_list, cfg, calendar):
    """Every series' windows, each series normalized by its own (shift,
    scale) and by nothing else, concatenated; returns the stack and the
    per-series pairs."""
    parts, norms = [], []
    for x in series_list:
        z, pair = normalized(x)
        parts.append(reference_windows(z, cfg, calendar))
        norms.append(pair)
    return el.RollingWindows(*(np.concatenate(cols) for cols in zip(*parts))), norms


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    lengths=st.lists(st.integers(min_value=12, max_value=50), min_size=1, max_size=4),
    stride=st.integers(min_value=1, max_value=3),
    event_t0=st.integers(min_value=1, max_value=40),
    epochs=st.integers(min_value=1, max_value=9),
    batch_size=st.integers(min_value=1, max_value=40),
)
def test_train_pooled_is_train_on_the_hand_stacked_windows(
    seed, lengths, stride, event_t0, epochs, batch_size
):
    rng = np.random.default_rng(seed)
    series_list = [rng.normal(rng.uniform(-50, 50), rng.uniform(0.5, 9), size=n) for n in lengths]
    cfg = el.RollingWindowConfig(lookback=7, horizon=4, stride=stride)
    calendar = el.EventCalendar({"e": [el.EventWindow(t0=event_t0, d=2)]})
    arch = el.ForecasterArch(hidden_sizes=(5,), activation="tanh")
    loss_cfg = el.AdaptiveLossConfig(rare_weight=0.2)
    train_cfg = el.TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.02, seed=seed)
    models = el.train_pooled(series_list, cfg, calendar, arch, loss_cfg, train_cfg)

    stack, norms = hand_stacked(series_list, cfg, calendar)
    pooled_epochs = -(-epochs // len(series_list))
    theta, history = reference_train(
        stack, arch, loss_cfg, replace(train_cfg, epochs=pooled_epochs)
    )
    assert len(models) == len(series_list)
    for model, pair in zip(models, norms):
        assert model.theta.tobytes() == theta.tobytes()
        assert model.loss_history == history
        assert len(model.loss_history) == pooled_epochs
        assert (model.shift, model.scale) == pair


@pytest.mark.parametrize("stride", [1, 3])
def test_a_pool_of_one_is_train(stride):
    """``train_pooled`` on one series gives the parameter bytes, loss
    history and (shift, scale) of ``train`` on that series' windows."""
    x = np.random.default_rng(6).normal(30.0, 4.0, size=90)
    cfg = el.RollingWindowConfig(lookback=10, horizon=4, stride=stride)
    calendar = el.EventCalendar({"e": [el.EventWindow(t0=40, d=3)]})
    arch = el.ForecasterArch(hidden_sizes=(6,))
    loss_cfg = el.AdaptiveLossConfig(rare_weight=0.2)
    train_cfg = el.TrainConfig(epochs=5, batch_size=8, seed=4)
    [pooled] = el.train_pooled([x], cfg, calendar, arch, loss_cfg, train_cfg)
    alone = el.train(el.build_rolling_windows(x, cfg, calendar), arch, loss_cfg, train_cfg)
    assert pooled.theta.tobytes() == alone.theta.tobytes()
    assert pooled.loss_history == alone.loss_history
    assert (pooled.shift, pooled.scale) == (alone.shift, alone.scale)


class TestTrainPooled:
    def series_list(self):
        t = np.arange(200)
        rng = np.random.default_rng(11)
        out = []
        for level, amp in ((20.0, 2.0), (500.0, 60.0), (3.0, 0.4)):
            x = level + amp * np.sin(2 * np.pi * t / 7.0) + rng.normal(0, amp / 10, len(t))
            x[[60, 61, 140, 141]] += 3 * amp
            out.append(x)
        return out

    def test_every_series_forecasts_on_its_own_scale(self):
        cfg = el.RollingWindowConfig(lookback=14, horizon=7)
        calendar = el.EventCalendar(
            {"e": [el.EventWindow(t0=59, d=2), el.EventWindow(t0=139, d=2)]}
        )
        series_list = self.series_list()
        models = el.train_pooled(
            series_list, cfg, calendar, el.ForecasterArch(hidden_sizes=(16,)),
            el.AdaptiveLossConfig(),
            el.TrainConfig(epochs=120, batch_size=16, learning_rate=0.01, seed=3),
        )
        for x, model in zip(series_list, models):
            control = el.insample_forecast(model, x)
            err = np.abs(control[100:130] - x[100:130]).mean()
            assert err < 0.5 * x.std()

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError, match="at least one series"):
            el.train_pooled(
                [], el.RollingWindowConfig(), None, el.ForecasterArch(),
                el.AdaptiveLossConfig(), el.TrainConfig(),
            )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    length=st.integers(min_value=2, max_value=40),
    lookback=st.integers(min_value=1, max_value=6),
    horizon=st.integers(min_value=1, max_value=4),
    stride=st.integers(min_value=1, max_value=3),
    levels=st.sampled_from([1, 2, 3, 5, None]),
    subset=st.booleans(),
)
def test_normalization_is_numpy_on_the_series_values(
    seed, length, lookback, horizon, stride, levels, subset
):
    """The shift and scale are ``np.percentile``'s median and interquartile
    range of the series' values, bit for bit, with values drawn from a few
    levels (ties; one level is a constant series, scale 1.0) or continuous.
    Training records that pair whatever the stride or window subset, which
    cover the values unevenly or not at all."""
    if length < lookback + horizon:
        return
    rng = np.random.default_rng(seed)
    if levels is None:
        x = rng.normal(rng.uniform(-50, 50), rng.uniform(0.1, 9), size=length)
    else:
        x = rng.uniform(-20, 20) + 0.25 * rng.integers(0, levels, size=length)
    got = el.forecaster._normalization(x)
    q25, q50, q75 = np.percentile(x, [25, 50, 75])
    want = (q50, q75 - q25 if q75 > q25 else 1.0)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if levels == 1:
        assert got[1] == 1.0
    windows = el.build_rolling_windows(
        x, el.RollingWindowConfig(lookback=lookback, horizon=horizon, stride=stride)
    )
    if subset:
        windows = windows[np.sort(rng.choice(len(windows), rng.integers(1, len(windows) + 1)))]
    model = el.train(
        windows, el.ForecasterArch(hidden_sizes=(2,)), el.AdaptiveLossConfig(),
        el.TrainConfig(epochs=1, batch_size=8, seed=seed),
    )
    assert (model.shift, model.scale) == got


def test_normalization_holds_one_copy_of_the_values():
    """Traced peak of ``_normalization`` on 200 series x 1,460 days laid end
    to end stays under twice the values' bytes: ``np.percentile``'s one
    partitioned copy fits, per-value index arrays (8 bytes each) do not."""
    import tracemalloc

    values = np.random.default_rng(5).normal(100.0, 5.0, size=200 * 1460)
    el.forecaster._normalization(values)  # imports and caches are not its cost
    tracemalloc.start()
    try:
        el.forecaster._normalization(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * values.nbytes, (peak, values.nbytes)


def test_train_pooled_holds_the_series_not_their_windows():
    """Traced peak of ``train_pooled`` (lookback 90, horizon 30, one epoch)
    against the float64 bytes of the block of series, in two cases.
    20 x 1,000 days: under 16 times the 0.16 MB block, where the pool's
    17,620 windows of 120 float64 values would be 17 MB.  200 x 1,460 days:
    under 2 times the 2.3 MB block, which the pool's one float32 copy of the
    normalized series, its int32 starts and the epoch's order fit, and a
    second, float64 copy of the pool (5.2 times), or a held arange and a
    float32 loss weight per day beside them (2.7 times), does not."""
    import tracemalloc

    calendar = el.EventCalendar({"e": [el.EventWindow(t0=200, d=5), el.EventWindow(t0=565, d=5)]})
    for shape, hidden, batch_size, bound in [
        ((20, 1000), (64, 64), 64, 16),
        ((200, 1460), (8,), 256, 2),
    ]:
        x = np.random.default_rng(3).normal(100.0, 5.0, size=shape)
        args = (
            list(x), el.RollingWindowConfig(lookback=90, horizon=30), calendar,
            el.ForecasterArch(hidden_sizes=hidden), el.AdaptiveLossConfig(),
            el.TrainConfig(epochs=1, batch_size=batch_size, seed=0),
        )
        el.train_pooled(*args)  # imports and caches are not training's cost
        tracemalloc.start()
        try:
            el.train_pooled(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * x.nbytes, (shape, peak, x.nbytes)


def test_train_allocates_no_epoch_copy_of_the_windows():
    """Peak traced memory of ``train`` stays under twice its windows' bytes:
    the normalized copies fit, a permuted copy of them per epoch does not."""
    import tracemalloc

    x = np.random.default_rng(2).normal(100.0, 5.0, size=3000)
    calendar = el.EventCalendar({"e": [el.EventWindow(t0=400, d=5)]})
    windows = el.build_rolling_windows(
        x, el.RollingWindowConfig(lookback=90, horizon=30), calendar
    )
    window_bytes = windows.inputs.nbytes + windows.labels.nbytes + windows.rare_mask.nbytes
    tracemalloc.start()
    try:
        el.train(windows, el.ForecasterArch(hidden_sizes=(8,)), el.AdaptiveLossConfig(),
                 el.TrainConfig(epochs=2, batch_size=64, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * window_bytes, (peak, window_bytes)


def test_trained_parameters_are_float32_values(tmp_path):
    """``train`` and ``train_pooled`` train in float32: the stored float64
    parameters survive a float32 round trip bit for bit, and a saved model
    loads back with the same parameter bytes and predictions."""
    model, _, x, cfg = quick_train()
    pooled = el.train_pooled(
        [x, 40.0 + 3.0 * x], cfg, el.EventCalendar({"e": [el.EventWindow(t0=20, d=3)]}),
        el.ForecasterArch(hidden_sizes=(8,)), el.AdaptiveLossConfig(),
        el.TrainConfig(epochs=10, batch_size=16, seed=0),
    )
    for i, m in enumerate([model, *pooled]):
        assert m.theta.dtype == np.float64
        assert m.theta.astype(np.float32).astype(np.float64).tobytes() == m.theta.tobytes()
        path = tmp_path / f"model{i}.json"
        el.save_model(m, path)
        loaded = el.load_model(path)
        assert loaded.theta.tobytes() == m.theta.tobytes()
        X = np.lib.stride_tricks.sliding_window_view(x, cfg.lookback)
        assert loaded.predict(X).tobytes() == m.predict(X).tobytes()


class TestTrainingLossInvariance:
    """The loss a trained model's forecasts get, with training's fixed weights."""

    @staticmethod
    def loss(model, windows, loss_cfg):
        # the net on the normalized values the windows hold
        net = replace(model, shift=0.0, scale=1.0)
        weighted, _ = _weighted_error(
            net.predict(windows.inputs) - windows.labels,
            fixed_weights(windows.rare_mask, loss_cfg),
            loss_cfg.distance,
        )
        return weighted.sum(axis=1).mean()

    def test_rare_labels_are_invisible_at_zero_weight(self):
        model, samples, x, cfg = quick_train()
        calendar = el.EventCalendar({"e": [el.EventWindow(t0=20, d=3)]})
        masked = el.build_rolling_windows(x, cfg, calendar)
        loss_cfg = el.AdaptiveLossConfig(rare_weight=0.0, nonrare_weight=1.0)
        base = self.loss(model, masked, loss_cfg)
        labels = masked.labels.copy()
        labels[masked.rare_mask] += 1e6
        perturbed = el.RollingWindows(masked.inputs, labels, masked.rare_mask)
        assert self.loss(model, perturbed, loss_cfg) == base

    def test_nonrare_labels_do_move_the_loss(self):
        model, samples, x, cfg = quick_train()
        loss_cfg = el.AdaptiveLossConfig(rare_weight=0.0, nonrare_weight=1.0)
        base = self.loss(model, samples, loss_cfg)
        bumped = el.RollingWindows(samples.inputs, samples.labels + 1.0, samples.rare_mask)
        assert self.loss(model, bumped, loss_cfg) != base


class TestInsampleForecast:
    def test_overlap_mean(self):
        model = constant_model([4.0, 4.2])
        x = np.zeros(4)
        ctrl = el.insample_forecast(model, x)
        assert ctrl[2] == pytest.approx(4.1)

    def test_single_cover_counts_one(self):
        model = constant_model([4.0, 4.2])
        x = np.zeros(4)
        ctrl = el.insample_forecast(model, x)
        assert ctrl[1] == pytest.approx(4.0)
        assert ctrl[3] == pytest.approx(4.2)

    def test_lookback_prefix_unsupported(self):
        model = constant_model([1.0], lookback=3)
        x = np.zeros(8)
        ctrl = el.insample_forecast(model, x)
        assert np.isnan(ctrl[:3]).all()

    def test_unit_horizon_never_overlaps(self):
        model = constant_model([1.0], lookback=2)
        x = np.zeros(10)
        ctrl = el.insample_forecast(model, x)
        assert np.isnan(ctrl[:2]).all()
        assert ctrl[2:].tolist() == [1.0] * 8

    def test_median_aggregation(self):
        model = constant_model([1.0, 2.0, 6.0])
        x = np.zeros(10)
        mean_ctrl = el.insample_forecast(model, x)
        med_ctrl = el.insample_forecast(model, x, aggregate="median")
        # interior indices see {1, 2, 6}: mean 3, median 2
        assert mean_ctrl[4] == pytest.approx(3.0)
        assert med_ctrl[4] == pytest.approx(2.0)

    def test_unknown_aggregate_rejected(self):
        model = constant_model([1.0])
        with pytest.raises(ValidationError):
            el.insample_forecast(model, np.zeros(5), aggregate="mode")

    def test_stride_past_the_horizon_rejected(self):
        model = constant_model([1.0, 2.0])
        assert not np.isnan(el.insample_forecast(model, np.zeros(10), 2)[1:]).any()
        with pytest.raises(ValidationError, match=r"stride 3 exceeds the model horizon 2"):
            el.insample_forecast(model, np.zeros(10), 3)
        with pytest.raises(ValidationError, match=r"stride must be >= 1, got 0"):
            el.insample_forecast(model, np.zeros(10), 0)

    def test_non_finite_forecast_rejected(self):
        # finite weights whose products overflow to inf in the forward pass
        layer_sizes = (2, 2, 1)
        model = el.TrainedForecaster(
            layer_sizes=layer_sizes,
            theta=np.full(el.parameter_count(layer_sizes), 1e200),
            activation="relu",
            shift=0.0,
            scale=1.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=r"index 2 is not finite"):
                el.insample_forecast(model, np.ones(6))


class TestExtractEffect:
    def test_hand_subtraction(self):
        ctrl = np.full(6, np.nan)
        ctrl[3] = 4.1
        x = np.zeros(6)
        x[3] = 6.1
        est = el.extract_effect(ctrl, x, el.EventWindow(t0=2, d=1))
        assert est[0] == pytest.approx(2.0)

    def test_perfect_reconstruction_gives_zero(self):
        x = np.arange(8.0)
        est = el.extract_effect(x.copy(), x, el.EventWindow(t0=3, d=2))
        assert est.tolist() == [0.0, 0.0]

    def test_uncovered_window_lists_missing_indices(self):
        ctrl = np.full(8, np.nan)
        ctrl[4] = 1.0
        with pytest.raises(ValidationError, match=r"\[5\]"):
            el.extract_effect(ctrl, np.zeros(8), el.EventWindow(t0=3, d=2))

    def test_control_must_match_the_series_length(self):
        with pytest.raises(ValidationError, match=r"control shape \(7,\)"):
            el.extract_effect(np.zeros(7), np.zeros(8), el.EventWindow(t0=3, d=2))


class TestGradientCheck:
    def test_smooth_model_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        layer_sizes = (6, 8, 3)
        model = el.TrainedForecaster(
            layer_sizes=layer_sizes,
            theta=rng.normal(0, 0.5, size=el.parameter_count(layer_sizes)),
            activation="tanh",
            shift=0.0,
            scale=1.0,
        )
        sample = el.RollingWindows(
            inputs=rng.normal(size=6)[None, :],
            labels=rng.normal(size=3)[None, :],
            rare_mask=np.array([[True, False, False]]),
        )
        cfg = el.AdaptiveLossConfig(
            rare_weight=0.3, nonrare_weight=1.0, distance="squared"
        )
        assert el.gradient_check(model, sample, cfg) < 1e-4

    def test_relu_and_absolute_distance_with_kink_filter(self):
        rng = np.random.default_rng(1)
        layer_sizes = (5, 7, 2)
        model = el.TrainedForecaster(
            layer_sizes=layer_sizes,
            theta=rng.normal(0, 0.5, size=el.parameter_count(layer_sizes)),
            activation="relu",
            shift=0.0,
            scale=1.0,
        )
        sample = el.RollingWindows(
            inputs=rng.normal(size=5)[None, :],
            labels=rng.normal(size=2)[None, :],
            rare_mask=np.array([[False, True]]),
        )
        cfg = el.AdaptiveLossConfig(rare_weight=0.5, nonrare_weight=1.0)
        assert el.gradient_check(model, sample, cfg) < 1e-4

    def test_zero_gradient_at_perfect_fit(self):
        model = constant_model([2.0, 3.0], lookback=2)
        sample = el.RollingWindows(
            inputs=np.zeros((1, 2)),
            labels=np.array([[2.0, 3.0]]),
            rare_mask=np.array([[False, False]]),
        )
        cfg = el.AdaptiveLossConfig(
            rare_weight=1.0, nonrare_weight=1.0, distance="squared"
        )
        assert el.gradient_check(model, sample, cfg) < 1e-6

    def test_epsilon_must_be_positive(self):
        model = constant_model([1.0])
        sample = el.RollingWindows(
            inputs=np.zeros((1, 1)),
            labels=np.zeros((1, 1)),
            rare_mask=np.array([[False]]),
        )
        with pytest.raises(ValidationError):
            el.gradient_check(model, sample, el.AdaptiveLossConfig(), epsilon=0.0)


class TestModelSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        model, _, _, _ = quick_train()
        path = tmp_path / "model.json"
        el.save_model(model, path)
        loaded = el.load_model(path)
        assert np.array_equal(loaded.theta, model.theta)
        assert loaded.layer_sizes == model.layer_sizes
        assert loaded.shift == model.shift
        assert loaded.scale == model.scale
        assert loaded.activation == model.activation

    def test_round_trip_predictions_identical(self, tmp_path):
        model, _, x, cfg = quick_train()
        path = tmp_path / "model.json"
        el.save_model(model, path)
        loaded = el.load_model(path)
        X = np.lib.stride_tricks.sliding_window_view(x, cfg.lookback)
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_parameters_are_written_in_their_shortest_float32_form(self, tmp_path):
        import json

        model, _, _, _ = quick_train()
        path = tmp_path / "model.json"
        el.save_model(model, path)
        written = json.loads(path.read_text())["theta"]
        assert [repr(v) for v in written] == [str(v) for v in model.theta.astype(np.float32)]

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        model, _, _, _ = quick_train()
        path = tmp_path / "model.json"
        el.save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="format version"):
            el.load_model(path)


    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "model file not found"),
            ("{not json", "not a model JSON file"),
            ('{"format_version": 2, "theta": [1.0]}', r"KeyError\('layer_sizes'\)"),
            (
                '{"format_version": 2, "layer_sizes": [1, 1, 1], "theta": [0, 0, 0, 0], '
                '"activation": "relu", "shift": "abc", "scale": 1.0}',
                "could not convert string to float",
            ),
            ('{"format_version": 999}', "unsupported model format version 999"),
            ('{"format_version": 1}', r"unsupported model format version 1 \(expected 2\)"),
            (
                '{"format_version": 2, "layer_sizes": [1, 1, 1], "theta": [0, 0, 0, 0], '
                '"activation": "relu", "shift": Infinity, "scale": NaN}',
                "normalization shift must be finite",
            ),
            (
                '{"format_version": 2, "layer_sizes": [1, 1, 1], "theta": [0, 0, 0, 0], '
                '"activation": "relu", "shift": 0.0, "scale": NaN}',
                "normalization scale must be finite and > 0",
            ),
            (
                '{"format_version": 2, "layer_sizes": [3.7, 2], '
                '"theta": [0, 0, 0, 0, 0, 0, 0, 0], "activation": "relu", "shift": 0.0, '
                '"scale": 1.0}',
                r"bad layer sizes \(3\.7, 2\)",
            ),
        ],
        ids=["missing-file", "malformed-json", "missing-key", "bad-entry", "version",
             "version-1", "infinite-shift", "nan-scale", "fractional-layer-size"],
    )
    def test_bad_file_fails_naming_the_path(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=message) as info:
            el.load_model(path)
        assert str(path) in str(info.value)


class TestTrainedForecaster:
    def test_parameter_count_enforced(self):
        with pytest.raises(ValidationError):
            el.TrainedForecaster(
                layer_sizes=(2, 3, 1),
                theta=np.zeros(5),
                activation="relu",
                shift=0.0,
                scale=1.0,
            )

    def test_parameter_count_formula(self):
        assert el.parameter_count((2, 3, 1)) == (2 + 1) * 3 + (3 + 1) * 1

    def test_scale_must_be_positive(self):
        with pytest.raises(ValidationError):
            el.TrainedForecaster(
                layer_sizes=(1, 1, 1),
                theta=np.zeros(el.parameter_count((1, 1, 1))),
                activation="relu",
                shift=0.0,
                scale=0.0,
            )

    @pytest.mark.parametrize(
        "layer_sizes, shift, scale, message",
        [
            ((1, 1, 1), math.inf, 1.0, "shift must be finite, got inf"),
            ((1, 1, 1), math.nan, 1.0, "shift must be finite, got nan"),
            ((1, 1, 1), 0.0, math.nan, "scale must be finite and > 0, got nan"),
            ((1, 1, 1), 0.0, math.inf, "scale must be finite and > 0, got inf"),
            ((3.7, 2), 0.0, 1.0, r"bad layer sizes \(3\.7, 2\)"),
            ((1, 1.5, 1), 0.0, 1.0, r"bad layer sizes \(1, 1\.5, 1\)"),
        ],
    )
    def test_normalization_and_layout_must_be_well_formed(
        self, layer_sizes, shift, scale, message
    ):
        with pytest.raises(ValidationError, match=message):
            el.TrainedForecaster(
                layer_sizes=layer_sizes,
                theta=np.zeros(el.parameter_count(tuple(int(s) for s in layer_sizes))),
                activation="relu",
                shift=shift,
                scale=scale,
            )

    def test_integral_float_layer_sizes_are_kept_as_ints(self):
        model = el.TrainedForecaster(
            layer_sizes=(2.0, 1),
            theta=np.zeros(el.parameter_count((2, 1))),
            activation="relu",
            shift=0.0,
            scale=1.0,
        )
        assert model.layer_sizes == (2, 1)
        assert all(type(s) is int for s in model.layer_sizes)

    def test_predict_denormalizes(self):
        # zero weights predict the shift itself whatever the input
        layer_sizes = (1, 1, 1)
        model = el.TrainedForecaster(
            layer_sizes=layer_sizes,
            theta=np.zeros(el.parameter_count(layer_sizes)),
            activation="relu",
            shift=7.0,
            scale=3.0,
        )
        assert model.predict(np.array([[123.0]]))[0, 0] == 7.0
