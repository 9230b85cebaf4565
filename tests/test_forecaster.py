import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import TrainingDivergedError, ValidationError


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


class TestRollingWindows:
    def test_window_count_and_indices(self):
        x = np.arange(10.0)
        cfg = el.RollingWindowConfig(lookback=4, horizon=2, stride=1)
        windows = el.build_rolling_windows(x, cfg)
        assert len(windows) == 5
        assert windows.inputs[0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert windows.labels[0].tolist() == [4.0, 5.0]
        assert windows.labels[0, 0] == 4
        assert windows.labels[-1].tolist() == [8.0, 9.0]

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
        assert windows[np.array([0, 2])].labels[:, 0].tolist() == [4.0, 6.0]

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
    label_starts = windows.labels[:, 0]
    for i in range(len(windows)):
        assert label_starts[i] == i * stride + lookback
        assert windows.inputs[i, 0] == i * stride
    if stride == 1:
        covered = set()
        for label_start in label_starts.astype(int):
            covered.update(range(label_start, label_start + horizon))
        assert covered == set(range(lookback, length))


def reference_windows(x, cfg, calendar):
    """Per-window construction that ``build_rolling_windows`` replaced: one
    row per start, a calendar set lookup per label step, then stacking."""
    M, H = cfg.lookback, cfg.horizon
    event_idx = calendar.window_indices()
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
    for got, want in zip(
        (windows.inputs, windows.labels, windows.rare_mask),
        reference_windows(x, cfg, calendar),
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


class TestAdaptiveLoss:
    def test_hand_computed(self):
        cfg = el.AdaptiveLossConfig(rare_weight=0.5, nonrare_weight=1.0)
        loss, per_step = el.adaptive_loss(
            np.zeros(3), np.array([2.0, 1.0, 1.0]), np.array([True, False, False]), cfg
        )
        assert loss == 3.0
        assert per_step.tolist() == [2.0, 1.0, 1.0]

    def test_perfect_prediction_is_free(self):
        cfg = el.AdaptiveLossConfig(rare_weight=3.0, nonrare_weight=7.0)
        label = np.array([1.0, -2.0])
        loss, _ = el.adaptive_loss(label, label, np.array([True, False]), cfg)
        assert loss == 0.0

    def test_unit_weights_give_total_distance(self):
        cfg = el.AdaptiveLossConfig(rare_weight=1.0, nonrare_weight=1.0)
        pred = np.array([1.0, 2.0, 3.0])
        label = np.array([0.0, 4.0, 3.5])
        loss, _ = el.adaptive_loss(pred, label, np.array([True, False, True]), cfg)
        assert loss == pytest.approx(3.5)

    def test_squared_distance(self):
        cfg = el.AdaptiveLossConfig(
            rare_weight=1.0, nonrare_weight=1.0, distance="squared"
        )
        loss, per_step = el.adaptive_loss(
            np.array([0.0, 0.0]), np.array([2.0, -3.0]), np.array([False, False]), cfg
        )
        assert loss == 13.0
        assert per_step.tolist() == [4.0, 9.0]

    def test_length_mismatch_rejected(self):
        cfg = el.AdaptiveLossConfig()
        with pytest.raises(ValidationError):
            el.adaptive_loss(np.zeros(3), np.zeros(2), np.zeros(3, dtype=bool), cfg)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            el.AdaptiveLossConfig(rare_weight=-0.1)
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
    finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
    pred = np.array(data.draw(st.lists(finite, min_size=h, max_size=h)))
    label = np.array(data.draw(st.lists(finite, min_size=h, max_size=h)))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=h, max_size=h)))
    cfg = el.AdaptiveLossConfig(rare_weight=w1, nonrare_weight=w2, distance=distance)
    loss, per_step = el.adaptive_loss(pred, label, mask, cfg)
    assert loss == w1 * per_step[mask].sum() + w2 * per_step[~mask].sum()


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
    low, _ = el.adaptive_loss(
        pred, label, mask, el.AdaptiveLossConfig(rare_weight=w1_low)
    )
    high, _ = el.adaptive_loss(
        pred, label, mask, el.AdaptiveLossConfig(rare_weight=w1_low + bump)
    )
    assert high >= low


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
        preds = model.predict(samples.inputs)
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
        assert err.epoch == 3 and np.isnan(err.loss)
        assert str(err) == "training diverged at epoch 3: loss=nan"

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

    def test_residual_inverse_adaptation_trains(self):
        rng = np.random.default_rng(2)
        x = rng.normal(10.0, 1.0, size=60)
        calendar = el.EventCalendar({"e": [el.EventWindow(t0=30, d=3)]})
        cfg = el.RollingWindowConfig(lookback=8, horizon=4, stride=1)
        samples = el.build_rolling_windows(x, cfg, calendar)
        model = el.train(
            samples,
            el.ForecasterArch(hidden_sizes=(8,), activation="relu"),
            el.AdaptiveLossConfig(adaptation="residual_inverse"),
            el.TrainConfig(epochs=40, batch_size=16, learning_rate=0.01, seed=1),
        )
        assert np.all(np.isfinite(model.theta))


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


def _ref_rare_weights(theta, layer_sizes, activation, X, Y, mask, cfg):
    B = X.shape[0]
    base = np.full(B, cfg.rare_weight)
    if cfg.adaptation != "residual_inverse":
        return base
    acts, _ = _ref_forward(theta, layer_sizes, activation, X)
    eta, _ = _ref_eta_and_grad(acts[-1] - Y, cfg.distance)
    rare_resid = (eta * mask).sum(axis=1)
    has_rare = mask.any(axis=1)
    if not has_rare.any():
        return base
    raw = 1.0 / (el.forecaster.ADAPTATION_FLOOR + rare_resid)
    out = base.copy()
    out[has_rare] = cfg.rare_weight * raw[has_rare] / raw[has_rare].mean()
    return out


def reference_train(windows, arch, loss_cfg, train_cfg):
    """The allocating training loop that ``train`` replaced: per-step row
    gathers, fresh activations and gradients, and a new theta per step.
    Returns (theta, loss_history)."""
    mask = windows.rare_mask
    shift, scale = el.forecaster._normalization(windows.inputs, windows.labels)
    X = (windows.inputs - shift) / scale
    Y = (windows.labels - shift) / scale
    layer_sizes = (X.shape[1], *arch.hidden_sizes, Y.shape[1])

    rng = np.random.default_rng(train_cfg.seed)
    parts = []
    for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fi)
        parts.append(rng.uniform(-bound, bound, size=fi * fo))
        parts.append(rng.uniform(-bound, bound, size=fo))
    theta = np.concatenate(parts)

    B = X.shape[0]
    lr0 = train_cfg.learning_rate
    lr1 = train_cfg.final_learning_rate if train_cfg.final_learning_rate is not None else lr0
    history = []
    for epoch in range(train_cfg.epochs):
        frac = epoch / max(train_cfg.epochs - 1, 1)
        lr = lr0 + (lr1 - lr0) * frac
        w1 = _ref_rare_weights(theta, layer_sizes, arch.activation, X, Y, mask, loss_cfg)
        perm = rng.permutation(B)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, B, train_cfg.batch_size):
            idx = perm[start : start + train_cfg.batch_size]
            acts, pres = _ref_forward(theta, layer_sizes, arch.activation, X[idx])
            diff = acts[-1] - Y[idx]
            eta, deta = _ref_eta_and_grad(diff, loss_cfg.distance)
            wv = np.where(mask[idx], w1[idx][:, None], loss_cfg.nonrare_weight)
            batch_loss = float((wv * eta).sum(axis=1).mean())
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, batch_loss)
            grad = _ref_backward(
                theta, layer_sizes, arch.activation, acts, pres, wv * deta / len(idx)
            )
            theta = theta - lr * grad
            epoch_loss += batch_loss
            n_batches += 1
        history.append(epoch_loss / n_batches)
    return theta, tuple(history)


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
    adaptation=st.sampled_from(["fixed", "residual_inverse"]),
    epochs=st.integers(min_value=1, max_value=4),
    batching=st.sampled_from(["divides", "remainder", "exceeds"]),
    pick=st.integers(min_value=0, max_value=6),
)
def test_train_matches_the_allocating_reference_bit_for_bit(
    seed, length, lookback, horizon, event_t0s, hidden, activation, distance,
    adaptation, epochs, batching, pick,
):
    rng = np.random.default_rng(seed)
    x = rng.normal(10.0, 3.0, size=length)
    calendar = el.EventCalendar(
        {f"e{j}": [el.EventWindow(t0=t0, d=2)] for j, t0 in enumerate(event_t0s)}
    )
    windows = el.build_rolling_windows(
        x, el.RollingWindowConfig(lookback=lookback, horizon=horizon), calendar
    )
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
    loss_cfg = el.AdaptiveLossConfig(
        rare_weight=0.3, distance=distance, adaptation=adaptation
    )
    train_cfg = el.TrainConfig(
        epochs=epochs, batch_size=batch_size, learning_rate=0.05,
        final_learning_rate=0.01, seed=seed,
    )
    model = el.train(windows, arch, loss_cfg, train_cfg)
    theta, history = reference_train(windows, arch, loss_cfg, train_cfg)
    assert model.theta.tobytes() == theta.tobytes()
    assert np.array(model.loss_history).tobytes() == np.array(history).tobytes()


class TestTrainingLossInvariance:
    def test_rare_labels_are_invisible_at_zero_weight(self):
        model, samples, x, cfg = quick_train()
        calendar = el.EventCalendar({"e": [el.EventWindow(t0=20, d=3)]})
        masked = el.build_rolling_windows(x, cfg, calendar)
        loss_cfg = el.AdaptiveLossConfig(rare_weight=0.0, nonrare_weight=1.0)
        base = el.training_loss(model, masked, loss_cfg)
        labels = masked.labels.copy()
        labels[masked.rare_mask] += 1e6
        perturbed = replace(masked, labels=labels)
        assert el.training_loss(model, perturbed, loss_cfg) == base

    def test_nonrare_labels_do_move_the_loss(self):
        model, samples, x, cfg = quick_train()
        loss_cfg = el.AdaptiveLossConfig(rare_weight=0.0, nonrare_weight=1.0)
        base = el.training_loss(model, samples, loss_cfg)
        bumped = replace(samples, labels=samples.labels + 1.0)
        assert el.training_loss(model, bumped, loss_cfg) != base


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
        model, samples, _, _ = quick_train()
        path = tmp_path / "model.json"
        el.save_model(model, path)
        loaded = el.load_model(path)
        X = samples.inputs
        assert np.array_equal(loaded.predict(X), model.predict(X))

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
            ('{"format_version": 1, "theta": [1.0]}', r"KeyError\('layer_sizes'\)"),
            (
                '{"format_version": 1, "layer_sizes": [1, 1, 1], "theta": [0, 0, 0, 0], '
                '"activation": "relu", "shift": "abc", "scale": 1.0}',
                "could not convert string to float",
            ),
            ('{"format_version": 999}', "unsupported model format version 999"),
        ],
        ids=["missing-file", "malformed-json", "missing-key", "bad-entry", "version"],
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
