"""Shared fixtures, including the synthetic retail-like panel used by the
end-to-end comparison tests."""

from __future__ import annotations

import datetime

import numpy as np
import pytest

import eventlift as el
from eventlift import dataio

EVAL_SEED = 42
EVAL_TRAIN_SEED = 11


def make_retail_panel(
    seed: int = EVAL_SEED,
    n_series: int = 6,
    years: int = 4,
    event_day: int = 300,
    d: int = 5,
):
    """Daily panel with growth, weekly seasonality, AR(1) noise, and a 5-day
    annual event whose additive effect scales with the series level.

    Returns (panel, calendar, true_effects) where true_effects[i] is series
    i's injected effect on the last (target) occurrence.
    """
    rng = np.random.default_rng(seed)
    T = years * 365
    t = np.arange(T)
    shape = np.array([0.4, 0.7, 1.0, 0.7, 0.4])
    weekly_pattern = np.array([-0.06, -0.02, 0.0, 0.02, 0.05, 0.08, -0.07])
    rows = []
    true_effects = []
    for _ in range(n_series):
        base = rng.uniform(40.0, 120.0)
        growth = rng.uniform(0.12, 0.18)
        level = base * (1.0 + growth) ** (t / 365.0)
        weekly = weekly_pattern[t % 7]
        eps = rng.normal(0, 0.012, size=T)
        noise = np.empty(T)
        noise[0] = eps[0]
        for k in range(1, T):
            noise[k] = 0.5 * noise[k - 1] + eps[k]
        y = level * (1.0 + weekly + noise)
        amp = rng.uniform(0.4, 0.6)
        effect_last = None
        for year in range(years):
            start = year * 365 + event_day
            effect = amp * shape * level[start : start + d]
            y[start : start + d] += effect
            if year == years - 1:
                effect_last = effect
        rows.append(y)
        true_effects.append(effect_last)
    panel = el.PanelSeries(np.stack(rows))
    windows = [
        el.EventWindow(t0=year * 365 + event_day - 1, d=d) for year in range(years)
    ]
    calendar = el.EventCalendar({"holiday": windows})
    return panel, calendar, np.stack(true_effects)


@pytest.fixture(scope="session")
def retail_data():
    return make_retail_panel()


@pytest.fixture(scope="session")
def retail_eval_kwargs():
    """The ``evaluate_panel`` settings of the end-to-end tests."""
    return dict(
        fw_config=el.RollingWindowConfig(lookback=90, horizon=30, stride=1),
        arch=el.ForecasterArch(hidden_sizes=(64, 64), activation="relu"),
        loss_cfg=el.AdaptiveLossConfig(rare_weight=0.1, nonrare_weight=1.0),
        train_cfg=el.TrainConfig(
            epochs=150,
            batch_size=64,
            learning_rate=0.03,
            final_learning_rate=0.003,
            seed=EVAL_TRAIN_SEED,
        ),
        periods=[7, 365],
    )


@pytest.fixture(scope="session")
def retail_report(retail_data, retail_eval_kwargs):
    """One full evaluation run shared by the end-to-end tests."""
    import time

    panel, calendar, _ = retail_data
    started = time.monotonic()
    report = el.evaluate_panel(panel, calendar, **retail_eval_kwargs)
    report.elapsed_seconds = time.monotonic() - started
    return report


@pytest.fixture(scope="session")
def tiny_files(tmp_path_factory):
    """Two-series panel with a twice-occurring event, written to CSV."""
    out = tmp_path_factory.mktemp("tiny")
    rng = np.random.default_rng(9)
    t = np.arange(230)
    rows = []
    for base in (50.0, 80.0):
        y = base * (1.0 + 0.02 * np.sin(2 * np.pi * t / 7.0)) + rng.normal(
            0, 0.3, size=len(t)
        )
        y[60:63] += 0.2 * base
        y[160:163] += 0.2 * base
        rows.append(y)
    start = datetime.date(2013, 1, 1)
    dates = tuple(start + datetime.timedelta(days=i) for i in range(len(t)))
    panel = el.PanelSeries(np.stack(rows), time_index=dates)
    dataio.write_panel_csv(out / "panel.csv", panel)
    entries = [
        dataio.CalendarEntry("promo", dates[60], dates[62]),
        dataio.CalendarEntry("promo", dates[160], dates[162]),
    ]
    dataio.write_calendar_csv(out / "calendar.csv", entries)
    return out
