"""Panel time series data model and synthetic AR(1) panel generation.

A panel is N independent series observed on a shared, strictly increasing
time index t = 0..T.  Rare-event windows are contiguous index sets
{t0+1, ..., t0+d} described by :class:`EventWindow` and grouped per event
name in :class:`EventCalendar`.

Random generation uses numpy's PCG64 generator seeded with an explicit
64-bit integer, so identical (spec, n_series, horizon, seed) arguments
reproduce the same panel bit for bit on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "ARProcessSpec",
    "PanelSeries",
    "EventWindow",
    "EventCalendar",
    "as_effect_vector",
    "simulate_ar1_panel",
    "inject_treatment",
    "stationary_variance",
]


@dataclass(frozen=True)
class ARProcessSpec:
    """AR(1) process Y_t = phi * Y_{t-1} + eps_t with Gaussian innovations.

    ``initial_mode`` is either ``"stationary_draw"`` (Y_0 drawn from the
    stationary law N(0, sigma^2 / (1 - phi^2))) or ``"fixed"`` (Y_0 set to
    ``initial_value`` in every series).  ``sigma == 0`` is allowed and gives
    the deterministic noise-free recursion.  A stationary draw needs a
    finite stationary variance sigma^2 / (1 - phi^2).
    """

    phi: float
    sigma: float
    initial_mode: str = "stationary_draw"
    initial_value: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.phi) or abs(self.phi) >= 1.0:
            raise ValidationError(f"phi must satisfy |phi| < 1, got {self.phi}")
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")
        if self.initial_mode not in ("stationary_draw", "fixed"):
            raise ValidationError(
                f"initial_mode must be 'stationary_draw' or 'fixed', got {self.initial_mode!r}"
            )
        if not math.isfinite(self.initial_value):
            raise ValidationError("initial_value must be finite")
        if self.initial_mode == "stationary_draw":
            try:
                var0 = stationary_variance(self)
            except OverflowError:
                var0 = math.inf
            if not math.isfinite(var0):
                raise ValidationError(
                    f"stationary variance sigma**2 / (1 - phi**2) must be finite, "
                    f"got sigma={self.sigma}, phi={self.phi}"
                )


@lru_cache(maxsize=8)
def _default_series_ids(n: int) -> tuple[str, ...]:
    """``s000, s001, ...``: unique by construction, shared by every panel of width n."""
    return tuple(f"s{i:03d}" for i in range(n))


@dataclass(eq=False)
class PanelSeries:
    """N series x (T+1) observations on a shared time index.

    ``values`` is an immutable float array of shape (N, T+1).  ``time_index``
    holds strictly increasing labels (integers or dates) of length T+1.
    ``series_ids`` are unique string labels, generated as ``s000, s001, ...``
    when not supplied; panels of the same width share one generated tuple.
    """

    values: np.ndarray
    time_index: tuple = ()
    series_ids: tuple[str, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValidationError(f"panel values must be 2-D, got shape {vals.shape}")
        n, cols = vals.shape
        if n < 1 or cols < 2:
            raise ValidationError(f"panel needs N >= 1 and T >= 1, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("panel values must all be finite")
        if not self.time_index:
            self.time_index = tuple(range(cols))
        else:
            self.time_index = tuple(self.time_index)
        if len(self.time_index) != cols:
            raise ValidationError(
                f"time_index length {len(self.time_index)} != number of columns {cols}"
            )
        if any(a >= b for a, b in zip(self.time_index, self.time_index[1:])):
            raise ValidationError("time_index must be strictly increasing")
        if not self.series_ids:
            self.series_ids = _default_series_ids(n)
        else:
            self.series_ids = tuple(str(s) for s in self.series_ids)
            if len(self.series_ids) != n:
                raise ValidationError(
                    f"series_ids length {len(self.series_ids)} != number of series {n}"
                )
            if len(set(self.series_ids)) != n:
                raise ValidationError("series_ids must be unique")
        vals = vals.copy()
        vals.setflags(write=False)
        self.values = vals

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        """T, the last time index."""
        return self.values.shape[1] - 1

    def series(self, i: int) -> np.ndarray:
        """Read-only view of one series row."""
        return self.values[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PanelSeries):
            return NotImplemented
        return (
            np.array_equal(self.values, other.values)
            and self.time_index == other.time_index
            and self.series_ids == other.series_ids
        )


@dataclass(frozen=True)
class EventWindow:
    """Contiguous rare-event window {t0+1, ..., t0+d}.

    ``t0`` is the last pre-event time index and ``d`` the window length.
    """

    t0: int
    d: int

    def __post_init__(self):
        if self.t0 < 1:
            raise ValidationError(f"window t0 must be >= 1, got {self.t0}")
        if self.d < 1:
            raise ValidationError(f"window size d must be >= 1, got {self.d}")

    @property
    def indices(self) -> range:
        return range(self.t0 + 1, self.t0 + self.d + 1)

    @property
    def columns(self) -> slice:
        """The window block's columns in a (series, time) array."""
        return slice(self.t0 + 1, self.t0 + self.d + 1)

    def check_fits(self, horizon: int) -> None:
        """Validate t0 + d <= T for a panel with last index ``horizon``."""
        if self.t0 + self.d > horizon:
            raise ValidationError(
                f"window [{self.t0 + 1}, {self.t0 + self.d}] exceeds series end {horizon}"
            )


@dataclass
class EventCalendar:
    """Named recurring events, each with non-overlapping, t0-sorted windows."""

    events: dict[str, list[EventWindow]] = field(default_factory=dict)

    def __post_init__(self):
        normalized: dict[str, list[EventWindow]] = {}
        for name, occurrences in self.events.items():
            occ = sorted(occurrences, key=lambda w: w.t0)
            for a, b in zip(occ, occ[1:]):
                if a.t0 + a.d >= b.t0 + 1:
                    raise ValidationError(
                        f"event {name!r}: occurrences at t0={a.t0} and t0={b.t0} overlap"
                    )
            normalized[name] = occ
        self.events = normalized

    def occurrences(self, name: str) -> list[EventWindow]:
        if name not in self.events:
            raise ValidationError(f"unknown event {name!r}")
        return list(self.events[name])

    def all_windows(self) -> list[EventWindow]:
        out: list[EventWindow] = []
        for occ in self.events.values():
            out.extend(occ)
        return sorted(out, key=lambda w: w.t0)

    def window_indices(self) -> frozenset[int]:
        """Set of every time index falling inside any event window."""
        idx: set[int] = set()
        for w in self.all_windows():
            idx.update(w.indices)
        return frozenset(idx)


def as_effect_vector(delta: Sequence[float], d: int | None = None) -> np.ndarray:
    """Validate a per-period effect vector and return it as a float array."""
    vec = np.asarray(delta, dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise ValidationError(f"effect vector must be 1-D and non-empty, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValidationError("effect vector entries must be finite")
    if d is not None and vec.size != d:
        raise ValidationError(f"effect vector length {vec.size} != window size {d}")
    return vec


def stationary_variance(spec: ARProcessSpec) -> float:
    """Stationary variance sigma^2 / (1 - phi^2) of the AR(1) process."""
    return spec.sigma**2 / (1.0 - spec.phi**2)


def simulate_ar1_panel(
    spec: ARProcessSpec, n_series: int, horizon: int, seed: int
) -> PanelSeries:
    """Simulate N independent AR(1) series over t = 0..horizon.

    Draw order is fixed (initial values first, then the (N, T) innovation
    matrix), so the output is a pure function of (spec, n_series, horizon,
    seed).  The recursion runs time-major, one contiguous row of N values
    per step; ``PanelSeries`` copies the result back to row-major.

    Parameters
    ----------
    spec : ARProcessSpec
        Process parameters and initialization rule.
    n_series : int
        Number of independent series N (>= 1).
    horizon : int
        Last time index T (>= 1); the panel has T+1 columns.
    seed : int
        64-bit seed for the PCG64 generator.
    """
    if n_series < 1:
        raise ValidationError(f"n_series must be >= 1, got {n_series}")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    values = np.empty((horizon + 1, n_series), dtype=float)
    if spec.initial_mode == "stationary_draw":
        sd0 = math.sqrt(stationary_variance(spec))
        values[0] = rng.standard_normal(n_series) * sd0
    else:
        values[0] = spec.initial_value
    # rows 1..T start as the innovations; step t adds phi * Y[t-1] to row t
    np.multiply(rng.standard_normal((n_series, horizon)).T, spec.sigma, out=values[1:])
    step = np.empty(n_series, dtype=float)
    for t in range(1, horizon + 1):
        np.multiply(values[t - 1], spec.phi, out=step)
        values[t] += step
    return PanelSeries(values.T)


def inject_treatment(
    panel: PanelSeries, window: EventWindow, delta: Sequence[float]
) -> PanelSeries:
    """Add the per-period effect to every series inside the event window.

    Returns a new panel; the input is untouched.  Adding and then
    subtracting the same vector round-trips bit-exactly.
    """
    window.check_fits(panel.horizon)
    vec = as_effect_vector(delta, window.d)
    out = panel.values.copy()
    out[:, window.columns] += vec[None, :]
    return PanelSeries(out, panel.time_index, panel.series_ids)
