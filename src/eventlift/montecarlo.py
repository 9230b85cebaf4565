"""Replication harness validating the AR(1) estimator's sampling behavior.

Each replication simulates a panel, fits the model, forecasts the
counterfactual and estimates the effect of the configured treatment.  The
harness then compares the spread of the scaled errors
sqrt(N) * (delta_hat - delta) against two closed-form references, both
from ``ar.ar1_error_covariance`` at the true parameters:

* per-component variance  sigma^2 * (1 - phi^(2k)) / (1 - phi^2)  at
  window depth k, converging upward to sigma^2 / (1 - phi^2), and
* cross-covariance  sigma^2 * phi^|k-l| * (1 - phi^(2 min(k,l))) / (1 - phi^2)
  between depths, derived from the moving-average expansion of the
  forecast error.  This off-diagonal structure does not vanish with N,
  so the report flags it explicitly instead of asserting a diagonal limit.

A replication never builds the treated panel.  ``MCConfig`` forces the
fit range t0 <= window.t0, and the forecast anchors at column window.t0, so
the fit and the counterfactual only read columns the treatment leaves
untouched: on the clean panel they are bit for bit what they would be on the
treated one.  The effect is added to the d window columns alone, and the
replication hands that block to ``estimate_effect``, the same call the CLI
makes on a treated panel.

Reproducibility contract: replication r uses the 64-bit seed
splitmix64(master_seed, r), results are stored in slots indexed by r, and
all reductions run in fixed replication order.  The report is therefore a
pure function of the config, independent of thread count; capping the
worker threads at the CPUs available changes how fast a report is made,
never its contents.

The per-depth skewness and excess kurtosis of the standardized errors are
the biased sample moments m3 / m2^1.5 and m4 / m2^2 - 3, with m_k the mean
k-th power of the deviations from the sample mean.  ``_skew_kurtosis``
computes them operation for operation as ``scipy.stats.skew`` and
``scipy.stats.kurtosis`` do, so the bits match, and gives NaN for a column
too close to constant.  Unlike scipy it emits no "precision loss"
``RuntimeWarning`` for nearly identical values.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ar import (
    _check_level,
    ar1_error_covariance,
    confidence_intervals,
    effect_covariance,
    estimate_effect,
    fit_ar1_ols,
    forecast_counterfactual,
)
from .errors import ValidationError
from .panel import ARProcessSpec, EventWindow, as_effect_vector, simulate_ar1_panel
from .panel import stationary_variance

__all__ = [
    "MCConfig",
    "ComponentStats",
    "MonteCarloReport",
    "RateReport",
    "run_replications",
    "rate_check_phi",
    "mix_seed",
]

_MASK64 = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """Derive a per-replication seed with the SplitMix64 finalizer.

    Advances the SplitMix64 state from ``master_seed`` by ``index + 1``
    increments of the golden-ratio constant and applies the standard
    avalanche mix, yielding well-separated 64-bit seeds for any index.
    """
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class MCConfig:
    """Design of one Monte Carlo experiment.

    ``t0`` is the number of pre-event pairs used by the OLS fit; it must
    not exceed ``window.t0`` (fits never see event data).  The standardized
    errors (skewness, excess kurtosis and the histogram) scale each
    replication's error by its standard deviation at the true (phi, sigma).
    """

    spec: ARProcessSpec
    n_series: int
    t0: int
    window: EventWindow
    delta: tuple[float, ...]
    replications: int
    master_seed: int
    ci_level: float = 0.95

    def __post_init__(self):
        if self.n_series < 1:
            raise ValidationError(f"n_series must be >= 1, got {self.n_series}")
        if self.replications < 1:
            raise ValidationError(f"replications must be >= 1, got {self.replications}")
        if self.t0 < 1 or self.t0 > self.window.t0:
            raise ValidationError(
                f"fit range t0={self.t0} must be in [1, window.t0={self.window.t0}]"
            )
        _check_level(self.ci_level, "ci_level")
        object.__setattr__(
            self, "delta", tuple(as_effect_vector(self.delta, self.window.d).tolist())
        )


@dataclass
class ComponentStats:
    """Aggregates for one window depth k (0-based)."""

    mean_bias: float
    empirical_var_scaled: float
    theoretical_var_finite: float
    theoretical_var_asymptotic: float
    ci_coverage: float
    skewness: float
    excess_kurtosis: float


@dataclass
class MonteCarloReport:
    per_component: list[ComponentStats]
    cross_cov_scaled: np.ndarray
    cross_cov_oracle: np.ndarray
    phi_hat_mean: float
    phi_hat_sd: float
    replications: int
    n_series: int
    ci_level: float
    notes: list[str] = field(default_factory=list)
    # (R, d) matrix of standardized errors, for histogram diagnostics
    standardized_errors: np.ndarray | None = None


def _replicate(config: MCConfig, r: int):
    window = config.window
    delta = np.asarray(config.delta)
    seed = mix_seed(config.master_seed, r)
    panel = simulate_ar1_panel(config.spec, config.n_series, window.t0 + window.d, seed)
    # fit and anchor read columns <= window.t0 only (see the module docstring)
    fit = fit_ar1_ols(panel, config.t0)
    cf = forecast_counterfactual(fit, panel, window)
    observed = panel.values[:, window.columns] + delta
    if not np.all(np.isfinite(observed)):
        raise ValidationError("treated window values must all be finite")
    delta_hat = estimate_effect(observed, cf, window)
    cov = effect_covariance(fit, window, config.n_series)
    cis = confidence_intervals(delta_hat, cov, config.ci_level)
    covered = np.array([lo <= dk <= hi for dk, (lo, hi) in zip(delta, cis)])
    return delta_hat, fit.phi_hat, covered


def _skew_kurtosis(z: np.ndarray) -> tuple[float, float]:
    """Biased sample skewness and excess kurtosis of the 1-D array ``z``.

    The moments are computed as scipy.stats.skew/kurtosis compute them, so
    the bits match: m2 = mean(a^2), m3 = mean(a^2 * a), m4 = mean((a^2)^2)
    with a = z - mean(z).  Both are NaN when m2 <= (eps * mean)^2.
    """
    mean = z.mean()
    a = z - mean
    m2 = np.mean(a**2)
    m3 = np.mean(a**2 * a)
    m4 = np.mean((a**2) ** 2)
    with np.errstate(all="ignore"):  # an underflowing m2 gives 0 / 0: NaN, silently
        if m2 <= (np.finfo(float).eps * mean) ** 2:
            return math.nan, math.nan
        return m3 / m2**1.5, m4 / m2**2.0 - 3


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_replications(config: MCConfig, n_jobs: int = 1) -> MonteCarloReport:
    """Run all replications and aggregate in fixed replication order.

    ``n_jobs`` > 1 runs replications on a thread pool of at most as many
    threads as there are CPUs available; results land in per-replication
    slots, so the report is bit-identical to a single-threaded run.
    """
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1, got {n_jobs}")
    workers = min(n_jobs, _available_cpus())
    R = config.replications
    d = config.window.d
    delta = np.asarray(config.delta)
    delta_hats = np.empty((R, d), dtype=float)
    phi_hats = np.empty(R, dtype=float)
    covers = np.empty((R, d), dtype=bool)

    def work(r: int) -> None:
        try:
            dh, ph, cv = _replicate(config, r)
        except ValidationError as exc:
            raise ValidationError(f"replication {r}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"replication {r} failed: {exc}") from exc
        delta_hats[r] = dh
        phi_hats[r] = ph
        covers[r] = cv

    if workers == 1:
        for r in range(R):
            work(r)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() re-raises worker exceptions in submission order
            list(pool.map(work, range(R)))

    scaled = np.sqrt(config.n_series) * (delta_hats - delta[None, :])
    oracle = ar1_error_covariance(config.spec.phi, config.spec.sigma**2, d)
    var_finite = np.diag(oracle)
    var_asym = stationary_variance(config.spec)
    se = np.sqrt(var_finite)[None, :]
    z = np.divide(scaled, se, out=np.zeros_like(scaled), where=se > 0)

    per_component = []
    ddof = 1 if R > 1 else 0
    for k in range(d):
        skew, kurt = _skew_kurtosis(z[:, k])
        per_component.append(
            ComponentStats(
                mean_bias=float(scaled[:, k].mean()),
                empirical_var_scaled=float(scaled[:, k].var(ddof=ddof)),
                theoretical_var_finite=float(var_finite[k]),
                theoretical_var_asymptotic=float(var_asym),
                ci_coverage=float(covers[:, k].mean()),
                skewness=float(skew) if R > 2 else 0.0,
                excess_kurtosis=float(kurt) if R > 3 else 0.0,
            )
        )

    if R > 1:
        cross = np.cov(scaled, rowvar=False, ddof=1).reshape(d, d)
    else:
        cross = np.zeros((d, d))

    notes: list[str] = []
    if d > 1:
        off = ~np.eye(d, dtype=bool)
        max_oracle_off = float(np.max(np.abs(oracle[off])))
        max_emp_off = float(np.max(np.abs(cross[off])))
        if max_oracle_off > 0:
            notes.append(
                "off-diagonal covariance of the scaled errors does not vanish: "
                f"max |empirical| = {max_emp_off:.6g} vs moving-average reference "
                f"{max_oracle_off:.6g}; the asymptotic-diagonal description "
                "understates cross-period dependence at every N"
            )

    return MonteCarloReport(
        per_component=per_component,
        cross_cov_scaled=cross,
        cross_cov_oracle=oracle,
        phi_hat_mean=float(phi_hats.mean()),
        phi_hat_sd=float(phi_hats.std(ddof=ddof)),
        replications=R,
        n_series=config.n_series,
        ci_level=config.ci_level,
        notes=notes,
        standardized_errors=z,
    )


@dataclass
class RatePair:
    n_small: int
    n_large: int
    sd_small: float
    sd_large: float
    ratio: float
    expected_ratio: float


@dataclass
class RateReport:
    entries: list[tuple[int, float]]
    pairs: list[RatePair]


def rate_check_phi(
    spec: ARProcessSpec,
    t0: int,
    n_grid: Sequence[int],
    reps: int,
    master_seed: int,
) -> RateReport:
    """Empirical sd of phi_hat across a grid of panel widths N.

    For consecutive grid entries the sd ratio is reported next to the
    root-N reference sqrt(N_large / N_small), so a quadrupled N should
    show a ratio near 2.
    """
    grid = list(n_grid)
    if len(grid) < 2:
        raise ValidationError("n_grid needs at least 2 entries")
    if any(n < 50 for n in grid):
        raise ValidationError("every n_grid entry must be >= 50")
    if reps < 2:
        raise ValidationError("reps must be >= 2")
    if t0 < 1:
        raise ValidationError(f"t0 must be >= 1, got {t0}")
    entries: list[tuple[int, float]] = []
    for gi, n in enumerate(grid):
        phis = np.empty(reps, dtype=float)
        for r in range(reps):
            seed = mix_seed(master_seed, gi * reps + r)
            panel = simulate_ar1_panel(spec, n, t0, seed)
            phis[r] = fit_ar1_ols(panel, t0).phi_hat
        entries.append((n, float(phis.std(ddof=1))))
    pairs = []
    for (n_a, sd_a), (n_b, sd_b) in zip(entries, entries[1:]):
        ratio = sd_a / sd_b if sd_b > 0 else (0.0 if sd_a == 0 else float("inf"))
        pairs.append(
            RatePair(
                n_small=n_a,
                n_large=n_b,
                sd_small=sd_a,
                sd_large=sd_b,
                ratio=ratio,
                expected_ratio=float(np.sqrt(n_b / n_a)),
            )
        )
    return RateReport(entries=entries, pairs=pairs)
