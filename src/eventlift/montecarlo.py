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

The module also holds the package's one fork policy, which
``baselines.direct_forecast`` and the panel-file reader and writer in
``dataio`` follow.  Their work splits into contiguous groups, one per CPU
this process may run on (``_available_cpus``, the cap on
``run_replications``' threads), and ``_forked_map`` runs the first group in
the calling process and each other one in a forked child (every group, when
the calling process has other work to do meanwhile).  A child's result
comes back over a pipe, pickled with its arrays sent out of band and read
straight into their buffers, so the caller never holds a second copy of
them.  Nothing forks, and one group runs in the calling process, where
``os.fork`` is missing or the platform is not Linux, and while another
Python thread is alive, because a forked child would inherit any lock that
thread holds, held.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import struct
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
from .errors import ValidationError, check_size
from .panel import ARProcessSpec, EventWindow, as_effect_vector, simulate_ar1_panel
from .panel import stationary_variance

__all__ = [
    "MCConfig",
    "ComponentStats",
    "MonteCarloReport",
    "RatePair",
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
        object.__setattr__(self, "n_series", check_size("n_series", self.n_series))
        object.__setattr__(self, "replications", check_size("replications", self.replications))
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
    """CPUs this process may run on: the cap on ``run_replications``'
    threads and on the groups of a forked map (see the module docstring)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_cpus() -> int:
    """The CPUs a forked map may use: ``_available_cpus()`` where a fork is
    safe, and 1 where the module docstring says nothing forks."""
    if hasattr(os, "fork") and sys.platform.startswith("linux") and threading.active_count() == 1:
        return _available_cpus()
    return 1


def _fork_groups(n_items: int, most: int | None = None) -> list[range]:
    """``range(n_items)`` as contiguous groups, one per CPU a forked map may
    use and at most ``most`` of them, the earlier ones one item larger when
    they do not divide evenly; a single group where nothing forks."""
    cpus = _fork_cpus() if n_items else 1
    n = max(1, min(cpus, n_items, n_items if most is None else most))
    bounds = [-(-n_items * g // n) for g in range(n + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _forked_map(
    fn,
    groups: Sequence[range],
    alongside: Callable[[], object] | None = None,
    unit: str = "rows",
) -> list:
    """``[fn(group) for group in groups]``, the first group in this process
    and each other in a forked child, whose result comes back over a pipe
    (``_child_main``).  ``alongside()``, when given, runs in this process
    once the children are forked and before the first group, so its error
    is raised before any group's.  Given ``alongside``, wherever a fork can
    happen (``_fork_cpus() > 1``) and the first group is not empty, every
    group forks, the first too, and this process runs ``alongside()`` alone:
    up to one more process than the CPU count is then busy at once.  Then
    the first failing group in order raises, as a serial loop would meet
    it: a child's exception is raised as it crossed the pipe, and a child
    that leaves no whole result is a ``RuntimeError`` naming its group's
    ``unit``.  No child outlives the call: each is reaped on the way out,
    and one whose result is still unread is killed first."""
    fork_all = alongside is not None and len(groups[0]) > 0 and _fork_cpus() > 1
    forked = groups if fork_all else groups[1:]
    workers = []  # (pid, the read end of its pipe), one per forked group
    try:
        for group in forked:
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns that forking a process with threads
                    # may deadlock; the only other threads here are OpenBLAS's
                    # idle pool, which OpenBLAS itself shuts down for a fork
                    warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child, which never returns
                os.close(read_fd)
                _child_main(fn, group, write_fd)
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        if alongside is not None:
            alongside()
        results = [] if fork_all else [fn(groups[0])]
        for (_, pipe), group in zip(workers, forked):
            with pipe:
                try:
                    ok, value = _receive(pipe)
                except EOFError:
                    where = f"{unit} {group.start}..{group.stop - 1}"
                    raise RuntimeError(f"the worker for {where} ended without a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in workers:
            if not pipe.closed:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child_main(fn, group: range, write_fd: int):
    """Run ``fn(group)`` in a forked child, send ``(True, result)`` or
    ``(False, exception)`` to ``write_fd``, and leave by ``os._exit``, which
    neither flushes inherited buffers nor runs the parent's exit handlers.

    What is sent: the pickle's length, the number of out-of-band buffers
    and each one's length (unsigned 64-bit little-endian), then the pickle
    (protocol 5) and the buffers' bytes, so ``_receive`` reads each array's
    data into a buffer of its own."""
    try:
        buffers: list[pickle.PickleBuffer] = []
        try:
            head = pickle.dumps((True, fn(group)), protocol=5, buffer_callback=buffers.append)
        except Exception as exc:
            buffers = []
            head = pickle.dumps((False, exc), protocol=5)
        raws = [buffer.raw() for buffer in buffers]
        sizes = [len(head), len(raws), *(raw.nbytes for raw in raws)]
        with open(write_fd, "wb") as pipe:
            pipe.write(struct.pack(f"<{len(sizes)}Q", *sizes))
            pipe.write(head)
            for raw in raws:
                pipe.write(raw)
    finally:
        os._exit(0)


def _receive(pipe):
    """What ``_child_main`` sent over ``pipe``; EOFError if it is not whole."""
    head_size, n_buffers = struct.unpack("<2Q", _read_exact(pipe, 16))
    sizes = struct.unpack(f"<{n_buffers}Q", _read_exact(pipe, 8 * n_buffers))
    head = _read_exact(pipe, head_size)
    return pickle.loads(head, buffers=[_read_exact(pipe, size) for size in sizes])


def _read_exact(pipe, size: int) -> bytearray:
    """The next ``size`` bytes of the buffered ``pipe``, read into one new
    buffer (``readinto`` reads until the buffer is full or the pipe ends)."""
    buf = bytearray(size)
    if pipe.readinto(buf) != size:
        raise EOFError
    return buf


def run_replications(config: MCConfig, n_jobs: int = 1) -> MonteCarloReport:
    """Run all replications and aggregate in fixed replication order.

    ``n_jobs`` > 1 runs replications on a thread pool of at most as many
    threads as there are CPUs available; results land in per-replication
    slots, so the report is bit-identical to a single-threaded run.
    """
    n_jobs = check_size("n_jobs", n_jobs)
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
    grid = [check_size("every n_grid entry", n, minimum=50) for n in grid]
    reps, t0 = check_size("reps", reps, minimum=2), check_size("t0", t0)
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
