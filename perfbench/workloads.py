"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed, hands the library
only those inputs, and times one *operation* at a time:

* ``mc_ar``: one ``montecarlo.run_replications`` batch on ``nproc`` threads.
* ``retail_eval``: one ``evaluation.evaluate_panel`` call on a retail-like
  panel (one (series, event) pair per series).
* ``cli_files``: one chain of ``cli.run_command`` calls over CSV files.

Library functions are always reached through their module attribute
(``montecarlo.run_replications``, not an imported name), so the spans that
``spans.Tracer.patched`` installs see every call.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import math
import os
import pickle
import shutil
from pathlib import Path

import numpy as np

import eventlift as el
from eventlift import cli, dataio, evaluation, montecarlo


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit seed that depends only on the benchmark seed and ``path``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def make_retail_panel(seed: int, n_series: int, years: int, event_day: int = 300, d: int = 5):
    """Daily panel with growth, weekly seasonality, AR(1) noise, and a 5-day
    annual event whose additive effect scales with the series level.

    The same generator as the test suite's retail fixture.  Returns (panel,
    calendar, true_effects) where true_effects[i] is series i's injected
    effect on the last (target) occurrence.
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
        for year in range(years):
            start = year * 365 + event_day
            effect = amp * shape * level[start : start + d]
            y[start : start + d] += effect
        rows.append(y)
        true_effects.append(effect)
    panel = el.PanelSeries(np.stack(rows))
    windows = [el.EventWindow(t0=year * 365 + event_day - 1, d=d) for year in range(years)]
    return panel, el.EventCalendar({"holiday": windows}), np.stack(true_effects)


def training_flops_per_epoch(layer_sizes, windows: int) -> int:
    """Forward plus backward multiply-adds (x2) of one pass over the windows.

    Forward costs one multiply-add per weight; backward one per weight for
    the weight gradient and one per weight above the first layer for the
    input gradient.
    """
    macs = [a * b for a, b in zip(layer_sizes, layer_sizes[1:])]
    return windows * 2 * (2 * sum(macs) + sum(macs[1:]))


class Workload:
    """One seeded workload: ``setup`` once per set-up repeat, then ``op``."""

    name = ""
    item = ""            # what items_per_s counts
    subops = 1           # operations attempted per op, for failed/attempted
    min_ops = 1
    threads = 1          # worker threads the library is asked to use
    reference = ""       # kind of reference.Reference unit that mirrors the hot loop

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.check_results: list[tuple[str, bool, str]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int, tracer) -> int:
        """Run one operation; return how many of its ``subops`` failed."""
        raise NotImplementedError

    def after_op(self, index: int) -> None:
        """Untimed per-op verification."""

    def checks(self, tracer) -> list[tuple[str, bool, str]]:
        return self.check_results

    def items_per_op(self) -> int:
        return 1


class MonteCarloAR(Workload):
    """Replication study of the AR(1) estimator (the paper's validation)."""

    name = "mc_ar"
    item = "replications"
    reference = "panel"
    SIZES = {
        "full": dict(n_series=5000, reps=64, acc_batches=8),
        "smoke": dict(n_series=500, reps=8, acc_batches=2),
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        p = self.SIZES[size]
        self.n_series, self.reps = p["n_series"], p["reps"]
        self.min_ops = p["acc_batches"]
        self.t0, self.d = 100, 3
        self.delta = (2.0, -1.0, 0.5)
        self.phi, self.sigma = 0.5, 1.0
        self.threads = nproc()
        self.reports: dict[int, montecarlo.MonteCarloReport] = {}

    def params(self) -> dict:
        return dict(n_series=self.n_series, t0=self.t0, d=self.d, T=self.t0 + self.d,
                    delta=list(self.delta), phi=self.phi, sigma=self.sigma,
                    replications_per_op=self.reps, accuracy_ops=self.min_ops,
                    n_jobs=self.threads,
                    master_seeds=[derive_seed(self.seed, 0, b) for b in range(self.min_ops)])

    def config(self, master_seed: int, reps: int) -> montecarlo.MCConfig:
        return montecarlo.MCConfig(
            spec=el.ARProcessSpec(phi=self.phi, sigma=self.sigma),
            n_series=self.n_series,
            t0=self.t0,
            window=el.EventWindow(t0=self.t0, d=self.d),
            delta=self.delta,
            replications=reps,
            master_seed=master_seed,
        )

    def setup(self) -> None:
        self.configs = [self.config(derive_seed(self.seed, 0, b), self.reps)
                        for b in range(self.min_ops)]
        warm = self.config(derive_seed(self.seed, 1), 2 * self.threads)
        montecarlo.run_replications(warm, n_jobs=self.threads)

    def op(self, index, tracer) -> int:
        config = (self.configs[index] if index < len(self.configs)
                  else self.config(derive_seed(self.seed, 0, index), self.reps))
        report = montecarlo.run_replications(config, n_jobs=self.threads)
        if index < self.min_ops:
            self.reports[index] = report
        return 0

    def items_per_op(self) -> int:
        return self.reps

    def checks(self, tracer):
        with tracer.span("bench.mc_jobs1_check"):
            serial = montecarlo.run_replications(self.configs[0], n_jobs=1)
        same = _mc_signature(serial) == _mc_signature(self.reports[0])
        return [(f"report at jobs=1 identical to jobs={self.threads}", same, "")]

    def accuracy(self) -> dict[str, tuple[float, str]]:
        z = np.concatenate([self.reports[b].standardized_errors for b in range(self.min_ops)])
        var_ratio = z.var(axis=0, ddof=1)  # oracle-standardised: formula is 1
        coverage = np.mean([[c.ci_coverage for c in self.reports[b].per_component]
                            for b in range(self.min_ops)], axis=0)
        return {
            "mc.var_rel_err_max": (float(np.max(np.abs(var_ratio - 1.0))), "ratio"),
            "mc.coverage_err_max": (float(np.max(np.abs(coverage - 0.95))), "ratio"),
        }

    def counts(self) -> dict:
        T = self.t0 + self.d
        return dict(replications=self.reps,
                    normal_draws=self.reps * self.n_series * (T + 1),
                    ols_pairs=self.reps * self.n_series * self.t0,
                    rolling_windows=0, epochs=0, mini_batches=0,
                    training_flops_per_epoch=0,
                    csv_rows_read=0, csv_rows_written=0,
                    csv_bytes_read=0, csv_bytes_written=0)

    def headline(self, op_s: float) -> dict:
        return {"mc.reps_per_s": (self.reps / op_s, "1/s")}


def _mc_signature(report) -> bytes:
    return pickle.dumps((
        [tuple(vars(c).values()) for c in report.per_component],
        report.cross_cov_scaled.tobytes(),
        report.phi_hat_mean,
        report.phi_hat_sd,
        report.standardized_errors.tobytes(),
        report.notes,
    ))


class RetailEval(Workload):
    """``evaluate_panel``: adaptive pipeline vs the DF and SD baselines."""

    name = "retail_eval"
    item = "pairs"
    reference = "mlp"
    SIZES = {
        "full": dict(n_series=3, years=4, hidden=(64, 64), epochs=150),
        "smoke": dict(n_series=1, years=3, hidden=(16, 16), epochs=40),
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        p = self.SIZES[size]
        self.n_series, self.years = p["n_series"], p["years"]
        self.fw = el.RollingWindowConfig(lookback=90, horizon=30, stride=1)
        self.arch = el.ForecasterArch(hidden_sizes=p["hidden"], activation="relu")
        self.loss = el.AdaptiveLossConfig(rare_weight=0.1, nonrare_weight=1.0)
        self.train_cfg = el.TrainConfig(
            epochs=p["epochs"], batch_size=64, learning_rate=0.03,
            final_learning_rate=0.003, seed=derive_seed(seed, 3) % 2**32,
        )
        self.periods = [7, 365]
        self.first = None

    def params(self) -> dict:
        return dict(n_series=self.n_series, years=self.years, lookback=self.fw.lookback,
                    horizon=self.fw.horizon, hidden=list(self.arch.hidden_sizes),
                    epochs=self.train_cfg.epochs, batch_size=self.train_cfg.batch_size,
                    lr=[self.train_cfg.learning_rate, self.train_cfg.final_learning_rate],
                    periods=self.periods, panel_seed=derive_seed(self.seed, 2),
                    train_seed=self.train_cfg.seed)

    def setup(self) -> None:
        self.panel, self.calendar, self.truth = make_retail_panel(
            derive_seed(self.seed, 2), self.n_series, self.years
        )
        # first matmuls start the BLAS thread pool
        samples = el.build_rolling_windows(self.panel.series(0), self.fw, self.calendar)
        el.train(samples[:64], self.arch, self.loss,
                 el.TrainConfig(epochs=1, batch_size=64, seed=0))

    def op(self, index, tracer) -> int:
        report = evaluation.evaluate_panel(
            self.panel, self.calendar, fw_config=self.fw, arch=self.arch,
            loss_cfg=self.loss, train_cfg=self.train_cfg, periods=self.periods,
        )
        self.last = report
        if self.first is None:
            self.first = report
        return 0

    def after_op(self, index):
        if index > 0:
            same = _eval_signature(self.last) == _eval_signature(self.first)
            self.check_results.append((f"evaluation {index} identical to the first", same, ""))

    def items_per_op(self) -> int:
        return self.n_series * len(self.calendar.events)

    def checks(self, tracer):
        means = self.first.mean_mape()
        ok = means["ours"] < means["SD"]
        detail = f"ours {means['ours']:.3f} vs SD {means['SD']:.3f} (DF {means['DF']:.3f})"
        return [("ours beats SD on mean MAPE", ok, detail)] + self.check_results

    def accuracy(self) -> dict[str, tuple[float, str]]:
        predicted = np.stack([r.predicted_effect for r in self.first.results])
        rel_mae = np.mean(np.abs(predicted - self.truth)) / np.mean(np.abs(self.truth))
        return {"eval.mape_ours": (self.first.mean_mape()["ours"], "%"),
                "eval.effect_rel_mae": (float(rel_mae), "ratio")}

    def counts(self) -> dict:
        M, H = self.fw.lookback, self.fw.horizon
        T = self.panel.horizon + 1
        ours = T - M - H + 1
        df = sum(w[-1].t0 + 1 - M - H + 1 for w in self.calendar.events.values())
        epochs = self.train_cfg.epochs
        nets = 1 + len(self.calendar.events)
        batch = self.train_cfg.batch_size
        sizes = (M, *self.arch.hidden_sizes, H)
        per_series_batches = epochs * (math.ceil(ours / batch) + sum(
            math.ceil((w[-1].t0 + 1 - M - H + 1) / batch)
            for w in self.calendar.events.values()))
        return dict(replications=0, normal_draws=0, ols_pairs=0,
                    rolling_windows=self.n_series * (ours + df),
                    epochs=self.n_series * nets * epochs,
                    mini_batches=self.n_series * per_series_batches,
                    training_flops_per_epoch=self.n_series * (
                        training_flops_per_epoch(sizes, ours)
                        + training_flops_per_epoch(sizes, df)),
                    csv_rows_read=0, csv_rows_written=0,
                    csv_bytes_read=0, csv_bytes_written=0)

    def headline(self, op_s: float) -> dict:
        return {"eval.pairs_per_s": (self.items_per_op() / op_s, "1/s")}


def _eval_signature(report) -> bytes:
    return pickle.dumps([
        (r.series_id, r.event, r.mape_sd, r.mape_df, r.mape_ours,
         r.predicted_effect.tobytes(), r.control_ours.tobytes())
        for r in report.results
    ])


@contextlib.contextmanager
def _quiet():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield err


def _digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


class CliFiles(Workload):
    """A chain of CLI commands over CSV files written and read on disk."""

    name = "cli_files"
    item = "chains"
    reference = "csv"
    subops = 7
    SIZES = {
        "full": dict(sim_n=500, retail_series=3, years=4, hidden="64,64", epochs=150),
        "smoke": dict(sim_n=50, retail_series=1, years=3, hidden="16,16", epochs=40),
    }
    SIM = dict(t0=300, d=3, extra_days=62, delta=(2.0, -1.0, 0.5), phi=0.5, sigma=1.0)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.p = self.SIZES[size]
        self.first_digest = None
        self.failed_commands: list[str] = []

    def params(self) -> dict:
        return dict(self.p, **self.SIM, days=self.SIM["t0"] + self.SIM["d"]
                    + self.SIM["extra_days"] + 1, model_series="s000",
                    lookback=90, horizon=30, batch_size=64, lr=[0.03, 0.003],
                    retail_seed=derive_seed(self.seed, 4),
                    model_seed=derive_seed(self.seed, 5) % 2**32,
                    simulate_seed=derive_seed(self.seed, 6))

    def setup(self) -> None:
        retail = self.workdir / "retail"
        retail.mkdir(parents=True, exist_ok=True)
        panel, calendar, _ = make_retail_panel(
            derive_seed(self.seed, 4), self.p["retail_series"], self.p["years"]
        )
        start = datetime.date(2013, 1, 1)
        dates = tuple(start + datetime.timedelta(days=i) for i in range(panel.horizon + 1))
        dataio.write_panel_csv(retail / "panel.csv", el.PanelSeries(panel.values, dates))
        dataio.write_calendar_csv(retail / "calendar.csv", [
            dataio.CalendarEntry("holiday", dates[w.t0 + 1], dates[w.t0 + w.d])
            for w in calendar.occurrences("holiday")
        ])
        argv = ["train", "--panel", retail / "panel.csv", "--calendar", retail / "calendar.csv",
                "--series", "s000", "--lookback", 90, "--horizon", 30,
                "--hidden", self.p["hidden"], "--epochs", self.p["epochs"],
                "--batch-size", 64, "--lr", 0.03, "--lr-final", 0.003,
                "--seed", derive_seed(self.seed, 5) % 2**32, "--out", self.workdir / "model"]
        with _quiet() as err:
            code = cli.run_command([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"set-up training failed: {err.getvalue().strip()}")

    def chain(self, out: Path) -> list[tuple[str, list]]:
        s = self.SIM
        sim = out / "sim"
        retail = self.workdir / "retail"
        on_retail = ["--panel", retail / "panel.csv", "--calendar", retail / "calendar.csv",
                     "--event", "holiday", "--series", "s000"]
        model = self.workdir / "model" / "model_s000.json"
        return [
            ("simulate", ["simulate", "--phi", s["phi"], "--sigma", s["sigma"],
                          "--n", self.p["sim_n"], "--t0", s["t0"], "--d", s["d"],
                          "--delta", ",".join(map(str, s["delta"])),
                          "--extra-days", s["extra_days"],
                          "--seed", derive_seed(self.seed, 6), "--out", sim]),
            ("fit-ar", ["fit-ar", "--panel", sim / "panel.csv", "--t0", s["t0"],
                        "--out", out / "fit"]),
            ("estimate", ["estimate", "--panel", sim / "panel.csv",
                          "--calendar", sim / "calendar.csv", "--event", "event",
                          "--out", out / "estimate"]),
            ("extract-median", ["extract", *on_retail, "--model", model,
                                "--aggregate", "median", "--out", out / "extract_median"]),
            ("extract-mean", ["extract", *on_retail, "--model", model,
                              "--aggregate", "mean", "--out", out / "extract_mean"]),
            ("baseline-sd", ["baseline-sd", *on_retail, "--periods", "7,365",
                             "--out", out / "baseline_sd"]),
            ("impact", ["impact", *on_retail, "--method", "ar", "--out", out / "impact"]),
        ]

    def op(self, index, tracer) -> int:
        failed = 0
        for label, argv in self.chain(self.workdir / f"pass{index}"):
            with tracer.span(f"cli.{label}"), _quiet() as err:
                code = cli.run_command([str(a) for a in argv])
            if code != 0:
                failed += 1
                self.failed_commands.append(f"{label}: exit {code}: {err.getvalue().strip()}")
        return failed

    def after_op(self, index):
        out = self.workdir / f"pass{index}"
        digest = _digest(out)
        if index == 0:
            self.first_digest = digest
            return
        same = digest == self.first_digest
        self.check_results.append((f"pass {index} files byte-identical to pass 0", same, ""))
        shutil.rmtree(out)

    def checks(self, tracer):
        panel_csv = self.workdir / "pass0" / "sim" / "panel.csv"
        loaded = dataio.load_panel_csv(panel_csv)
        shape = (self.p["sim_n"], self.params()["days"])
        results = [
            ("every command exited 0", not self.failed_commands,
             "; ".join(self.failed_commands[:3])),
            ("written panel CSV loads back", loaded.values.shape == shape,
             f"shape {loaded.values.shape}, expected {shape}"),
        ]
        return results + self.check_results

    def accuracy(self) -> dict[str, tuple[float, str]]:
        effect = np.genfromtxt(self.workdir / "pass0" / "estimate" / "effect.csv",
                               delimiter=",", names=True)
        err = np.abs(effect["delta_hat"] - np.array(self.SIM["delta"]))
        return {"cli.delta_abs_err_max": (float(err.max()), "value")}

    def counts(self) -> dict:
        p0 = self.workdir / "pass0"
        retail = self.workdir / "retail"
        written = [f for f in p0.rglob("*.csv")]
        # files each command reads: (path, times read per chain)
        read = [(p0 / "sim" / "panel.csv", 2), (p0 / "sim" / "calendar.csv", 1),
                (retail / "panel.csv", 4), (retail / "calendar.csv", 4)]
        days = self.params()["days"]
        retail_days = self.p["years"] * 365
        training_t0 = [year * 365 + 299 for year in range(self.p["years"] - 1)]
        return dict(replications=0, normal_draws=self.p["sim_n"] * days,
                    ols_pairs=2 * self.p["sim_n"] * self.SIM["t0"] + sum(training_t0),
                    rolling_windows=2 * (retail_days - 90 - 30 + 1),
                    epochs=0, mini_batches=0,
                    training_flops_per_epoch=0,
                    csv_rows_read=sum(_rows(f) * n for f, n in read),
                    csv_rows_written=sum(_rows(f) for f in written),
                    csv_bytes_read=sum(f.stat().st_size * n for f, n in read),
                    csv_bytes_written=sum(f.stat().st_size for f in written))

    def headline(self, op_s: float) -> dict:
        return {"cli.chain_s": (op_s, "s")}


WORKLOADS = {w.name: w for w in (MonteCarloAR, RetailEval, CliFiles)}
