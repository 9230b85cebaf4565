"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

The heavy replication studies are session fixtures so criteria that read the
same run share it.  Every run is seeded, so the printed numbers are stable
across machines up to BLAS rounding.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import eventlift as el
from eventlift.cli import run_command

MASTER_SEED = 20250818
REPO_ROOT = Path(__file__).resolve().parents[1]


def announce(capsys, number, name, passed, details):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({name}): {verdict} ({details})")
    assert passed, f"criterion {number} ({name}): {details}"


@pytest.fixture(scope="session")
def rate_run():
    started = time.monotonic()
    report = el.rate_check_phi(
        el.ARProcessSpec(phi=0.6, sigma=1.0),
        t0=50,
        n_grid=(250, 1000),
        reps=2000,
        master_seed=MASTER_SEED,
    )
    return report, time.monotonic() - started


@pytest.fixture(scope="session")
def main_run():
    """phi=0.5 study at the scale the distributional claims are checked at."""
    config = el.MCConfig(
        spec=el.ARProcessSpec(phi=0.5, sigma=1.0),
        n_series=5000,
        t0=100,
        window=el.EventWindow(t0=100, d=3),
        delta=(2.0, -1.0, 0.5),
        replications=2000,
        master_seed=MASTER_SEED,
    )
    started = time.monotonic()
    report = el.run_replications(config, n_jobs=4)
    return report, time.monotonic() - started


@pytest.fixture(scope="session")
def deep_run():
    """Same process, 20-step window, to compare the deepest variance with
    the asymptote."""
    config = el.MCConfig(
        spec=el.ARProcessSpec(phi=0.5, sigma=1.0),
        n_series=5000,
        t0=100,
        window=el.EventWindow(t0=100, d=20),
        delta=tuple(0.0 for _ in range(20)),
        replications=2000,
        master_seed=MASTER_SEED,
    )
    started = time.monotonic()
    report = el.run_replications(config, n_jobs=4)
    return report, time.monotonic() - started


def test_criterion_1_root_n_rate(rate_run, capsys):
    report, elapsed = rate_run
    pair = report.pairs[0]
    ok = 1.7 <= pair.ratio <= 2.3 and elapsed < 60.0
    announce(
        capsys, 1, "root-N convergence of phi_hat", ok,
        f"sd ratio N=250 vs N=1000 is {pair.ratio:.4f}, expected 2.0, "
        f"bounds [1.7, 2.3], ran {elapsed:.1f}s of 60s",
    )


def test_criterion_2_unbiasedness(main_run, capsys):
    report, elapsed = main_run
    biases, bounds = [], []
    for stats in report.per_component:
        biases.append(abs(stats.mean_bias))
        bounds.append(3.0 * np.sqrt(stats.theoretical_var_finite / report.replications))
    ok = all(b < lim for b, lim in zip(biases, bounds)) and elapsed < 300.0
    detail = ", ".join(
        f"k={i + 1}: |bias| {b:.4f} < {lim:.4f}" for i, (b, lim) in enumerate(zip(biases, bounds))
    )
    announce(capsys, 2, "unbiasedness of the scaled effect error", ok,
             f"{detail}, ran {elapsed:.1f}s of 300s")


def test_criterion_3_variance_formula(main_run, deep_run, capsys):
    report, _ = main_run
    expected = [1.0, 1.25, 1.3125]
    rel_errors = [
        abs(stats.empirical_var_scaled - ref) / ref
        for stats, ref in zip(report.per_component, expected)
    ]
    deep_report, _ = deep_run
    asymptote = 4.0 / 3.0
    deep_var = deep_report.per_component[-1].empirical_var_scaled
    deep_err = abs(deep_var - asymptote) / asymptote
    ok = all(err < 0.07 for err in rel_errors) and deep_err < 0.07
    detail = ", ".join(
        f"k={i + 1}: {err * 100:.2f}%" for i, err in enumerate(rel_errors)
    )
    announce(
        capsys, 3, "finite-horizon variance formula", ok,
        f"relative errors vs [1.0, 1.25, 1.3125]: {detail}; "
        f"k=20 var {deep_var:.4f} vs asymptote {asymptote:.4f} "
        f"({deep_err * 100:.2f}%), all under 7%",
    )


def test_criterion_4_coverage(main_run, capsys):
    report, _ = main_run
    coverages = [stats.ci_coverage for stats in report.per_component]
    ok = all(abs(c - 0.95) <= 0.015 for c in coverages)
    detail = ", ".join(f"k={i + 1}: {c:.4f}" for i, c in enumerate(coverages))
    announce(capsys, 4, "95% CI coverage within 0.015", ok, detail)


def test_criterion_5_cross_covariance(main_run, capsys):
    report, _ = main_run
    empirical = report.cross_cov_scaled[0, 1]
    oracle = report.cross_cov_oracle[0, 1]
    rel = abs(empirical - oracle) / abs(oracle)
    flagged = any("off-diagonal" in note for note in report.notes)
    ok = rel < 0.15 and abs(oracle - 0.5) < 1e-12 and flagged
    announce(
        capsys, 5, "adjacent-step cross-covariance", ok,
        f"empirical {empirical:.4f} vs oracle {oracle:.4f} "
        f"({rel * 100:.2f}% of 15%), off-diagonal note "
        f"{'present' if flagged else 'MISSING'}",
    )


def test_criterion_6_pipeline_end_to_end(retail_data, retail_report, capsys):
    _, _, true_effects = retail_data
    predicted = np.stack([r.predicted_effect for r in retail_report.results])
    rel_mae = np.mean(np.abs(predicted - true_effects)) / np.mean(np.abs(true_effects))
    means = retail_report.mean_mape()
    elapsed = retail_report.elapsed_seconds
    ok = rel_mae <= 0.15 and means["ours"] < means["SD"] and elapsed < 600.0
    announce(
        capsys, 6, "adaptive-loss pipeline end to end", ok,
        f"effect MAE {rel_mae * 100:.2f}% of true magnitude (limit 15%), "
        f"window MAPE ours {means['ours']:.2f} vs SD {means['SD']:.2f}, "
        f"ran {elapsed:.1f}s of 600s",
    )


def test_criterion_7_method_ordering(retail_report, capsys):
    means = retail_report.mean_mape()
    ok = means["ours"] < means["DF"] and means["ours"] < means["SD"]
    announce(
        capsys, 7, "ours beats both baselines on window MAPE", ok,
        f"ours {means['ours']:.2f} < DF {means['DF']:.2f} and "
        f"ours {means['ours']:.2f} < SD {means['SD']:.2f}",
    )


def test_criterion_8_gradient_correctness(capsys):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        lookback = int(rng.integers(3, 9))
        horizon = int(rng.integers(1, 5))
        hidden = tuple(int(s) for s in rng.integers(2, 9, size=rng.integers(1, 3)))
        sizes = (lookback, *hidden, horizon)
        activation = "relu" if seed % 2 == 0 else "tanh"
        distance = "absolute" if seed % 4 < 2 else "squared"
        model = el.TrainedForecaster(
            layer_sizes=sizes,
            theta=rng.normal(0.0, 0.5, size=el.parameter_count(sizes)),
            activation=activation,
            shift=0.0,
            scale=1.0,
        )
        inputs = rng.normal(0.0, 1.0, size=lookback)[None, :]
        labels = rng.normal(0.0, 1.0, size=horizon)[None, :]
        rare_mask = (rng.random(horizon) < 0.3)[None, :]
        cfg = el.AdaptiveLossConfig(
            rare_weight=0.1, nonrare_weight=1.0, distance=distance
        )
        worst = max(worst, el.gradient_check(model, inputs, labels, rare_mask, cfg))
    ok = worst < 1e-4
    announce(
        capsys, 8, "analytic gradients match finite differences", ok,
        f"max relative deviation {worst:.3e} over 20 seeded instances, limit 1e-4",
    )


def _run_cli(args):
    code = run_command([str(a) for a in args])
    assert code == 0, f"command failed: {args}"


def _compare_dirs(a, b):
    """Byte-compare every file the two runs produced."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b, f"{a} vs {b}: {names_a} != {names_b}"
    mismatched = [
        name for name in names_a if (a / name).read_bytes() != (b / name).read_bytes()
    ]
    return mismatched


def test_criterion_9_cli_determinism(tmp_path_factory, capsys):
    root = tmp_path_factory.mktemp("determinism")

    # a twice-occurring event panel, needed by impact and evaluate
    import datetime

    from eventlift import dataio

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
    tiny = root / "tiny"
    tiny.mkdir()
    dataio.write_panel_csv(
        tiny / "panel.csv", el.PanelSeries(np.stack(rows), time_index=dates)
    )
    dataio.write_calendar_csv(
        tiny / "calendar.csv",
        [
            dataio.CalendarEntry("promo", dates[60], dates[62]),
            dataio.CalendarEntry("promo", dates[160], dates[162]),
        ],
    )

    sim = root / "sim"
    _run_cli(["simulate", "--phi", 0.5, "--sigma", 1.0, "--n", 60, "--t0", 40,
              "--d", 3, "--delta", "2,-1,0.5", "--seed", 99, "--out", sim])
    train_dir = root / "train"
    train_args = ["--panel", sim / "panel.csv", "--calendar", sim / "calendar.csv",
                  "--series", "s000", "--lookback", 10, "--horizon", 5,
                  "--hidden", 8, "--epochs", 20, "--batch-size", 16,
                  "--lr", 0.02, "--seed", 1]
    _run_cli(["train", *train_args, "--out", train_dir])

    commands = {
        "simulate": ["simulate", "--phi", 0.5, "--sigma", 1.0, "--n", 60,
                     "--t0", 40, "--d", 3, "--delta", "2,-1,0.5", "--seed", 99],
        "fit-ar": ["fit-ar", "--panel", sim / "panel.csv", "--t0", 40],
        "estimate": ["estimate", "--panel", sim / "panel.csv",
                     "--calendar", sim / "calendar.csv", "--event", "event"],
        "mc-validate": ["mc-validate", "--phi", 0.5, "--sigma", 1.0, "--n", 80,
                        "--t0", 30, "--d", 2, "--delta", "1,-0.5", "--reps", 30,
                        "--seed", 5, "--jobs", 1],
        "rate-check": ["rate-check", "--phi", 0.6, "--sigma", 1.0, "--t0", 40,
                       "--grid", "50,200", "--reps", 25, "--seed", 3],
        "train": ["train", *train_args],
        "extract": ["extract", "--panel", sim / "panel.csv",
                    "--calendar", sim / "calendar.csv", "--event", "event",
                    "--series", "s000", "--model", train_dir / "model_s000.json"],
        "baseline-df": ["baseline-df", "--panel", sim / "panel.csv",
                        "--calendar", sim / "calendar.csv", "--event", "event",
                        "--series", "s000", "--predictor", "ar1",
                        "--lookback", 10, "--horizon", 5, "--seed", 1],
        "baseline-sd": ["baseline-sd", "--panel", sim / "panel.csv",
                        "--calendar", sim / "calendar.csv", "--event", "event",
                        "--series", "s000", "--periods", "7"],
        "impact": ["impact", "--panel", tiny / "panel.csv",
                   "--calendar", tiny / "calendar.csv", "--event", "promo",
                   "--series", "s000", "--method", "ar"],
        "evaluate": ["evaluate", "--panel", tiny / "panel.csv",
                     "--calendar", tiny / "calendar.csv", "--lookback", 10,
                     "--horizon", 5, "--hidden", 16, "--epochs", 25,
                     "--lr", 0.02, "--periods", "7,100", "--seed", 4],
    }

    unstable = {}
    for name, args in commands.items():
        a = root / f"{name}-a"
        b = root / f"{name}-b"
        _run_cli([*args, "--out", a])
        _run_cli([*args, "--out", b])
        mismatched = _compare_dirs(a, b)
        if mismatched:
            unstable[name] = mismatched

    jobs1 = root / "jobs1"
    jobs4 = root / "jobs4"
    mc_args = commands["mc-validate"][:-2]  # drop --jobs 1
    _run_cli([*mc_args, "--jobs", 1, "--out", jobs1])
    _run_cli([*mc_args, "--jobs", 4, "--out", jobs4])
    thread_mismatch = _compare_dirs(jobs1, jobs4)

    ok = not unstable and not thread_mismatch
    announce(
        capsys, 9, "CLI byte-determinism and thread invariance", ok,
        f"{len(commands)} commands re-run byte-identical"
        + (f", unstable: {unstable}" if unstable else "")
        + (", 1-thread vs 4-thread replication study identical"
           if not thread_mismatch else f", thread mismatch: {thread_mismatch}"),
    )


def test_criterion_10_invariant_suites(capsys):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests", "--ignore=tests/test_acceptance.py",
         "-q", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=1200,
    )
    elapsed = time.monotonic() - started
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)"
    ok = proc.returncode == 0
    announce(
        capsys, 10, "module invariant suites under property testing", ok,
        f"unit suite: {tail} in {elapsed:.1f}s",
    )
