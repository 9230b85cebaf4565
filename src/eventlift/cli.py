"""Command-line surface.

Each subcommand validates its flags into typed configs, dispatches to the
owning module, makes --out only once its results are ready, writes its
artifacts there, and prints a one-line summary.  Exit codes: 0 success, 2
validation problem (bad flags, bad input files), 1 runtime failure.  All
randomness is controlled by --seed, so a repeated command writes
byte-identical files.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import sys
from pathlib import Path

import numpy as np

from . import ar, baselines, dataio, evaluation, forecaster, impact, montecarlo, reports
from .errors import ValidationError
from .panel import (
    ARProcessSpec,
    EventWindow,
    PanelSeries,
    inject_treatment,
    simulate_ar1_panel,
)

__all__ = ["run_command", "main"]


def _floats(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split(",") if v != "")
    except ValueError as exc:
        raise ValidationError(f"bad numeric list {raw!r}: {exc}") from exc


def _ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in raw.split(",") if v != "")
    except ValueError as exc:
        raise ValidationError(f"bad integer list {raw!r}: {exc}") from exc


def _level(raw: str) -> float:
    """argparse type of --level: a float in (0, 1) that leaves an upper tail."""
    try:
        return ar._check_level(float(raw))
    except ValidationError as exc:  # a ValueError too, so caught first
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None


def _summary(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def _plot_start(window: EventWindow) -> int:
    """First index of a plot: the window plus some pre-event context."""
    return max(0, window.t0 - 5 * window.d - 10)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _spec_from(args) -> ARProcessSpec:
    return ARProcessSpec(
        phi=args.phi,
        sigma=args.sigma,
        initial_mode=args.init_mode,
        initial_value=args.init_value,
    )


def _load_bound(args):
    panel = dataio.load_panel_csv(args.panel)
    entries = dataio.load_calendar(args.calendar)
    calendar = dataio.bind_calendar(entries, panel)
    return panel, calendar


def _series_row(panel: PanelSeries, sid: str) -> np.ndarray:
    if sid not in panel.series_ids:
        raise ValidationError(
            f"unknown series {sid!r}; panel has {', '.join(panel.series_ids)}"
        )
    return panel.series(panel.series_ids.index(sid))


def _occurrence(calendar, event: str, index: int) -> EventWindow:
    occ = calendar.occurrences(event)
    if index < -len(occ) or index >= len(occ):
        raise ValidationError(
            f"event {event!r} has {len(occ)} occurrences; index {index} is out of range"
        )
    return occ[index]


def _fw_config(args) -> forecaster.RollingWindowConfig:
    return forecaster.RollingWindowConfig(
        lookback=args.lookback, horizon=args.horizon, stride=args.stride
    )


def _arch(args) -> forecaster.ForecasterArch:
    return forecaster.ForecasterArch(
        hidden_sizes=_ints(args.hidden), activation=args.activation
    )


def _loss_cfg(args) -> forecaster.AdaptiveLossConfig:
    return forecaster.AdaptiveLossConfig(
        rare_weight=args.rare_weight,
        nonrare_weight=args.nonrare_weight,
        distance=args.distance,
    )


def _train_cfg(args) -> forecaster.TrainConfig:
    return forecaster.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        final_learning_rate=args.lr_final,
        seed=args.seed,
    )


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, required=True, help="autoregressive coefficient")
    p.add_argument("--sigma", type=float, required=True, help="innovation standard deviation")
    p.add_argument(
        "--init-mode",
        choices=["stationary_draw", "fixed"],
        default="stationary_draw",
        help="how each series starts",
    )
    p.add_argument("--init-value", type=float, default=0.0)


def _add_inputs(
    p: argparse.ArgumentParser,
    *,
    calendar: bool = True,
    event: bool = False,
    series: bool = False,
    occurrence: int | None = None,
) -> None:
    """The input flags that lead a command, in help order; ``occurrence`` is its default."""
    p.add_argument("--panel", required=True)
    if calendar:
        p.add_argument("--calendar", required=True)
    if event:
        p.add_argument("--event", required=True)
    if series:
        p.add_argument("--series", required=True)
    if occurrence is not None:
        p.add_argument("--occurrence", type=int, default=occurrence)


def _add_training_flags(p: argparse.ArgumentParser, *, loss: bool = True) -> None:
    """The forecaster flags; ``loss`` adds the adaptive-loss ones, which only
    commands that train with the adaptive loss may take."""
    p.add_argument("--lookback", type=int, default=90)
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--hidden", default="64,64", help="hidden layer sizes, e.g. 64,64")
    p.add_argument("--activation", choices=["relu", "tanh"], default="relu")
    if loss:
        p.add_argument("--rare-weight", type=float, default=0.1)
        p.add_argument("--nonrare-weight", type=float, default=1.0)
        p.add_argument("--distance", choices=["absolute", "squared"], default="absolute")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--lr-final", type=float, default=None)


# ---------------------------------------------------------------------------
# handlers


def _cmd_simulate(args) -> int:
    spec = _spec_from(args)
    window = EventWindow(t0=args.t0, d=args.d)
    delta = _floats(args.delta)
    horizon = args.t0 + args.d + args.extra_days
    panel = simulate_ar1_panel(spec, args.n, horizon, args.seed)
    treated = inject_treatment(panel, window, delta)
    dates = tuple(args.start_date + datetime.timedelta(days=i) for i in range(horizon + 1))
    dated = PanelSeries(
        values=treated.values, time_index=dates, series_ids=treated.series_ids
    )
    out = _out_dir(args)
    dataio.write_panel_csv(out / "panel.csv", dated)
    entry = dataio.CalendarEntry(
        event=args.event_name,
        start=dates[window.t0 + 1],
        end=dates[window.t0 + window.d],
    )
    dataio.write_calendar_csv(out / "calendar.csv", [entry])
    print(
        f"simulated {args.n} series x {horizon + 1} days with effect on "
        f"{entry.start}..{entry.end}; wrote {out / 'panel.csv'} and {out / 'calendar.csv'}"
    )
    return 0


def _cmd_fit_ar(args) -> int:
    panel = dataio.load_panel_csv(args.panel)
    fit = ar.fit_ar1_ols(panel, args.t0)
    path = _out_dir(args) / "ar_fit.csv"
    reports.write_rows(
        path, ["phi_hat", "sigma2_hat", "n_pairs"], [[fit.phi_hat, fit.sigma2_hat, fit.n_pairs]]
    )
    print(
        f"fit phi_hat={fit.phi_hat:.6f} sigma2_hat={fit.sigma2_hat:.6f} "
        f"on {fit.n_pairs} pairs; wrote {path}"
    )
    return 0


def _cmd_estimate(args) -> int:
    panel, calendar = _load_bound(args)
    window = _occurrence(calendar, args.event, args.occurrence)
    t0_fit = args.fit_t0 if args.fit_t0 is not None else window.t0
    if not 1 <= t0_fit <= window.t0:
        raise ValidationError(
            f"--fit-t0 {t0_fit} is outside [1, {window.t0}]: the fit needs one pair "
            f"and may not pass the window's t0={window.t0}, or it would see event days"
        )
    # earlier event days, of this event and every other, stay out of the fit
    fit = ar.fit_ar1_ols(panel, t0_fit, calendar.windows())
    cf = ar.forecast_counterfactual(fit, panel, window)
    delta_hat = ar.estimate_effect(panel.values[:, window.columns], cf, window)
    cov = ar.effect_covariance(fit, window, panel.n_series)
    cis = ar.confidence_intervals(delta_hat, cov, args.level)
    out = _out_dir(args)
    reports.write_effect_csv(out / "effect.csv", delta_hat, cis)

    context = _plot_start(window)
    stop = window.t0 + window.d + 1
    observed_mean = panel.values.mean(axis=0)[context:stop]
    cf_mean = np.full(stop - context, np.nan)
    cf_mean[window.t0 + 1 - context :] = cf.mean(axis=0)
    reports.svg_line_plot(
        out / "effect_plot.svg",
        {"observed mean": observed_mean, "counterfactual mean": cf_mean},
        x=np.arange(context, stop),
        shaded=(window.t0 + 1, window.t0 + window.d),
        title=f"{args.event}: observed vs counterfactual",
    )
    print(
        f"effect on {args.event} (t0={window.t0}, d={window.d}): [{_summary(delta_hat)}]; "
        f"wrote {out / 'effect.csv'} and {out / 'effect_plot.svg'}"
    )
    return 0


def _cmd_mc_validate(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    spec = _spec_from(args)
    window = EventWindow(t0=args.t0, d=args.d)
    config = montecarlo.MCConfig(
        spec=spec,
        n_series=args.n,
        t0=args.t0,
        window=window,
        delta=_floats(args.delta),
        replications=args.reps,
        master_seed=args.seed,
        ci_level=args.level,
    )
    report = montecarlo.run_replications(config, n_jobs=args.jobs)
    out = _out_dir(args)
    reports.write_rows(
        out / "mc_report.csv",
        ["component", "mean_bias", "empirical_var", "theoretical_var_finite",
         "theoretical_var_asymptotic", "ci_coverage", "skewness", "excess_kurtosis"],
        (
            (k + 1, c.mean_bias, c.empirical_var_scaled, c.theoretical_var_finite,
             c.theoretical_var_asymptotic, c.ci_coverage, c.skewness, c.excess_kurtosis)
            for k, c in enumerate(report.per_component)
        ),
    )
    reports.write_rows(
        out / "mc_crosscov.csv",
        ["k", "l", "empirical", "reference"],
        (
            (k + 1, l + 1, value, report.cross_cov_oracle[k, l])
            for (k, l), value in np.ndenumerate(report.cross_cov_scaled)
        ),
    )
    (out / "mc_notes.txt").write_text(
        "".join(f"{note}\n" for note in report.notes), encoding="utf-8", newline=""
    )
    reports.svg_histogram(
        out / "mc_report.svg",
        report.standardized_errors[:, 0],
        title="standardized effect error, window day 1",
    )
    for k, comp in enumerate(report.per_component):
        print(
            f"day {k + 1}: bias={comp.mean_bias:+.4f} "
            f"var={comp.empirical_var_scaled:.4f} "
            f"(finite {comp.theoretical_var_finite:.4f}, "
            f"asymptotic {comp.theoretical_var_asymptotic:.4f}) "
            f"coverage={comp.ci_coverage:.4f}"
        )
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote mc_report.csv, mc_crosscov.csv, mc_notes.txt, mc_report.svg in {out}")
    return 0


def _cmd_rate_check(args) -> int:
    spec = _spec_from(args)
    report = montecarlo.rate_check_phi(
        spec, args.t0, _ints(args.grid), args.reps, args.seed
    )
    out = _out_dir(args)
    reports.write_rows(
        out / "rate_report.csv",
        ["n_small", "n_large", "sd_small", "sd_large", "ratio", "expected_ratio"],
        (
            (p.n_small, p.n_large, p.sd_small, p.sd_large, p.ratio, p.expected_ratio)
            for p in report.pairs
        ),
    )
    for pair in report.pairs:
        print(
            f"N={pair.n_small} -> N={pair.n_large}: sd ratio {pair.ratio:.3f} "
            f"(root-N reference {pair.expected_ratio:.3f})"
        )
    print(f"wrote {out / 'rate_report.csv'}")
    return 0


def _cmd_train(args) -> int:
    panel, calendar = _load_bound(args)
    series = _series_row(panel, args.series)
    config = _fw_config(args)
    samples = forecaster.build_rolling_windows(series, config, calendar)
    model = forecaster.train(samples, _arch(args), _loss_cfg(args), _train_cfg(args))
    out = _out_dir(args)
    model_path = out / f"model_{args.series}.json"
    forecaster.save_model(model, model_path)
    reports.write_rows(out / "training_log.csv", ["epoch", "loss"], enumerate(model.loss_history))
    print(
        f"trained on {len(samples)} windows; final epoch loss "
        f"{model.loss_history[-1]:.6f}; wrote {model_path}"
    )
    return 0


def _cmd_extract(args) -> int:
    panel, calendar = _load_bound(args)
    series = _series_row(panel, args.series)
    model = forecaster.load_model(args.model)
    window = _occurrence(calendar, args.event, args.occurrence)
    control = forecaster.insample_forecast(model, series, args.stride, aggregate=args.aggregate)
    delta_hat = forecaster.extract_effect(control, series, window)
    out = _out_dir(args)
    reports.write_effect_csv(out / "effect.csv", delta_hat)
    context = _plot_start(window)
    stop = min(len(series), window.t0 + window.d + 1 + window.d)
    reports.svg_line_plot(
        out / "synthetic_plot.svg",
        {
            "observed": series[context:stop],
            "synthetic control": control[context:stop],
        },
        x=np.arange(context, stop),
        shaded=(window.t0 + 1, window.t0 + window.d),
        title=f"{args.series}: observed vs synthetic control ({args.event})",
    )
    print(
        f"extracted effect for {args.event} on {args.series}: [{_summary(delta_hat)}]; "
        f"wrote {out / 'effect.csv'} and {out / 'synthetic_plot.svg'}"
    )
    return 0


def _cmd_baseline_df(args) -> int:
    panel, calendar = _load_bound(args)
    series = _series_row(panel, args.series)
    window = _occurrence(calendar, args.event, args.occurrence)
    control = baselines.direct_forecast(
        series,
        window,
        _fw_config(args),
        arch=_arch(args),
        train_cfg=_train_cfg(args),
        predictor=args.predictor,
    )
    delta_hat = forecaster.extract_effect(control, series, window)
    out = _out_dir(args)
    reports.write_effect_csv(out / "df_effect.csv", delta_hat)
    t = np.flatnonzero(~np.isnan(control))  # the forecast days
    reports.write_rows(out / "df_control.csv", ["t", "value"], zip(t, control[t]))
    print(
        f"direct-forecast ({args.predictor}) effect for {args.event} on "
        f"{args.series}: [{_summary(delta_hat)}]; wrote {out / 'df_effect.csv'} and "
        f"{out / 'df_control.csv'}"
    )
    return 0


def _cmd_baseline_sd(args) -> int:
    panel, calendar = _load_bound(args)
    series = _series_row(panel, args.series)
    window = _occurrence(calendar, args.event, args.occurrence)
    periods = list(_ints(args.periods))
    decomposition, control = baselines.seasonal_decompose(series, periods, window)
    delta_hat = forecaster.extract_effect(control, series, window)
    total = decomposition.fitted_total
    out = _out_dir(args)
    reports.write_rows(
        out / "sd_control.csv",
        ["t", "control", "total"],
        ((t, control[t], total[t]) for t in window.indices),
    )
    ordered = sorted(periods)
    seasonal = [decomposition.seasonal_components[p] for p in ordered]
    reports.write_rows(
        out / "decomposition.csv",
        ["t", "trend", *(f"seasonal_{p}" for p in ordered), "remainder"],
        (
            (t, decomposition.trend[t], *(c[t] for c in seasonal), decomposition.remainder[t])
            for t in range(len(series))
        ),
    )
    print(
        f"seasonal-decomposition effect for {args.event} on {args.series}: "
        f"[{_summary(delta_hat)}]; wrote {out / 'sd_control.csv'} and "
        f"{out / 'decomposition.csv'}"
    )
    return 0


def _cmd_impact(args) -> int:
    model_flags = [flag for flag, value in (("--model", args.model), ("--stride", args.stride))
                   if value is not None]
    if args.method == "ar" and model_flags:
        raise ValidationError(f"--method ar does not use {' or '.join(model_flags)}")
    panel, calendar = _load_bound(args)
    series = _series_row(panel, args.series)
    occurrences = calendar.occurrences(args.event)
    training_years, _ = impact.split_occurrences(args.event, occurrences)  # before any fit
    scales = [impact.year_scale(series, w, args.scale_mode, panel.time_index) for w in occurrences]
    if args.method == "model":
        if args.model is None:
            raise ValidationError("--method model needs --model")
        model = forecaster.load_model(args.model)
        stride = 1 if args.stride is None else args.stride
        control = forecaster.insample_forecast(model, series, stride)
    else:
        control = ar.recursive_control(series, training_years, skip=calendar.windows())
    ratios, predicted = impact.impact_for_series(args.event, series, occurrences, control, scales)
    out = _out_dir(args)
    reports.write_impact_csv(out / "impact.csv", [(args.event, ratios, scales[:-1])])
    reports.write_rows(
        out / "prediction.csv", ["k", "predicted_effect"], enumerate(predicted, start=1)
    )
    print(
        f"predicted {args.event} effect for the target year (scale "
        f"{scales[-1]:.4f}): [{_summary(predicted)}]; wrote {out / 'impact.csv'} and "
        f"{out / 'prediction.csv'}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    panel, calendar = _load_bound(args)
    names = args.events.split(",") if args.events else None
    report = evaluation.evaluate_panel(
        panel,
        calendar,
        event_names=names,
        fw_config=_fw_config(args),
        arch=_arch(args),
        loss_cfg=_loss_cfg(args),
        train_cfg=_train_cfg(args),
        periods=list(_ints(args.periods)),
        scale_mode=args.scale_mode,
    )
    out = _out_dir(args)
    reports.write_rows(
        out / "mape.csv",
        ["department", "event", "SD", "DF", "ours"],
        ((r.series_id, r.event, r.mape_sd, r.mape_df, r.mape_ours) for r in report.results),
    )
    reports.write_impact_csv(
        out / "impact.csv",
        [(f"{r.series_id}/{r.event}", r.ratios, r.scales) for r in report.results],
    )
    reports.write_rows(
        out / "predictions.csv",
        ["department", "event", "k", "predicted_effect", "control", "observed"],
        (
            (r.series_id, r.event, k + 1, r.predicted_effect[k], r.control_ours[k], r.observed[k])
            for r in report.results
            for k in range(len(r.predicted_effect))
        ),
    )
    means = report.mean_mape()
    print(
        f"mean MAPE over {len(report.results)} (series, event) pairs: "
        f"SD={means['SD']:.2f} DF={means['DF']:.2f} ours={means['ours']:.2f}; "
        f"wrote mape.csv, impact.csv, predictions.csv in {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="eventlift",
        description="Estimate effects of recurring rare events in panel time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a panel with an injected event effect")
    _add_spec_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of series")
    p.add_argument("--t0", type=int, required=True, help="last pre-event index")
    p.add_argument("--d", type=int, required=True, help="event window length")
    p.add_argument("--delta", required=True, help="per-day effects, e.g. 2,-1,0.5")
    p.add_argument("--extra-days", type=int, default=0, help="days to simulate past the window")
    p.add_argument("--start-date", type=datetime.date.fromisoformat, default="2013-01-01")
    p.add_argument("--event-name", default="event")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fit-ar", help="fit the autoregressive model on pre-event data")
    _add_inputs(p, calendar=False)
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fit_ar)

    p = sub.add_parser("estimate", help="recursive-counterfactual effect estimate with CIs")
    _add_inputs(p, event=True, occurrence=0)
    p.add_argument("--fit-t0", type=int, default=None, help="override the fit range")
    p.add_argument("--level", type=_level, default=0.95)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("mc-validate", help="replication study of the estimator")
    _add_spec_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--level", type=_level, default=0.95)
    p.add_argument(
        "--jobs", type=int, default=1, help="worker threads, capped at the CPUs available"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_mc_validate)

    p = sub.add_parser("rate-check", help="root-N convergence check for the AR fit")
    _add_spec_flags(p)
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--grid", required=True, help="panel widths, e.g. 250,1000")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_rate_check)

    p = sub.add_parser("train", help="train the adaptively weighted forecaster")
    _add_inputs(p, series=True)
    _add_training_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("extract", help="in-sample synthetic control and effect")
    _add_inputs(p, event=True, series=True)
    p.add_argument("--model", required=True)
    p.add_argument("--occurrence", type=int, default=-1)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--aggregate", choices=["mean", "median"], default="mean")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("baseline-df", help="direct out-of-sample forecast baseline")
    _add_inputs(p, event=True, series=True, occurrence=-1)
    p.add_argument("--predictor", choices=["mlp", "ar1"], default="mlp")
    # the direct forecast trains with uniform absolute weights: no loss flags
    _add_training_flags(p, loss=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_baseline_df)

    p = sub.add_parser("baseline-sd", help="seasonal-decomposition baseline")
    _add_inputs(p, event=True, series=True, occurrence=-1)
    p.add_argument("--periods", default="7,365")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_baseline_sd)

    p = sub.add_parser("impact", help="impact ratios and next-occurrence prediction")
    _add_inputs(p, event=True, series=True)
    p.add_argument("--method", choices=["ar", "model"], default="ar")
    p.add_argument("--model", default=None, help="model file for --method model")
    p.add_argument("--stride", type=int, default=None, help="for --method model (default 1)")
    p.add_argument(
        "--scale-mode",
        choices=["pre_event_month", "calendar_month"],
        default="pre_event_month",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_impact)

    p = sub.add_parser("evaluate", help="compare ours vs DF vs SD on every series")
    _add_inputs(p)
    p.add_argument("--events", default=None, help="comma-separated subset of events")
    _add_training_flags(p)
    p.add_argument("--periods", default="7,365")
    p.add_argument(
        "--scale-mode",
        choices=["pre_event_month", "calendar_month"],
        default="pre_event_month",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
