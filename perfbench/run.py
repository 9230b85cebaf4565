"""eventlift benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mc_ar --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload cli_files --seed 2 --seconds 1 --size smoke

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` alternates untraced and traced operations, derives the per-layer
metrics from the traced ones, and reports the tracing overhead as the
traced minus the untraced median operation time.  Per-layer metrics of
functions the workload never calls come from traced smoke-size runs of the
workloads that do call them.  ``--workload all`` runs every workload in its
own process and prints every headline metric by name.

End-to-end timings are scaled to a reference machine speed, sampled between
operations with a fixed piece of work (see reference.py): ``items_per_s_norm``
is throughput in the workload's items (replications, (series, event) pairs,
CLI chains) and ``setup_s`` the set-up time, both as they would read at that
speed.  The measured values are printed and recorded beside them.

The workloads, metric names and units are read from BENCHMARK.json.  Human-
readable lines go first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A full record
(environment, parameters, counts, checks) goes to perfbench/out/, and with
``--trace 1`` the spans go there as JSON lines.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# share of each operation's time spent sampling the machine's speed
REF_SHARE = 0.25
CLI_COMMANDS = ["simulate", "fit-ar", "estimate", "extract-median", "extract-mean",
                "baseline-sd", "impact"]
PER_CALL = [
    "panel.simulate_ar1_panel", "panel.PanelSeries", "panel.inject_treatment",
    "ar.fit_ar1_ols", "ar.forecast_counterfactual", "ar.estimate_effect",
    "ar.effect_covariance", "ar.confidence_intervals",
    "forecaster.build_rolling_windows", "forecaster.train",
    "forecaster.insample_forecast.mean", "forecaster.insample_forecast.median",
    "baselines.direct_forecast", "baselines.seasonal_decompose",
    "evaluation.evaluate_panel",
    "dataio.write_panel_csv", "dataio.load_panel_csv", "dataio.load_calendar",
    "dataio.bind_calendar", "reports.write_effect_csv", "reports.svg_line_plot",
] + [f"cli.{c}" for c in CLI_COMMANDS]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["mc_ar", "retail_eval", "cli_files", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(wl, workloads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return dict(nproc=workloads.nproc(), cpu=cpu, machine=platform.machine(),
                python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
                blas_threads=blas_threads(),
                openblas_num_threads_env=os.environ.get("OPENBLAS_NUM_THREADS"),
                worker_threads=wl.threads)


def measure(wl, seconds, tracer, null, traced_op, min_ops, ref):
    """Run operations for about ``seconds``; ``traced_op(i)`` picks the tracer.

    Before each operation ``ref`` samples the machine's speed for a quarter
    of a typical operation's time.  Returns (op records, attempted, failed).
    Only the operation itself is timed; the speed sample, installing the span
    wrappers and per-op verification are not.
    """
    ops, attempted, failed = [], 0, 0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(o["s"] for o in ops) if ops else 0.0
        if i >= min_ops and elapsed + typical / 2 >= seconds:
            break
        ref.sample(REF_SHARE * typical)
        t = tracer if traced_op(i) else null
        t.run = f"{wl.name}:op{i}"
        attempted += wl.subops
        try:
            with t.patched():
                began = time.perf_counter()
                n_failed = wl.op(i, t)
                took = time.perf_counter() - began
        except Exception:
            traceback.print_exc()
            failed += wl.subops
        else:
            failed += n_failed
            ops.append({"index": i, "s": took, "traced": t is tracer})
            wl.after_op(i)
        i += 1
    return ops, attempted, failed


def run_checks(wl, tracer):
    tracer.run = f"{wl.name}:check"
    try:
        with tracer.patched():
            return wl.checks(tracer)
    except Exception as exc:
        traceback.print_exc()
        return [("output checks ran", False, repr(exc))]


def _subtree(records, root_name):
    """Every descendant of the spans named ``root_name``."""
    roots = {s["id"] for s in records if s["name"] == root_name}
    inside, grew = set(roots), True
    while grew:
        extra = {s["id"] for s in records if s["parent"] in inside} - inside
        inside |= extra
        grew = bool(extra)
    return [s for s in records if s["id"] in inside and s["id"] not in roots]


def per_layer(tracer_spans) -> dict[str, float]:
    """Per-layer metrics from one source's spans; absent layers are left out."""
    ops = [s for s in tracer_spans if ":op" in s["run"]]
    serial = _subtree(tracer_spans, "bench.mc_jobs1_check")
    selfs = spans.self_times(tracer_spans)
    out = {}
    for name in PER_CALL:
        source = serial if serial and name.split(".")[0] in ("panel", "ar") else ops
        value = spans.per_call(source, name)
        if value is not None:
            out[f"{name}.s"] = value

    def total(name, key=None, source=ops):
        chosen = [s for s in source if s["name"] == name]
        return (sum((s[key] if key else s["end"] - s["start"]) for s in chosen), len(chosen))

    train_s, calls = total("forecaster.train")
    if calls:
        out["forecaster.train.epoch_s"] = train_s / total("forecaster.train", "epochs")[0]
    for name in ("dataio.write_panel_csv", "dataio.load_panel_csv"):
        took, calls = total(name)
        if calls:
            out[f"{name}.rows_per_s"] = total(name, "rows")[0] / took
    pairs = total("impact.predict_effect")[1]
    if pairs:
        out["impact.s"] = sum(total(f"impact.{n}")[0] for n in
                              ("year_scale", "model_from_estimates", "predict_effect")) / pairs
    for name, metric in [("evaluation.evaluate_panel", "evaluation.self_s")] + [
            (f"cli.{c}", f"cli.{c}.self_s") for c in CLI_COMMANDS]:
        own = [selfs[s["id"]] for s in ops if s["name"] == name]
        if own:
            out[metric] = statistics.fmean(own)
    if serial:
        run = next(s for s in serial if s["name"] == "montecarlo.run_replications")
        children = [s for s in serial if s["parent"] == run["id"]]
        reps = sum(1 for s in children if s["name"] == "panel.simulate_ar1_panel")
        wall = run["end"] - run["start"]
        busy = sum(s["end"] - s["start"] for s in children)
        parallel = [s["end"] - s["start"] for s in ops if s["name"] == "montecarlo.run_replications"]
        out["montecarlo.replication.s"] = busy / reps
        out["montecarlo.run_replications.jobs1.s"] = wall
        out["montecarlo.aggregate.s"] = wall - busy
        if parallel:
            out["montecarlo.speedup_jobs_n_vs_1"] = wall / statistics.median(parallel)
    return out


def probe(name, seed, workloads):
    """Traced smoke-size run of another workload, for the layers it calls."""
    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"probe-{name}-") as tmp:
        wl = workloads.WORKLOADS[name](seed, "smoke", Path(tmp))
        wl.setup()
        measure(wl, 0.0, tracer, tracer, lambda i: True, wl.min_ops,
                reference.Reference(wl.reference, wl.threads))
        checks = run_checks(wl, tracer)
        accuracy = wl.accuracy()
    for record in tracer.spans:
        record["run"] = f"probe-{record['run']}"
    return tracer.spans, per_layer(tracer.spans), accuracy, checks


def run_one(args, spec) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    began = time.perf_counter()
    import eventlift  # noqa: F401  (import time is part of set-up)
    import_s = time.perf_counter() - began

    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    traced = bool(args.trace)
    null, tracer = spans.NullTracer(), spans.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, Path(tmp))
        ref = reference.Reference(wl.reference, wl.threads)
        setup_times = [0.0]
        for _ in range(1 if traced else SETUP_REPEATS):
            ref.sample(REF_SHARE * setup_times[-1])
            began = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - began)
        setup_times.pop(0)
        ops, attempted, failed = measure(
            wl, args.seconds, tracer, null,
            (lambda i: i % 2 == 1) if traced else (lambda i: False),
            max(wl.min_ops, 2 if traced else 1), ref,
        )
        checks = run_checks(wl, tracer if traced else null)
        accuracy = wl.accuracy()
        counts = wl.counts()

    plain = [o["s"] for o in ops if not o["traced"]]
    op_s = statistics.median(plain)
    setup_s = import_s + statistics.median(setup_times)
    values = {
        "items_per_s_norm": wl.items_per_op() / op_s / ref.speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s * ref.speed,
    }
    headline = {
        **wl.headline(op_s),
        **accuracy,
        "items_per_s": (wl.items_per_op() / op_s, "1/s"),
        "items_per_s_norm": (values["items_per_s_norm"], "1/s"),
        "setup_s_measured": (setup_s, "s"),
        "setup_s": (values["setup_s"], "s"),
        "peak_rss_mb": (values["peak_rss_mb"], "MB"),
        "machine_speed": (ref.speed, "x"),
    }
    section = "end_to_end"
    sources = {}
    if traced:
        section = "per_layer"
        layer = per_layer(tracer.spans)
        sources = {k: args.workload for k in [*layer, *accuracy]}
        all_spans = list(tracer.spans)
        for other in workloads.WORKLOADS:
            if other == args.workload:
                continue
            probe_spans, probe_layer, probe_acc, probe_checks = probe(
                other, args.seed, workloads)
            all_spans += probe_spans
            checks += [(f"{other} smoke probe: {n}", ok, d) for n, ok, d in probe_checks]
            probe_acc = {k: v for k, (v, _) in probe_acc.items()}
            for k, v in {**probe_layer, **probe_acc}.items():
                if k not in layer and k not in accuracy:
                    layer[k] = v
                    sources[k] = f"{other} (smoke probe)"
        traced_s = statistics.median(o["s"] for o in ops if o["traced"])
        values = {**layer, **{k: v for k, (v, _) in accuracy.items()},
                  "trace.overhead_s": traced_s - op_s}
        headline["trace.overhead_frac"] = (traced_s / op_s - 1.0, "ratio")
        spans.write_jsonl(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", all_spans)

    attempted += len(checks)
    failed += sum(1 for _, ok, _ in checks if not ok)
    headline["failed_frac"] = (failed / attempted, "ratio")
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    env = environment(wl, workloads)
    record = dict(workload=args.workload, why=why, seed=args.seed, size=args.size,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  params=wl.params(), item=wl.item, items_per_op=wl.items_per_op(),
                  counts_per_op_from_input_sizes=counts, ops=ops,
                  reference_units=ref.units, reference_s=ref.seconds,
                  setup_times_s=setup_times, import_s=import_s,
                  checks=[dict(name=n, ok=ok, detail=d) for n, ok, d in checks],
                  headline={k: {"value": v, "unit": u} for k, (v, u) in headline.items()},
                  metric_sources=sources, metrics=metrics)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} (seed {args.seed}, size {args.size}, "
          f"{args.seconds:g} s, trace {args.trace}): {why}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("params: " + json.dumps(wl.params()))
    print("counts per op, computed from input sizes: "
          + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"ops: {len(ops)} ({sum(o['traced'] for o in ops)} traced), "
          f"{wl.items_per_op()} {wl.item} each, median {op_s:.4f} s untraced")
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for name, (value, unit) in headline.items():
        print(f"{name} = {value:.6g} {unit}")
    if traced:
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']}"
                  + (f"  [{sources[name]}]" if name in sources else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of headline metrics."""
    rows, attempted, failed, correct, metrics = [], 0, 0, True, {}
    for name in ("mc_ar", "retail_eval", "cli_files"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", encoding="utf-8") as fh:
            record = json.load(fh)
        rows += [(name, k, v["value"], v["unit"]) for k, v in record["headline"].items()]
    print("\nheadline metrics")
    for name, metric, value, unit in rows:
        print(f"  {name:<12} {metric:<24} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eventlift" / "__init__.py").is_file():
        print(f"error: eventlift sources not found under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
