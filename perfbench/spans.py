"""In-memory spans recorded around calls into eventlift's public functions.

The library itself is not instrumented.  ``Tracer.patched`` swaps each
listed function, in every ``eventlift`` module that holds a reference to it,
for a wrapper that records a span, and puts the originals back on exit.
Spans carry (id, name, start, end, parent, run, thread) plus optional
counts, stay in memory, and are written as JSON lines at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import sys
import threading
import time


def _insample_name(args, kwargs):
    aggregate = kwargs.get("aggregate", args[3] if len(args) > 3 else "mean")
    return f"forecaster.insample_forecast.{aggregate}"


# (module, attribute, span name or a function of the call's arguments, counts)
TARGETS = [
    ("panel", "simulate_ar1_panel", "panel.simulate_ar1_panel", None),
    ("panel", "inject_treatment", "panel.inject_treatment", None),
    ("ar", "fit_ar1_ols", "ar.fit_ar1_ols", None),
    ("ar", "forecast_counterfactual", "ar.forecast_counterfactual", None),
    ("ar", "estimate_effect", "ar.estimate_effect", None),
    ("ar", "effect_covariance", "ar.effect_covariance", None),
    ("ar", "confidence_intervals", "ar.confidence_intervals", None),
    ("montecarlo", "run_replications", "montecarlo.run_replications", None),
    ("forecaster", "build_rolling_windows", "forecaster.build_rolling_windows", None),
    ("forecaster", "train", "forecaster.train",
     lambda a, k, r: {"epochs": len(r.loss_history)}),
    ("forecaster", "insample_forecast", _insample_name, None),
    ("forecaster", "extract_effect", "forecaster.extract_effect", None),
    ("forecaster", "load_model", "forecaster.load_model", None),
    ("baselines", "direct_forecast", "baselines.direct_forecast", None),
    ("baselines", "seasonal_decompose", "baselines.seasonal_decompose", None),
    ("impact", "year_scale", "impact.year_scale", None),
    ("impact", "model_from_estimates", "impact.model_from_estimates", None),
    ("impact", "predict_effect", "impact.predict_effect", None),
    ("impact", "evaluate_mape", "impact.evaluate_mape", None),
    ("evaluation", "evaluate_panel", "evaluation.evaluate_panel", None),
    ("dataio", "load_panel_csv", "dataio.load_panel_csv",
     lambda a, k, r: {"rows": int(r.values.size)}),
    ("dataio", "write_panel_csv", "dataio.write_panel_csv",
     lambda a, k, r: {"rows": int((a[1] if len(a) > 1 else k["panel"]).values.size)}),
    ("dataio", "load_calendar", "dataio.load_calendar", None),
    ("dataio", "write_calendar_csv", "dataio.write_calendar_csv", None),
    ("dataio", "bind_calendar", "dataio.bind_calendar", None),
    ("reports", "write_effect_csv", "reports.write_effect_csv", None),
    ("reports", "write_impact_csv", "reports.write_impact_csv", None),
    ("reports", "svg_line_plot", "reports.svg_line_plot", None),
]


class NullTracer:
    """Tracing off: spans cost one ``nullcontext``."""

    run = None

    def span(self, name, **counts):
        return contextlib.nullcontext()

    def patched(self):
        return contextlib.nullcontext()


class Tracer:
    """Records spans; ``run`` labels every span opened while it is set.

    A span opened on a worker thread that has no open span of its own takes
    as parent the innermost span open on the thread that created the tracer
    (the thread blocked in the call that started the workers).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._local.stack = self._owner_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, **counts):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._owner_stack[-1] if self._owner_stack else None
        )
        span_id = next(self._ids)
        stack.append(span_id)
        record = {"id": span_id, "name": name, "parent": parent, "run": self.run,
                  "thread": threading.get_ident(), **counts}
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record.update(counts(args, kwargs, result))
                return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every TARGETS function, and PanelSeries construction."""
        from eventlift import panel

        modules = [m for n, m in list(sys.modules.items())
                   if n == "eventlift" or n.startswith("eventlift.")]
        undo = []
        for mod_name, attr, name, counts in TARGETS:
            original = getattr(sys.modules[f"eventlift.{mod_name}"], attr)
            wrapper = self._wrap(original, name, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        post_init = panel.PanelSeries.__post_init__
        panel.PanelSeries.__post_init__ = self._wrap(post_init, "panel.PanelSeries", None)
        try:
            yield self
        finally:
            panel.PanelSeries.__post_init__ = post_init
            for mod, key, original in undo:
                setattr(mod, key, original)


def write_jsonl(path, records) -> None:
    """One span per line, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in sorted(records, key=lambda r: r["start"]):
            fh.write(json.dumps(record) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inside = [(max(lo, s["start"]), min(hi, s["end"]))
                  for lo, hi in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(inside)
    return out


def per_call(spans, name) -> float | None:
    """Mean seconds per call of the spans named ``name``."""
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return statistics.fmean(durations) if durations else None
