"""Report emission: CSV tables with fixed headers and standalone SVG plots.

Everything written here is a pure function of its inputs with fixed float
formatting, so repeated runs produce byte-identical files.  Every output
table goes through ``write_rows``; the input formats ``simulate`` writes stay
in ``dataio`` (panel.csv: series_id,date,value; calendar.csv:
event,start_date,end_date).  Plots are plain SVG assembled by hand; no
rendering library is involved and the output parses as well-formed XML.

CSV schemas (k is the 1-based window day, t a 0-based time index):

* effect estimates:   k,delta_hat,lower,upper     (effect.csv, df_effect.csv)
* MC per-component:   component,mean_bias,empirical_var,theoretical_var_finite,
                      theoretical_var_asymptotic,ci_coverage,skewness,excess_kurtosis
* MC cross-covariance: k,l,empirical,reference     (scaled errors, 1-based)
* rate check:         n_small,n_large,sd_small,sd_large,ratio,expected_ratio
* impact ratios:      event,year,k,ratio,scale
* MAPE comparison:    department,event,SD,DF,ours

and the tables the CLI passes to ``write_rows`` directly:

* AR fit:             phi_hat,sigma2_hat,n_pairs   (ar_fit.csv)
* training log:       epoch,loss                   (training_log.csv, epoch from 0)
* forecast control:   t,value                      (df_control.csv, supported t only)
* SD control:         t,control,total              (sd_control.csv, window days)
* decomposition:      t,trend,seasonal_<p>...,remainder   (decomposition.csv,
                      one seasonal column per period, ascending)
* prediction:         k,predicted_effect           (prediction.csv)
* evaluation:         department,event,k,predicted_effect,control,observed
                      (predictions.csv)
"""

from __future__ import annotations

import csv
import math
from xml.sax.saxutils import escape

import numpy as np

from .impact import ImpactRatioModel
from .montecarlo import MonteCarloReport, RateReport

__all__ = [
    "write_rows",
    "write_effect_csv",
    "write_mc_report_csv",
    "write_crosscov_csv",
    "write_notes",
    "write_rate_csv",
    "write_impact_csv",
    "write_mape_csv",
    "svg_line_plot",
    "svg_histogram",
]


def _cell(value):
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def write_rows(path, header, rows) -> None:
    """Write one CSV table: UTF-8, "\\n" line ends, the header row first.

    Float cells are written as ``repr(float(x))``, the shortest exact
    round-trip; other cells as given.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_effect_csv(path, delta_hat, cis=None) -> None:
    """One row per window day: the (d,) effect and, when given, its intervals."""
    rows = []
    for k, value in enumerate(delta_hat):
        lo, hi = ("", "") if cis is None else map(float, cis[k])
        rows.append([k + 1, value, lo, hi])
    write_rows(path, ["k", "delta_hat", "lower", "upper"], rows)


def write_mc_report_csv(path, report: MonteCarloReport) -> None:
    write_rows(
        path,
        [
            "component",
            "mean_bias",
            "empirical_var",
            "theoretical_var_finite",
            "theoretical_var_asymptotic",
            "ci_coverage",
            "skewness",
            "excess_kurtosis",
        ],
        (
            [
                k + 1,
                comp.mean_bias,
                comp.empirical_var_scaled,
                comp.theoretical_var_finite,
                comp.theoretical_var_asymptotic,
                comp.ci_coverage,
                comp.skewness,
                comp.excess_kurtosis,
            ]
            for k, comp in enumerate(report.per_component)
        ),
    )


def write_crosscov_csv(path, report: MonteCarloReport) -> None:
    d = report.cross_cov_scaled.shape[0]
    write_rows(
        path,
        ["k", "l", "empirical", "reference"],
        (
            [k + 1, l + 1, report.cross_cov_scaled[k, l], report.cross_cov_oracle[k, l]]
            for k in range(d)
            for l in range(d)
        ),
    )


def write_notes(path, notes: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in notes:
            fh.write(line + "\n")


def write_rate_csv(path, report: RateReport) -> None:
    write_rows(
        path,
        ["n_small", "n_large", "sd_small", "sd_large", "ratio", "expected_ratio"],
        (
            [p.n_small, p.n_large, p.sd_small, p.sd_large, p.ratio, p.expected_ratio]
            for p in report.pairs
        ),
    )


def write_impact_csv(path, labeled: list[tuple[str, ImpactRatioModel]]) -> None:
    """Rows of each (label, model) pair, the label in the ``event`` column."""
    rows = []
    for label, model in labeled:
        for year in sorted(model.per_year):
            ratio, scale = model.per_year[year]
            rows.extend([label, year, k + 1, v, scale] for k, v in enumerate(ratio))
    write_rows(path, ["event", "year", "k", "ratio", "scale"], rows)


def write_mape_csv(path, rows: list[tuple]) -> None:
    """Rows are (department, event, sd_mape, df_mape, ours_mape)."""
    write_rows(
        path,
        ["department", "event", "SD", "DF", "ours"],
        ([dep, event, float(sd), float(df), float(ours)] for dep, event, sd, df, ours in rows),
    )


# ---------------------------------------------------------------------------
# SVG plotting

_WIDTH = 800
_HEIGHT = 400
_MARGIN_LEFT = 60
_MARGIN_RIGHT = 20
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 40
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _coord(v: float) -> str:
    return f"{v:.3f}"


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        ]
        if title:
            self.parts.append(
                f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
                f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
            )

    def add(self, element: str) -> None:
        self.parts.append(element)

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _scales(x_lo, x_hi, y_lo, y_hi):
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _HEIGHT - _MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * plot_h

    return sx, sy, (x_lo, x_hi, y_lo, y_hi)


def _axes(canvas: _Canvas, sx, sy, bounds) -> None:
    x_lo, x_hi, y_lo, y_hi = bounds
    x0, x1 = _coord(sx(x_lo)), _coord(sx(x_hi))
    y0, y1 = _coord(sy(y_lo)), _coord(sy(y_hi))
    canvas.add(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    canvas.add(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        canvas.add(
            f'<text x="{_coord(sx(xv))}" y="{_HEIGHT - _MARGIN_BOTTOM + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        canvas.add(
            f'<text x="{_MARGIN_LEFT - 6}" y="{_coord(sy(yv))}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )


def svg_line_plot(
    path,
    series: dict[str, np.ndarray],
    x=None,
    shaded: tuple[int, int] | None = None,
    title: str = "",
) -> None:
    """Line plot of one or more equal-length series.

    ``shaded`` marks an inclusive x-interval (the event window) with a grey
    band behind the lines.
    """
    arrays = {name: np.asarray(vals, dtype=float) for name, vals in series.items()}
    if not arrays:
        raise ValueError("need at least one series to plot")
    length = len(next(iter(arrays.values())))
    xs = np.arange(length) if x is None else np.asarray(x, dtype=float)
    finite = np.concatenate([v[np.isfinite(v)] for v in arrays.values()])
    y_lo, y_hi = float(finite.min()), float(finite.max())
    sx, sy, bounds = _scales(float(xs.min()), float(xs.max()), y_lo, y_hi)

    canvas = _Canvas(title)
    if shaded is not None:
        lo, hi = shaded
        canvas.add(
            f'<rect x="{_coord(sx(lo))}" y="{_MARGIN_TOP}" '
            f'width="{_coord(sx(hi) - sx(lo))}" '
            f'height="{_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM}" fill="#dddddd"/>'
        )
    _axes(canvas, sx, sy, bounds)
    for idx, (name, vals) in enumerate(arrays.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{_coord(sx(xv))},{_coord(sy(yv))}"
            for xv, yv in zip(xs, vals)
            if math.isfinite(yv)
        )
        canvas.add(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        canvas.add(
            f'<text x="{_WIDTH - _MARGIN_RIGHT - 6}" y="{_MARGIN_TOP + 14 + 16 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{escape(name)}</text>'
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canvas.finish())


def svg_histogram(
    path,
    values: np.ndarray,
    bins: int = 40,
    overlay_normal: bool = True,
    title: str = "",
) -> None:
    """Density histogram with an optional standard-normal overlay."""
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise ValueError("need at least one finite value to plot")
    counts, edges = np.histogram(vals, bins=bins, density=True)
    y_hi = float(counts.max())
    if overlay_normal:
        y_hi = max(y_hi, 1.0 / math.sqrt(2 * math.pi))
    sx, sy, bounds = _scales(float(edges[0]), float(edges[-1]), 0.0, y_hi)

    canvas = _Canvas(title)
    _axes(canvas, sx, sy, bounds)
    base = sy(0.0)
    for i, c in enumerate(counts):
        x_left = sx(edges[i])
        x_right = sx(edges[i + 1])
        top = sy(float(c))
        canvas.add(
            f'<rect x="{_coord(x_left)}" y="{_coord(top)}" '
            f'width="{_coord(x_right - x_left)}" height="{_coord(base - top)}" '
            f'fill="#1f77b4" fill-opacity="0.6" stroke="#1f77b4" stroke-width="0.5"/>'
        )
    if overlay_normal:
        grid = np.linspace(edges[0], edges[-1], 200)
        pdf = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
        points = " ".join(
            f"{_coord(sx(xv))},{_coord(sy(yv))}" for xv, yv in zip(grid, pdf)
        )
        canvas.add(
            f'<polyline points="{points}" fill="none" stroke="#d62728" stroke-width="1.5"/>'
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canvas.finish())
