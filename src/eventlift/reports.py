"""Report emission: CSV tables with fixed headers and standalone SVG plots.

Everything written here is a pure function of its inputs with fixed float
formatting, so repeated runs produce byte-identical files.  Every output
table is written by ``write_rows``, by the command that owns it or through
a writer here that several commands share (``write_effect_csv``,
``write_impact_csv``); the input formats ``simulate`` writes stay in
``dataio`` (panel.csv: series_id,date,value; calendar.csv:
event,start_date,end_date).  Plots are plain SVG assembled by hand; no
rendering library is involved and the output parses as well-formed XML.

CSV schemas (k is the 1-based window day, t a 0-based time index):

* effect estimates:   k,delta_hat,lower,upper     (effect.csv, df_effect.csv)
* AR fit:             phi_hat,sigma2_hat,n_pairs   (ar_fit.csv)
* MC per-component:   component,mean_bias,empirical_var,theoretical_var_finite,
                      theoretical_var_asymptotic,ci_coverage,skewness,excess_kurtosis
                      (mc_report.csv; mc_notes.txt beside it holds one note a line)
* MC cross-covariance: k,l,empirical,reference     (mc_crosscov.csv; scaled
                      errors, 1-based)
* rate check:         n_small,n_large,sd_small,sd_large,ratio,expected_ratio
                      (rate_report.csv)
* training log:       epoch,loss                   (training_log.csv, epoch from 0)
* forecast control:   t,value                      (df_control.csv, supported t only)
* SD control:         t,control,total              (sd_control.csv, window days)
* decomposition:      t,trend,seasonal_<p>...,remainder   (decomposition.csv,
                      one seasonal column per period, ascending)
* impact ratios:      event,year,k,ratio,scale     (impact.csv; year: 0-based
                      training-year index)
* prediction:         k,predicted_effect           (prediction.csv)
* MAPE comparison:    department,event,SD,DF,ours  (mape.csv)
* evaluation:         department,event,k,predicted_effect,control,observed
                      (predictions.csv)
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from .dataio import _csv_line

__all__ = [
    "write_rows",
    "write_effect_csv",
    "write_impact_csv",
    "svg_line_plot",
    "svg_histogram",
]


def _cell(value):
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def write_rows(path, header, rows) -> None:
    """Write one CSV table: UTF-8, "\\n" line ends, the header row first.

    Float cells are written as ``repr(float(x))``, the shortest exact
    round-trip; other cells as given.  Each row is one ``dataio._csv_line``,
    the rule of the panel and calendar files: a cell holding a carriage
    return is quoted, so an id or event name loads back whatever it holds.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(header))
        fh.writelines(_csv_line([_cell(v) for v in row]) for row in rows)


def write_effect_csv(path, delta_hat, cis=None) -> None:
    """One row per window day: the (d,) effect and, when given, its intervals."""
    rows = []
    for k, value in enumerate(delta_hat):
        lo, hi = ("", "") if cis is None else map(float, cis[k])
        rows.append([k + 1, value, lo, hi])
    write_rows(path, ["k", "delta_hat", "lower", "upper"], rows)


def write_impact_csv(path, labeled: list[tuple]) -> None:
    """Rows of each (label, (K, d) ratios, (K,) scales) triple: the label in
    the ``event`` column, the 0-based training-year row index in ``year``."""
    rows = []
    for label, ratios, scales in labeled:
        for year, (ratio, scale) in enumerate(zip(ratios, scales)):
            rows.extend([label, year, k + 1, v, scale] for k, v in enumerate(ratio))
    write_rows(path, ["event", "year", "k", "ratio", "scale"], rows)


# ---------------------------------------------------------------------------
# SVG plotting

_WIDTH = 800
_HEIGHT = 400
_MARGIN_LEFT = 60
_MARGIN_RIGHT = 20
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 40
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_HIST_BINS = 40


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


def svg_histogram(path, values: np.ndarray, title: str = "") -> None:
    """Density histogram of the finite values in 40 bins, with the standard
    normal density drawn over it."""
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise ValueError("need at least one finite value to plot")
    counts, edges = np.histogram(vals, bins=_HIST_BINS, density=True)
    y_hi = max(float(counts.max()), 1.0 / math.sqrt(2 * math.pi))
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
    grid = np.linspace(edges[0], edges[-1], 200)
    pdf = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
    points = " ".join(f"{_coord(sx(xv))},{_coord(sy(yv))}" for xv, yv in zip(grid, pdf))
    canvas.add(
        f'<polyline points="{points}" fill="none" stroke="#d62728" stroke-width="1.5"/>'
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canvas.finish())
