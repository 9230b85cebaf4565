import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import eventlift as el
from eventlift import reports


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def estimate_d3():
    return np.array([2.0, -1.0, 0.5])


def small_report():
    cfg = el.MCConfig(
        spec=el.ARProcessSpec(phi=0.5, sigma=1.0),
        n_series=200,
        t0=30,
        window=el.EventWindow(t0=30, d=2),
        delta=(1.0, -0.5),
        replications=40,
        master_seed=5,
    )
    return el.run_replications(cfg)


class TestWriteRows:
    def test_floats_round_trip_other_cells_as_given(self, tmp_path):
        path = tmp_path / "t.csv"
        reports.write_rows(path, ["t", "name", "value"], [(3, "a,b", np.float64(0.1) * 3)])
        assert path.read_bytes() == b't,name,value\n3,"a,b",0.30000000000000004\n'


class TestEffectCsv:
    def test_schema_with_intervals(self, tmp_path):
        est = estimate_d3()
        cov = np.diag([0.04, 0.04, 0.04])
        cis = el.confidence_intervals(est, cov)
        path = tmp_path / "effect.csv"
        reports.write_effect_csv(path, est, cis)
        rows = read_rows(path)
        assert rows[0] == ["k", "delta_hat", "lower", "upper"]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        assert float(rows[1][1]) == 2.0
        assert float(rows[1][2]) < 2.0 < float(rows[1][3])

    def test_schema_without_intervals(self, tmp_path):
        path = tmp_path / "effect.csv"
        reports.write_effect_csv(path, estimate_d3())
        rows = read_rows(path)
        assert rows[1][2:] == ["", ""]

    def test_values_round_trip_exactly(self, tmp_path):
        est = np.array([0.1 + 0.2, np.pi])
        path = tmp_path / "effect.csv"
        reports.write_effect_csv(path, est)
        rows = read_rows(path)
        assert float(rows[1][1]) == 0.1 + 0.2
        assert float(rows[2][1]) == np.pi


class TestMonteCarloCsv:
    def test_report_schema(self, tmp_path):
        report = small_report()
        path = tmp_path / "mc.csv"
        reports.write_mc_report_csv(path, report)
        rows = read_rows(path)
        assert rows[0][:3] == ["component", "mean_bias", "empirical_var"]
        assert len(rows) == 1 + 2
        assert [r[0] for r in rows[1:]] == ["1", "2"]

    def test_crosscov_schema(self, tmp_path):
        report = small_report()
        path = tmp_path / "cc.csv"
        reports.write_crosscov_csv(path, report)
        rows = read_rows(path)
        assert rows[0] == ["k", "l", "empirical", "reference"]
        assert len(rows) == 1 + 4
        ref01 = next(r for r in rows[1:] if r[0] == "1" and r[1] == "2")
        assert float(ref01[3]) == el.ar1_error_covariance(0.5, 1.0, 2)[0, 1]

    def test_notes_file(self, tmp_path):
        report = small_report()
        path = tmp_path / "notes.txt"
        reports.write_notes(path, report.notes)
        text = path.read_text()
        assert "off-diagonal" in text


class TestRateCsv:
    def test_schema(self, tmp_path):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        report = el.rate_check_phi(spec, t0=20, n_grid=[50, 200], reps=10, master_seed=1)
        path = tmp_path / "rate.csv"
        reports.write_rate_csv(path, report)
        rows = read_rows(path)
        assert rows[0] == ["n_small", "n_large", "sd_small", "sd_large", "ratio", "expected_ratio"]
        assert rows[1][0] == "50"
        assert rows[1][1] == "200"
        assert float(rows[1][5]) == 2.0


class TestImpactCsv:
    def test_schema(self, tmp_path):
        ratios = np.array([[0.3, 0.4], [0.1, 0.2]])
        path = tmp_path / "impact.csv"
        reports.write_impact_csv(path, [("holiday", ratios, np.array([40.0, 50.0]))])
        rows = read_rows(path)
        assert rows[0] == ["event", "year", "k", "ratio", "scale"]
        assert len(rows) == 1 + 4
        assert [r[1] for r in rows[1:]] == ["0", "0", "1", "1"]
        assert rows[1][0] == "holiday"
        assert rows[1][2] == "1"
        assert float(rows[1][3]) == 0.3


class TestMapeCsv:
    def test_table_layout(self, tmp_path):
        rows_in = [
            ("dept0", "thanksgiving", 52.6, 20.21, 8.79),
            ("dept0", "christmas", 20.24, 46.17, 7.08),
        ]
        path = tmp_path / "mape.csv"
        reports.write_mape_csv(path, rows_in)
        rows = read_rows(path)
        assert rows[0] == ["department", "event", "SD", "DF", "ours"]
        assert len(rows) == 3
        assert float(rows[1][2]) == 52.6
        assert float(rows[1][4]) == 8.79


class TestSvgPlots:
    def test_line_plot_is_well_formed_xml(self, tmp_path):
        path = tmp_path / "plot.svg"
        x = np.arange(50)
        reports.svg_line_plot(
            path,
            {"observed": np.sin(x / 5.0), "control": np.cos(x / 5.0)},
            x=x,
            shaded=(20, 25),
            title="observed vs control",
        )
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        body = path.read_text()
        assert "polyline" in body
        assert "rect" in body  # the shaded event band
        assert "observed vs control" in body

    def test_histogram_is_well_formed_xml(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "hist.svg"
        reports.svg_histogram(path, rng.normal(size=2000), title="standardized errors")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        body = path.read_text()
        assert body.count("<rect") >= 40  # one bar per bin
        assert "polyline" in body  # the normal overlay

    def test_plot_output_is_deterministic(self, tmp_path):
        x = np.arange(30)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            reports.svg_line_plot(path, {"s": np.sin(x / 3.0)}, x=x)
        assert a.read_bytes() == b.read_bytes()

    def test_histogram_requires_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            reports.svg_histogram(tmp_path / "h.svg", np.array([np.nan, np.inf]))

    def test_line_plot_skips_nan_points(self, tmp_path):
        path = tmp_path / "plot.svg"
        values = np.sin(np.arange(40) / 3.0)
        values[10:14] = np.nan
        reports.svg_line_plot(path, {"s": values})
        ET.parse(path)

    def test_title_is_escaped(self, tmp_path):
        path = tmp_path / "plot.svg"
        reports.svg_line_plot(
            path, {"s": np.arange(5.0)}, title="a < b & c"
        )
        ET.parse(path)
        assert "a &lt; b &amp; c" in path.read_text()
