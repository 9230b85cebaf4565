import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import eventlift as el
from eventlift import dataio, reports
from eventlift.cli import run_command


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


@pytest.fixture(scope="module")
def mc_dir(tmp_path_factory):
    """``mc-validate`` on the ``small_report`` settings."""
    out = tmp_path_factory.mktemp("mc")
    assert run_command(
        ["mc-validate", "--phi", "0.5", "--sigma", "1.0", "--n", "200", "--t0", "30",
         "--d", "2", "--delta", "1,-0.5", "--reps", "40", "--seed", "5", "--out", str(out)]
    ) == 0
    return out


class TestMonteCarloCsv:
    def test_report_schema(self, mc_dir):
        rows = read_rows(mc_dir / "mc_report.csv")
        assert rows[0] == [
            "component", "mean_bias", "empirical_var", "theoretical_var_finite",
            "theoretical_var_asymptotic", "ci_coverage", "skewness", "excess_kurtosis",
        ]
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        for row, comp in zip(rows[1:], small_report().per_component):
            assert [float(v) for v in row[1:]] == [
                comp.mean_bias, comp.empirical_var_scaled, comp.theoretical_var_finite,
                comp.theoretical_var_asymptotic, comp.ci_coverage, comp.skewness,
                comp.excess_kurtosis,
            ]

    def test_crosscov_schema(self, mc_dir):
        rows = read_rows(mc_dir / "mc_crosscov.csv")
        assert rows[0] == ["k", "l", "empirical", "reference"]
        assert [r[:2] for r in rows[1:]] == [["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]
        ref01 = next(r for r in rows[1:] if r[0] == "1" and r[1] == "2")
        assert float(ref01[3]) == el.ar1_error_covariance(0.5, 1.0, 2)[0, 1]

    def test_notes_file(self, mc_dir):
        text = (mc_dir / "mc_notes.txt").read_bytes().decode("utf-8")
        assert "off-diagonal" in text
        assert text == "".join(f"{note}\n" for note in small_report().notes)


class TestRateCsv:
    def test_schema(self, tmp_path, capsys):
        assert run_command(
            ["rate-check", "--phi", "0.5", "--sigma", "1.0", "--t0", "20", "--grid", "50,200",
             "--reps", "10", "--seed", "1", "--out", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        rows = read_rows(tmp_path / "rate_report.csv")
        assert rows[0] == ["n_small", "n_large", "sd_small", "sd_large", "ratio", "expected_ratio"]
        assert rows[1][0] == "50"
        assert rows[1][1] == "200"
        assert float(rows[1][5]) == 2.0
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        pair = el.rate_check_phi(spec, t0=20, n_grid=[50, 200], reps=10, master_seed=1).pairs[0]
        assert [float(v) for v in rows[1][2:]] == [
            pair.sd_small, pair.sd_large, pair.ratio, pair.expected_ratio
        ]


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
    def test_table_layout(self, tiny_files, tmp_path, capsys):
        inputs = ["--panel", str(tiny_files / "panel.csv"),
                  "--calendar", str(tiny_files / "calendar.csv")]
        assert run_command(
            ["evaluate", *inputs, "--lookback", "10", "--horizon", "5", "--hidden", "8",
             "--epochs", "5", "--periods", "7,100", "--seed", "1", "--out", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        rows = read_rows(tmp_path / "mape.csv")
        assert rows[0] == ["department", "event", "SD", "DF", "ours"]
        panel = dataio.load_panel_csv(tiny_files / "panel.csv")
        report = el.evaluate_panel(
            panel,
            dataio.bind_calendar(dataio.load_calendar(tiny_files / "calendar.csv"), panel),
            fw_config=el.RollingWindowConfig(lookback=10, horizon=5),
            arch=el.ForecasterArch(hidden_sizes=(8,)),
            train_cfg=el.TrainConfig(epochs=5, seed=1),
            periods=[7, 100],
        )
        assert rows[1:] == [
            [r.series_id, r.event, repr(r.mape_sd), repr(r.mape_df), repr(r.mape_ours)]
            for r in report.results
        ]
        assert [r[:2] for r in rows[1:]] == [["s000", "promo"], ["s001", "promo"]]


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
