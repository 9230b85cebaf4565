import csv
import datetime
import inspect
import json
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest

import eventlift as el
from eventlift import dataio, evaluation
from eventlift.cli import run_command


def read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One simulated panel reused across the read-only CLI tests."""
    out = tmp_path_factory.mktemp("sim")
    code = run_command(
        [
            "simulate",
            "--phi", "0.5",
            "--sigma", "1.0",
            "--n", "60",
            "--t0", "40",
            "--d", "3",
            "--delta", "2,-1,0.5",
            "--seed", "99",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run_command(
        [
            "train",
            "--panel", str(sim_dir / "panel.csv"),
            "--calendar", str(sim_dir / "calendar.csv"),
            "--series", "s000",
            "--lookback", "10",
            "--horizon", "5",
            "--hidden", "8",
            "--epochs", "20",
            "--batch-size", "16",
            "--lr", "0.02",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def unread_argv(command, tmp_path):
    """``estimate`` or ``mc-validate`` arguments whose inputs do not exist, so
    a flag error must be raised before anything is read."""
    if command == "estimate":
        return ["estimate", "--panel", str(tmp_path / "none.csv"),
                "--calendar", str(tmp_path / "none.csv"), "--event", "e"]
    return ["mc-validate", "--phi", "0.5", "--sigma", "1", "--n", "50",
            "--t0", "10", "--d", "1", "--delta", "1", "--reps", "3", "--seed", "1"]


class TestExitCodes:
    def test_unknown_command_returns_2(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_returns_2(self, capsys):
        assert run_command(["fit-ar", "--t0", "10"]) == 2
        capsys.readouterr()

    def test_missing_input_file_returns_2(self, tmp_path, capsys):
        code = run_command(
            ["fit-ar", "--panel", str(tmp_path / "nope.csv"), "--t0", "10",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--panel", "--calendar", "--model"])
    def test_a_directory_given_as_an_input_file_returns_2(
        self, flag, sim_dir, trained_dir, tmp_path, capsys
    ):
        argv = ["extract", "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"), "--event", "event",
                "--series", "s000", "--model", str(trained_dir / "model_s000.json")]
        folder = tmp_path / "folder"
        folder.mkdir()
        argv[argv.index(flag) + 1] = str(folder)
        out = tmp_path / "out"
        assert run_command([*argv, "--out", str(out)]) == 2
        assert f"file is a directory: {folder}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_an_existing_file_given_as_out_returns_2(self, out, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        argv = ["simulate", "--phi", "0.5", "--sigma", "1", "--n", "5", "--t0", "10",
                "--d", "2", "--delta", "1,1", "--seed", "1", "--out", str(tmp_path / out)]
        assert run_command(argv) == 2
        assert f"--out {tmp_path / out} is not a directory" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == ""

    def test_oversized_csv_field_returns_2(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text("series_id,date,value\n" + "x" * 200_000 + ",2013-01-01,1.0\n")
        code = run_command(["fit-ar", "--panel", str(panel), "--t0", "10",
                            "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{panel}:2: field larger than field limit" in capsys.readouterr().err

    def test_panel_not_utf8_returns_2(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_bytes(b"series_id,date,value\n\xff,2013-01-01,1.0\n")
        out = tmp_path / "out"
        code = run_command(["fit-ar", "--panel", str(panel), "--t0", "10", "--out", str(out)])
        assert code == 2
        assert f"{panel}:2: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_calendar_not_utf8_returns_2(self, sim_dir, tmp_path, capsys):
        calendar = tmp_path / "calendar.csv"
        calendar.write_bytes(
            "event,start_date,end_date\nFête,2013-01-05,2013-01-06\n".encode("latin-1")
        )
        out = tmp_path / "out"
        code = run_command(
            ["estimate", "--panel", str(sim_dir / "panel.csv"), "--calendar", str(calendar),
             "--event", "Fête", "--out", str(out)]
        )
        assert code == 2
        assert f"{calendar}:2: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_failure_returns_2(self, sim_dir, tmp_path, capsys):
        code = run_command(
            [
                "estimate",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "no-such-event",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_start_date_is_a_flag_error(self, tmp_path, capsys):
        code = run_command(
            [
                "simulate",
                "--phi", "0.5",
                "--sigma", "1.0",
                "--n", "5",
                "--t0", "10",
                "--d", "2",
                "--delta", "1,1",
                "--start-date", "2013-13-01",
                "--seed", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "--start-date" in capsys.readouterr().err
        assert not (tmp_path / "panel.csv").exists()

    @pytest.mark.parametrize(
        "level", ["1.5", "0", "1", "-0.2", "nan", "inf", "abc", "0.9999999999999999"]
    )
    @pytest.mark.parametrize("command", ["estimate", "mc-validate"])
    def test_bad_level_is_a_flag_error(self, command, level, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_command([*unread_argv(command, tmp_path), "--level", level, "--out", str(out)])
        assert code == 2
        assert "argument --level:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "mc-validate"])
    def test_covariance_selector_flag_is_unknown(self, command, tmp_path, capsys):
        """Both commands report the one finite-horizon covariance; the flag
        that once chose another is unknown, not silently ignored."""
        out = tmp_path / "out"
        flag = ["--variance-mode", "finite_horizon"]
        code = run_command([*unread_argv(command, tmp_path), *flag, "--out", str(out)])
        assert code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--panel", "{sim}/panel.csv", "--calendar", "{sim}/calendar.csv",
             "--event", "nope"],
            ["fit-ar", "--panel", "/nope.csv", "--t0", "10"],
            ["simulate", "--phi", "1.5", "--sigma", "1", "--n", "5", "--t0", "10", "--d", "2",
             "--delta", "1,1", "--seed", "1"],
            ["mc-validate", "--phi", "0.5", "--sigma", "1", "--n", "50", "--t0", "10",
             "--d", "2", "--delta", "1", "--reps", "3", "--seed", "1"],
        ],
        ids=["estimate-unknown-event", "fit-ar-missing-panel", "simulate-explosive-phi",
             "mc-validate-short-delta"],
    )
    def test_bad_input_leaves_no_out_dir(self, argv, sim_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_command([a.format(sim=sim_dir) for a in argv] + ["--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_returns_1(self, sim_dir, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = run_command(
                [
                    "train",
                    "--panel", str(sim_dir / "panel.csv"),
                    "--calendar", str(sim_dir / "calendar.csv"),
                    "--series", "s000",
                    "--lookback", "10",
                    "--horizon", "5",
                    "--hidden", "8",
                    "--distance", "squared",
                    "--epochs", "10",
                    "--lr", "1e12",
                    "--seed", "1",
                    "--out", str(tmp_path),
                ]
            )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
         ("--rare-weight", "nan", "rare_weight")],
    )
    def test_non_finite_rate_or_weight_is_bad_input(
        self, flag, value, field, sim_dir, tmp_path, capsys
    ):
        """A NaN or infinite rate or weight fails as bad input (exit 2) naming
        the field, where it used to train until the loss turned NaN (exit 1)."""
        out = tmp_path / "out"
        code = run_command(
            ["train", "--panel", str(sim_dir / "panel.csv"),
             "--calendar", str(sim_dir / "calendar.csv"), "--series", "s000",
             "--lookback", "10", "--horizon", "5", "--hidden", "8", "--epochs", "2",
             flag, value, "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateFitEstimate:
    def test_simulate_outputs(self, sim_dir):
        assert set(p.name for p in sim_dir.iterdir()) == {"panel.csv", "calendar.csv"}
        panel = dataio.load_panel_csv(sim_dir / "panel.csv")
        assert panel.values.shape == (60, 44)
        entries = dataio.load_calendar(sim_dir / "calendar.csv")
        calendar = dataio.bind_calendar(entries, panel)
        window = calendar.occurrences("event")[0]
        assert (window.t0, window.d) == (40, 3)

    def test_fit_ar(self, sim_dir, tmp_path, capsys):
        code = run_command(
            ["fit-ar", "--panel", str(sim_dir / "panel.csv"), "--t0", "40",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv_rows(tmp_path / "ar_fit.csv")
        assert rows[0] == ["phi_hat", "sigma2_hat", "n_pairs"]
        assert abs(float(rows[1][0]) - 0.5) < 0.15
        assert int(rows[1][2]) == 60 * 40
        assert "phi_hat" in capsys.readouterr().out

    def test_estimate_recovers_injected_effect(self, sim_dir, tmp_path, capsys):
        code = run_command(
            [
                "estimate",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv_rows(tmp_path / "effect.csv")
        assert rows[0] == ["k", "delta_hat", "lower", "upper"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        estimates = [float(r[1]) for r in rows[1:]]
        np.testing.assert_allclose(estimates, [2.0, -1.0, 0.5], atol=0.55)
        ET.fromstring((tmp_path / "effect_plot.svg").read_text(encoding="utf-8"))
        capsys.readouterr()

    def test_estimate_fit_range_may_not_pass_the_window(self, sim_dir, tmp_path, capsys):
        args = [
            "estimate",
            "--panel", str(sim_dir / "panel.csv"),
            "--calendar", str(sim_dir / "calendar.csv"),
            "--event", "event",
            "--out", str(tmp_path),
        ]
        for fit_t0 in ("41", "0", "-3"):
            assert run_command([*args, "--fit-t0", fit_t0]) == 2
            err = capsys.readouterr().err
            assert f"--fit-t0 {fit_t0} " in err and "t0=40" in err
            assert not (tmp_path / "effect.csv").exists()
        assert run_command([*args, "--fit-t0", "40"]) == 0
        capsys.readouterr()


    def test_estimate_rejects_an_explosive_fit(self, tmp_path, capsys):
        # a near-zero first value fits phi_hat ~ 1e100 from the one pre-event pair;
        # the window variance overflows instead of writing nan intervals
        start = datetime.date(2020, 1, 1)
        dates = tuple(start + datetime.timedelta(days=i) for i in range(6))
        values = np.array([[1e-100, 1.0, 1.0, 1.0, 1.0, 1.0]])
        dataio.write_panel_csv(tmp_path / "panel.csv", el.PanelSeries(values, dates))
        dataio.write_calendar_csv(
            tmp_path / "calendar.csv", [dataio.CalendarEntry("event", dates[2], dates[4])]
        )
        code = run_command(
            [
                "estimate",
                "--panel", str(tmp_path / "panel.csv"),
                "--calendar", str(tmp_path / "calendar.csv"),
                "--event", "event",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "d=3" in capsys.readouterr().err
        assert not (tmp_path / "out" / "effect.csv").exists()


class TestMonteCarloCommands:
    def run_mc(self, out, jobs):
        return run_command(
            [
                "mc-validate",
                "--phi", "0.5",
                "--sigma", "1.0",
                "--n", "80",
                "--t0", "30",
                "--d", "2",
                "--delta", "1,-0.5",
                "--reps", "30",
                "--jobs", str(jobs),
                "--seed", "5",
                "--out", str(out),
            ]
        )

    def test_mc_validate_outputs(self, tmp_path, capsys):
        assert self.run_mc(tmp_path, jobs=1) == 0
        names = set(p.name for p in tmp_path.iterdir())
        assert names == {"mc_report.csv", "mc_crosscov.csv", "mc_notes.txt", "mc_report.svg"}
        rows = read_csv_rows(tmp_path / "mc_report.csv")
        assert len(rows) == 3
        cross = read_csv_rows(tmp_path / "mc_crosscov.csv")
        assert cross[0] == ["k", "l", "empirical", "reference"]
        assert len(cross) == 5
        ET.fromstring((tmp_path / "mc_report.svg").read_text(encoding="utf-8"))
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_mc_validate_rejects_fewer_than_one_job(self, jobs, tmp_path, capsys):
        assert self.run_mc(tmp_path, jobs=jobs) != 0
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "mc_report.csv").exists()

    def test_mc_validate_thread_count_invariant(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_mc(a, jobs=1) == 0
        assert self.run_mc(b, jobs=4) == 0
        for name in ("mc_report.csv", "mc_crosscov.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()

    def test_rate_check(self, tmp_path, capsys):
        code = run_command(
            [
                "rate-check",
                "--phi", "0.6",
                "--sigma", "1.0",
                "--t0", "40",
                "--grid", "50,200",
                "--reps", "25",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv_rows(tmp_path / "rate_report.csv")
        assert rows[0] == ["n_small", "n_large", "sd_small", "sd_large", "ratio", "expected_ratio"]
        assert float(rows[1][5]) == 2.0
        assert float(rows[1][4]) > 0.0
        assert "root-N reference" in capsys.readouterr().out


class TestForecasterCommands:
    def test_train_outputs(self, trained_dir):
        assert (trained_dir / "model_s000.json").exists()
        model = el.load_model(trained_dir / "model_s000.json")
        assert model.lookback == 10 and model.horizon == 5
        rows = read_csv_rows(trained_dir / "training_log.csv")
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 1 + 20
        assert [r[0] for r in rows[1:]] == [str(e) for e in range(20)]
        losses = [float(r[1]) for r in rows[1:]]
        assert all(np.isfinite(v) for v in losses)

    def test_extract_outputs(self, sim_dir, trained_dir, tmp_path, capsys):
        code = run_command(
            [
                "extract",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--model", str(trained_dir / "model_s000.json"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv_rows(tmp_path / "effect.csv")
        assert rows[0] == ["k", "delta_hat", "lower", "upper"]
        assert len(rows) == 4
        assert rows[1][2] == "" and rows[1][3] == ""
        ET.fromstring((tmp_path / "synthetic_plot.svg").read_text(encoding="utf-8"))
        capsys.readouterr()

    def test_extract_median_aggregate(self, sim_dir, trained_dir, tmp_path, capsys):
        code = run_command(
            [
                "extract",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--model", str(trained_dir / "model_s000.json"),
                "--aggregate", "median",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "effect.csv").exists()
        capsys.readouterr()

    def test_extract_stride_covers_the_series_tail(self, sim_dir, trained_dir, tmp_path, capsys):
        # T=44, M=10, H=5: strided starts 0, 3, ..., 27 stop short of the last start 29
        code = run_command(
            [
                "extract",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--model", str(trained_dir / "model_s000.json"),
                "--stride", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0, capsys.readouterr().err
        rows = read_csv_rows(tmp_path / "effect.csv")
        assert len(rows) == 1 + 3
        capsys.readouterr()

    def test_extract_stride_past_the_horizon_names_the_stride(
        self, trained_dir, tmp_path, capsys
    ):
        # a 54-day panel: with H=5 and stride 7 the windows leave gaps (day 43)
        sim = tmp_path / "sim"
        assert run_command(
            ["simulate", "--phi", "0.5", "--sigma", "1.0", "--n", "3", "--t0", "40",
             "--d", "3", "--delta", "2,-1,0.5", "--extra-days", "10", "--seed", "5",
             "--out", str(sim)]
        ) == 0
        out = tmp_path / "out"
        code = run_command(
            [
                "extract",
                "--panel", str(sim / "panel.csv"),
                "--calendar", str(sim / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--model", str(trained_dir / "model_s000.json"),
                "--aggregate", "median",
                "--stride", "7",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "stride 7" in err and "horizon 5" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, text",
        [("scale", "NaN"), ("shift", "Infinity"), ("layer_sizes", "[10.5, 8, 5]")],
    )
    def test_extract_rejects_a_malformed_model_naming_the_file(
        self, sim_dir, trained_dir, tmp_path, capsys, entry, text
    ):
        # json reads NaN, Infinity and fractional sizes; the model must refuse them
        payload = json.loads((trained_dir / "model_s000.json").read_text(encoding="utf-8"))
        payload[entry] = "@"
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(payload).replace('"@"', text), encoding="utf-8")
        out = tmp_path / "out"
        code = run_command(
            [
                "extract",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--model", str(model),
                "--out", str(out),
            ]
        )
        assert code == 2
        assert f"error: {model}: bad model entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sid", ["a/b", "a\0b"], ids=["separator", "nul"])
    def test_train_rejects_an_id_that_cannot_name_a_file_before_training(
        self, sim_dir, tmp_path, capsys, sid
    ):
        panel = tmp_path / "panel.csv"
        text = (sim_dir / "panel.csv").read_text(encoding="utf-8")
        panel.write_text(text.replace("\ns000,", f"\n{sid},"), encoding="utf-8")
        out = tmp_path / "out"
        with mock.patch.object(el.forecaster, "train", side_effect=AssertionError("trained")):
            code = run_command(
                ["train", "--panel", str(panel), "--calendar", str(sim_dir / "calendar.csv"),
                 "--series", sid, "--lookback", "10", "--horizon", "5", "--seed", "1",
                 "--out", str(out)]
            )
        assert code == 2
        assert f"error: series {sid!r} cannot name a model file" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_df_ar1_predictor(self, sim_dir, tmp_path, capsys):
        code = run_command(
            [
                "baseline-df",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--predictor", "ar1",
                "--lookback", "10",
                "--horizon", "5",
                "--seed", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "df_effect.csv").exists()
        control = read_csv_rows(tmp_path / "df_control.csv")
        assert control[0] == ["t", "value"]
        assert len(control) > 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value",
        [("--rare-weight", "0"), ("--nonrare-weight", "2"), ("--distance", "squared")],
    )
    def test_baseline_df_refuses_the_loss_flags(self, sim_dir, tmp_path, capsys, flag, value):
        """The direct forecast always trains with uniform absolute weights, so
        a loss flag would be silently ignored; argparse rejects it instead."""
        out = tmp_path / "df"
        code = run_command(
            [
                "baseline-df",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--lookback", "10",
                "--horizon", "5",
                "--hidden", "8",
                "--epochs", "5",
                "--seed", "1",
                flag, value,
                "--out", str(out),
            ]
        )
        assert code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_loss_flags_stay_on_the_training_commands(self, capsys):
        for command in ("train", "evaluate"):
            assert run_command([command, "--help"]) == 0
            text = capsys.readouterr().out
            for flag in ("--rare-weight", "--nonrare-weight", "--distance"):
                assert flag in text, (command, flag)

    def test_baseline_sd(self, sim_dir, tmp_path, capsys):
        code = run_command(
            [
                "baseline-sd",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--periods", "7",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "sd_control.csv").exists()
        rows = read_csv_rows(tmp_path / "decomposition.csv")
        assert rows[0][0] == "t" and "trend" in rows[0]
        capsys.readouterr()


class TestImpactAndEvaluate:
    def test_impact_ar_method(self, tiny_files, tmp_path, capsys):
        code = run_command(
            [
                "impact",
                "--panel", str(tiny_files / "panel.csv"),
                "--calendar", str(tiny_files / "calendar.csv"),
                "--event", "promo",
                "--series", "s000",
                "--method", "ar",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv_rows(tmp_path / "impact.csv")
        assert rows[0] == ["event", "year", "k", "ratio", "scale"]
        assert len(rows) == 4
        pred = read_csv_rows(tmp_path / "prediction.csv")
        assert pred[0] == ["k", "predicted_effect"]
        assert [r[0] for r in pred[1:]] == ["1", "2", "3"]
        capsys.readouterr()

    def test_estimate_later_occurrence_skips_earlier_event_days(
        self, tiny_files, tmp_path, capsys
    ):
        code = run_command(
            ["estimate", "--panel", str(tiny_files / "panel.csv"),
             "--calendar", str(tiny_files / "calendar.csv"), "--event", "promo",
             "--occurrence", "1", "--out", str(tmp_path)]
        )
        assert code == 0, capsys.readouterr().err
        panel = dataio.load_panel_csv(tiny_files / "panel.csv")
        calendar = dataio.bind_calendar(
            dataio.load_calendar(tiny_files / "calendar.csv"), panel
        )
        first, second = calendar.occurrences("promo")
        estimates = [float(r[1]) for r in read_csv_rows(tmp_path / "effect.csv")[1:]]
        for fit, same in ((el.fit_ar1_ols(panel, second.t0, [first]), True),
                          (el.fit_ar1_ols(panel, second.t0), False)):
            cf = el.forecast_counterfactual(fit, panel, second)
            delta = el.estimate_effect(panel.values[:, second.columns], cf, second)
            assert (estimates == delta.tolist()) is same
        capsys.readouterr()

    @pytest.fixture
    def two_event_files(self, tmp_path):
        """One dated series at level 100 with +20 spikes: promo on days 50-52,
        200-202 and 240-242, and another event on days 100-102."""
        x = el.simulate_ar1_panel(el.ARProcessSpec(phi=0.5, sigma=1.0), 1, 299, seed=0).values
        x = x + 100.0
        spans = {"promo": [50, 200, 240], "other": [100]}
        for days in spans.values():
            for day in days:
                x[:, day : day + 3] += 20.0
        start = datetime.date(2013, 1, 1)
        dates = tuple(start + datetime.timedelta(days=i) for i in range(x.shape[1]))
        dataio.write_panel_csv(tmp_path / "panel.csv", el.PanelSeries(x, time_index=dates))
        dataio.write_calendar_csv(tmp_path / "calendar.csv", [
            dataio.CalendarEntry(name, dates[day], dates[day + 2])
            for name, days in spans.items() for day in days
        ])
        panel = dataio.load_panel_csv(tmp_path / "panel.csv")
        calendar = dataio.bind_calendar(dataio.load_calendar(tmp_path / "calendar.csv"), panel)
        return tmp_path, panel, calendar

    def test_estimate_skips_every_event_s_days(self, two_event_files, tmp_path, capsys):
        files, panel, calendar = two_event_files
        out = tmp_path / "out"
        code = run_command(
            ["estimate", "--panel", str(files / "panel.csv"),
             "--calendar", str(files / "calendar.csv"), "--event", "promo",
             "--occurrence", "1", "--out", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        promo, other = calendar.occurrences("promo"), calendar.occurrences("other")
        second = promo[1]
        estimates = [float(r[1]) for r in read_csv_rows(out / "effect.csv")[1:]]
        for skip, same in ((promo + other, True), (promo, False)):
            fit = el.fit_ar1_ols(panel, second.t0, skip)
            cf = el.forecast_counterfactual(fit, panel, second)
            delta = el.estimate_effect(panel.values[:, second.columns], cf, second)
            assert (estimates == delta.tolist()) is same
        capsys.readouterr()

    def test_impact_ar_skips_every_event_s_days(self, two_event_files, tmp_path, capsys):
        files, panel, calendar = two_event_files
        out = tmp_path / "out"
        code = run_command(
            ["impact", "--panel", str(files / "panel.csv"),
             "--calendar", str(files / "calendar.csv"), "--event", "promo",
             "--series", "s000", "--method", "ar", "--out", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        series = panel.series(0)
        promo, other = calendar.occurrences("promo"), calendar.occurrences("other")
        scales = [el.year_scale(series, w, "pre_event_month") for w in promo]
        predicted = [float(r[1]) for r in read_csv_rows(out / "prediction.csv")[1:]]
        for skip, same in ((other, True), ((), False)):
            control = el.recursive_control(series, promo[:-1], skip=skip)
            _, expected = el.impact.impact_for_series("promo", series, promo, control, scales)
            assert (predicted == expected.tolist()) is same
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--stride", "-4", "--model", "/nonexistent.json"], "--model or --stride"),
            (["--stride", "1"], "--stride"),
            (["--model", "/nonexistent.json"], "--model"),
        ],
    )
    def test_impact_ar_method_rejects_model_flags(
        self, tiny_files, tmp_path, capsys, monkeypatch, flags, named
    ):
        def no_input(*args, **kwargs):
            raise AssertionError("an input file was read")

        monkeypatch.setattr(dataio, "load_panel_csv", no_input)
        out = tmp_path / "out"
        code = run_command(
            ["impact", "--panel", str(tiny_files / "panel.csv"),
             "--calendar", str(tiny_files / "calendar.csv"), "--event", "promo",
             "--series", "s000", "--method", "ar", *flags, "--out", str(out)]
        )
        assert code == 2
        assert f"--method ar does not use {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_impact_model_method(self, tiny_files, tmp_path, capsys):
        inputs = ["--panel", str(tiny_files / "panel.csv"),
                  "--calendar", str(tiny_files / "calendar.csv"), "--series", "s000"]
        model_dir = tmp_path / "model"
        assert run_command(
            ["train", *inputs, "--lookback", "10", "--horizon", "5", "--hidden", "8",
             "--epochs", "5", "--seed", "1", "--out", str(model_dir)]
        ) == 0
        model_path = model_dir / "model_s000.json"
        out = tmp_path / "out"
        code = run_command(
            ["impact", *inputs, "--event", "promo", "--method", "model",
             "--model", str(model_path), "--stride", "2", "--out", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        # the library composition the command stands for
        panel = dataio.load_panel_csv(tiny_files / "panel.csv")
        calendar = dataio.bind_calendar(
            dataio.load_calendar(tiny_files / "calendar.csv"), panel
        )
        series = panel.series(0)
        control = el.insample_forecast(el.load_model(model_path), series, 2)
        first, target = calendar.occurrences("promo")
        ratios = el.model_from_estimates(
            [el.extract_effect(control, series, first)], [el.year_scale(series, first)]
        )
        predicted = el.predict_effect(ratios, el.year_scale(series, target))
        pred = read_csv_rows(out / "prediction.csv")
        assert pred[0] == ["k", "predicted_effect"]
        assert [float(r[1]) for r in pred[1:]] == predicted.tolist()
        rows = read_csv_rows(out / "impact.csv")
        assert [float(r[3]) for r in rows[1:]] == ratios[0].tolist()
        capsys.readouterr()

    def test_impact_needs_two_occurrences(self, sim_dir, tmp_path, capsys):
        code = run_command(
            [
                "impact",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "occurrences" in capsys.readouterr().err

    def test_impact_model_method_needs_two_occurrences_first(self, sim_dir, tmp_path, capsys):
        # the occurrence check runs before --model is looked at or any model work
        code = run_command(
            [
                "impact",
                "--panel", str(sim_dir / "panel.csv"),
                "--calendar", str(sim_dir / "calendar.csv"),
                "--event", "event",
                "--series", "s000",
                "--method", "model",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "occurrences" in capsys.readouterr().err

    def test_impact_names_a_nonpositive_pre_event_level(self, tmp_path, capsys):
        t = np.arange(230)
        level = -20.0 + 0.5 * np.sin(2 * np.pi * t / 7.0)
        level[60:63] += 4.0
        level[160:163] += 4.0
        start = datetime.date(2013, 1, 1)
        dates = tuple(start + datetime.timedelta(days=i) for i in range(len(t)))
        dataio.write_panel_csv(
            tmp_path / "panel.csv", el.PanelSeries(level[None, :], time_index=dates)
        )
        dataio.write_calendar_csv(
            tmp_path / "calendar.csv",
            [
                dataio.CalendarEntry("promo", dates[60], dates[62]),
                dataio.CalendarEntry("promo", dates[160], dates[162]),
            ],
        )
        code = run_command(
            [
                "impact",
                "--panel", str(tmp_path / "panel.csv"),
                "--calendar", str(tmp_path / "calendar.csv"),
                "--event", "promo",
                "--series", "s000",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "pre_event_month scale of the occurrence at t0=59" in err
        assert "30 days in 23..52" in err

    @pytest.mark.parametrize("command", ["impact", "evaluate"])
    def test_unequal_occurrence_lengths_are_rejected(self, command, tmp_path, capsys):
        # a 3-year panel whose holiday lasts 5, 5 and then 4 days
        t = np.arange(3 * 365)
        level = 100.0 + 5.0 * np.sin(2 * np.pi * t / 7.0)
        start = datetime.date(2013, 1, 1)
        dates = tuple(start + datetime.timedelta(days=i) for i in range(len(t)))
        dataio.write_panel_csv(
            tmp_path / "panel.csv", el.PanelSeries(level[None, :], time_index=dates)
        )
        dataio.write_calendar_csv(
            tmp_path / "calendar.csv",
            [
                dataio.CalendarEntry("holiday", dates[350], dates[354]),
                dataio.CalendarEntry("holiday", dates[715], dates[719]),
                dataio.CalendarEntry("holiday", dates[1080], dates[1083]),
            ],
        )
        inputs = ["--panel", str(tmp_path / "panel.csv"),
                  "--calendar", str(tmp_path / "calendar.csv")]
        if command == "impact":
            argv = ["impact", *inputs, "--event", "holiday", "--series", "s000"]
        else:
            argv = ["evaluate", *inputs, "--lookback", "10", "--horizon", "5",
                    "--hidden", "8", "--epochs", "3", "--periods", "7,100", "--seed", "1"]
        out = tmp_path / "out"
        assert run_command([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'holiday'" in err and "[5, 5, 4]" in err
        assert not out.exists()

    def test_evaluate_zero_in_a_target_window_exits_2_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a net was trained")

        monkeypatch.setattr(evaluation, "train_pooled", no_training)
        # a 2-series, 3-year panel; s001 sold nothing on its last holiday's 2nd day
        t = np.arange(3 * 365)
        level = 100.0 + 5.0 * np.sin(2 * np.pi * t / 7.0)
        values = np.stack([level, 2.0 * level])
        values[1, 1081] = 0.0
        start = datetime.date(2013, 1, 1)
        dates = tuple(start + datetime.timedelta(days=i) for i in range(len(t)))
        dataio.write_panel_csv(tmp_path / "panel.csv", el.PanelSeries(values, time_index=dates))
        dataio.write_calendar_csv(
            tmp_path / "calendar.csv",
            [dataio.CalendarEntry("holiday", dates[k], dates[k + 2]) for k in (350, 715, 1080)],
        )
        out = tmp_path / "out"
        argv = ["evaluate", "--panel", str(tmp_path / "panel.csv"),
                "--calendar", str(tmp_path / "calendar.csv"), "--lookback", "10",
                "--horizon", "5", "--hidden", "8", "--epochs", "3", "--periods", "7,100",
                "--seed", "1", "--out", str(out)]
        assert run_command(argv) == 2
        assert (
            "series 's001', event 'holiday': observed value is zero on day "
            f"{dates[1081]}; MAPE undefined" in capsys.readouterr().err
        )
        assert not out.exists()

    def evaluate_args(self, tiny_files, out, seed="4"):
        return [
            "evaluate",
            "--panel", str(tiny_files / "panel.csv"),
            "--calendar", str(tiny_files / "calendar.csv"),
            "--lookback", "10",
            "--horizon", "5",
            "--hidden", "16",
            "--epochs", "25",
            "--lr", "0.02",
            "--periods", "7,100",
            "--seed", seed,
            "--out", str(out),
        ]

    def test_evaluate_outputs(self, tiny_files, tmp_path, capsys):
        code = run_command(self.evaluate_args(tiny_files, tmp_path))
        assert code == 0
        out_text = capsys.readouterr().out
        assert "mean MAPE" in out_text
        mape = read_csv_rows(tmp_path / "mape.csv")
        assert mape[0] == ["department", "event", "SD", "DF", "ours"]
        assert len(mape) == 3
        impact_rows = read_csv_rows(tmp_path / "impact.csv")
        assert impact_rows[1][0] == "s000/promo"
        pred = read_csv_rows(tmp_path / "predictions.csv")
        assert pred[0] == ["department", "event", "k", "predicted_effect", "control", "observed"]
        assert len(pred) == 1 + 2 * 3

    def test_evaluate_byte_deterministic(self, tiny_files, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_command(self.evaluate_args(tiny_files, a)) == 0
        assert run_command(self.evaluate_args(tiny_files, b)) == 0
        for name in ("mape.csv", "impact.csv", "predictions.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()

    def test_evaluate_tables_load_back_whatever_the_ids_hold(self, tiny_files, tmp_path, capsys):
        """Ids holding a carriage return, a line feed, a comma or a quote
        read back intact from every table ``evaluate`` writes, and the rows
        are those of plain ids, in the same order, once the id is replaced."""
        odd = sorted(["\r", "a\rb", "\r\n", "a\nb", "a,b", 'q"x'])
        plain = [f"p{i}" for i in range(len(odd))]
        base = dataio.load_panel_csv(tiny_files / "panel.csv")
        values = np.resize(base.values, (len(odd), base.values.shape[1]))
        tables = {}
        for name, ids in (("odd", odd), ("plain", plain)):
            dataio.write_panel_csv(
                tmp_path / f"{name}.csv", el.PanelSeries(values, base.time_index, tuple(ids))
            )
            argv = self.evaluate_args(tiny_files, tmp_path / name)
            argv[argv.index("--panel") + 1] = str(tmp_path / f"{name}.csv")
            assert run_command(argv) == 0
            for table in ("mape.csv", "predictions.csv", "impact.csv"):
                with open(tmp_path / name / table, encoding="utf-8", newline="") as fh:
                    tables[name, table] = list(csv.reader(fh))
        capsys.readouterr()
        for table in ("mape.csv", "predictions.csv"):
            ids = [row[0] for row in tables["odd", table][1:]]
            assert set(ids) == set(odd)
            renamed = [[plain[odd.index(row[0])], *row[1:]] for row in tables["odd", table][1:]]
            assert renamed == tables["plain", table][1:]
        labels = [f"{sid}/promo" for sid in odd]
        assert {row[0] for row in tables["odd", "impact.csv"][1:]} == set(labels)

    def test_evaluate_unknown_event_filter(self, tiny_files, tmp_path, capsys):
        code = run_command(
            [
                "evaluate",
                "--panel", str(tiny_files / "panel.csv"),
                "--calendar", str(tiny_files / "calendar.csv"),
                "--events", "nope",
                "--lookback", "10",
                "--horizon", "5",
                "--seed", "4",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "unknown event" in capsys.readouterr().err

    def test_evaluate_empty_periods_rejected_before_training(
        self, tiny_files, tmp_path, capsys, monkeypatch
    ):
        """``--periods ""`` is an empty list, not the default 7,365: it fails
        as it does for ``baseline-sd``, before any net trains."""

        def no_training(*args, **kwargs):
            raise AssertionError("a net was trained")

        monkeypatch.setattr(evaluation, "train_pooled", no_training)
        out = tmp_path / "out"
        argv = self.evaluate_args(tiny_files, out)
        argv[argv.index("--periods") + 1] = ""
        assert run_command(argv) == 2
        assert "periods must all be >= 2, got []" in capsys.readouterr().err
        assert not out.exists()


def test_parser_is_built_once():
    from eventlift.cli import build_parser

    assert build_parser() is build_parser()


def test_cli_holds_no_csv_code():
    """File formats live in reports and dataio; the CLI only hands them rows."""
    import eventlift.cli

    source = inspect.getsource(eventlift.cli)
    assert "import csv" not in source
    assert "csv.writer" not in source
