"""eventlift runs with numpy alone: no module of the package imports scipy."""

import os
import subprocess
import sys
from pathlib import Path

import eventlift as el

SRC = str(Path(el.__file__).resolve().parents[1])


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_import_loads_no_scipy():
    proc = run_python(
        "import sys, eventlift, eventlift.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


BLOCKED = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from eventlift.cli import run_command
out = sys.argv[1]
spec = ["--phi", "0.5", "--sigma", "1.0", "--d", "3", "--delta", "2,-1,0.5"]
codes = [
    run_command(["simulate", *spec, "--n", "60", "--t0", "40", "--seed", "7",
                 "--out", out + "/sim"]),
    run_command(["estimate", "--panel", out + "/sim/panel.csv",
                 "--calendar", out + "/sim/calendar.csv", "--event", "event",
                 "--level", "0.9", "--out", out + "/est"]),
    run_command(["mc-validate", *spec, "--n", "60", "--t0", "30", "--reps", "20",
                 "--jobs", "2", "--seed", "3", "--out", out + "/mc"]),
]
on_sim = ["--panel", out + "/sim/panel.csv", "--calendar", out + "/sim/calendar.csv",
          "--series", "s000"]
codes += [
    run_command(["train", *on_sim, "--lookback", "10", "--horizon", "5", "--hidden", "8",
                 "--epochs", "5", "--seed", "1", "--out", out + "/model"]),
    run_command(["extract", *on_sim, "--event", "event",
                 "--model", out + "/model/model_s000.json", "--out", out + "/effect"]),
    run_command(["baseline-sd", *on_sim, "--event", "event", "--periods", "7",
                 "--out", out + "/sd"]),
]
tiny = sys.argv[2]
codes.append(
    run_command(["evaluate", "--panel", tiny + "/panel.csv", "--calendar", tiny + "/calendar.csv",
                 "--lookback", "10", "--horizon", "5", "--hidden", "8", "--epochs", "4",
                 "--periods", "7,100", "--seed", "1", "--out", out + "/eval"])
)
print(codes)
"""


def test_commands_run_with_scipy_blocked(tmp_path, tiny_files):
    proc = run_python(BLOCKED, str(tmp_path), str(tiny_files))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0]", proc.stderr
    assert (tmp_path / "est" / "effect.csv").is_file()
    assert (tmp_path / "mc" / "mc_report.csv").is_file()
    assert (tmp_path / "effect" / "effect.csv").is_file()
    assert (tmp_path / "sd" / "sd_control.csv").is_file()
    assert (tmp_path / "eval" / "mape.csv").is_file()
