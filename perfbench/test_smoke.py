"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def smoke(workload, seed, trace):
    proc = run("--workload", workload, "--seed", seed, "--seconds", 1,
               "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, seed, trace):
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_passes_the_output_checks(workload, seed, trace):
    result = smoke(workload, seed, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in section
    ]
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert all(c["ok"] for c in record(workload, seed, trace)["checks"])


def test_a_seed_fixes_the_inputs():
    smoke("mc_ar", 7, 0)
    first = record("mc_ar", 7, 0)["headline"]
    smoke("mc_ar", 7, 0)
    again = record("mc_ar", 7, 0)["headline"]
    smoke("mc_ar", 8, 0)
    other = record("mc_ar", 8, 0)["headline"]
    name = "mc.var_rel_err_max"
    assert first[name] == again[name]
    assert first[name] != other[name]


def test_traced_run_writes_spans_with_parents():
    smoke("cli_files", 3, 1)
    lines = (HERE / "out" / "spans-cli_files-seed3.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    ids = {s["id"] for s in spans}
    assert {"id", "name", "start", "end", "parent", "run"} <= set(spans[0])
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
    assert any(s["name"] == "dataio.load_panel_csv" and s["parent"] is not None for s in spans)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run("--workload", "mc_ar", "--seed", 1, "--seconds", 1, "--trace", 0,
               cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
