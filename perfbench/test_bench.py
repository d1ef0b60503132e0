"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The repeat test runs every workload twice with tracing (about 2 min).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spans import layer_metrics
from yardstick import INTERVAL_S, Pacer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_layer_metrics_self_time_and_phases():
    # step [0, 10] > FlowState [6, 9] > fft [7, 8]; write_summary [11, 12]
    doc = {
        "spans": [
            ["solver.step", 0.0, 10.0, -1],
            ["flow.FlowState", 6.0, 9.0, 0],
            ["spectral.fft", 7.0, 8.0, 1],
            ["cli.write_summary", 11.0, 12.0, -1],
        ],
        "fft_bytes": 64,
        "cfl_capped": 0,
    }
    m = layer_metrics(doc)
    assert m["solver.step.self_s"] == 7.0
    assert m["flow.FlowState.self_s"] == 2.0
    assert m["spectral.fft.self_s"] == 1.0
    assert m["spectral.fft.calls"] == 1
    assert m["spectral.forward.calls"] == 0
    assert m["phase.step_s"] == 10.0
    assert m["phase.validation_s"] == 3.0
    assert m["phase.io_s"] == 1.0
    assert m["spectral.fft.bytes_computed"] == 64


def test_pacer_runs_units_when_due_and_leaves_them_out_of_its_clock():
    pacer = Pacer()
    pacer.settle()
    assert pacer.units == 0  # not started
    pacer.start()
    start = pacer.clock()
    while pacer.clock() - start < 3.5 * INTERVAL_S:
        pass
    pacer.settle()
    assert pacer.units == 3
    assert pacer.spent > 0.0
    assert time.monotonic() - pacer.clock() == pytest.approx(pacer.spent, abs=1e-3)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    first, second = (
        result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    )
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    exact = [
        name
        for name in first["metrics"]
        if name.endswith(".calls")
        or name
        in (
            "solver.steps",
            "spectral.fft.bytes_computed",
            "cli.bytes_written",
        )
    ]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_penflow_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tg2d_baseline", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
