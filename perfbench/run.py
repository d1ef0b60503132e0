"""penflow benchmark: time to solution, set-up time and memory per workload.

    python3 perfbench/run.py --workload tg2d_baseline --seed 0 --seconds 40 --trace 0

Run from anywhere inside a penflow checkout; the package is imported from
the checkout's ``src``.  Each measured run is one fresh interpreter
(perfbench/child.py) executing ``penflow run`` on the workload's scenario.
Runs go one at a time, in sequence, until ``--seconds`` is used up (at least
three, or one untraced and one traced with ``--trace 1``).  Every run's
outputs are checked against perfbench/reference.json; a run that raises or
misses the reference counts as failed, and any failure makes the result
``"correct": false``.  The timings of runs that completed are reported
either way.

``--trace 0`` reports the end-to-end metrics (medians over runs):

- ``setup_s``: interpreter start to the t=0 sample yielded by simulate();
- ``run_ref_s``: ``run_s``, the wall time from the t=0 sample to the CLI
  returning with series.csv, summary.txt and the checkpoints written, scaled
  to the host's reference speed by the yardstick units timed through the
  run (see yardstick.py);
- ``peak_rss_mb``: the run's ru_maxrss.

It also prints ``run_s`` itself and ``sample_ms_p50``, the median wall time
between consecutive samples pooled over all runs, but leaves them out of
the result: the host's speed drifts by tens of percent over minutes, so
their spread over ten runs exceeded every bound the benchmark may set.
Wall times leave out the yardstick units' time.

``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (see spans.py), plus ``trace.overhead_frac``,
the traced ``run_s`` against the untraced one.  Traced runs run no
yardstick, so their self times hold no yardstick work.

All run outputs go to a temporary directory inside the checkout, removed at
the end.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the first line
records the seed, the sample counts and the machine, and a table of the
metrics with their units follows it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import yardstick
from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RTOL = 1e-6
MIN_RUNS = 3
# every run of this script must end within 180 s
TIME_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    # when nonzero, the scenario seed is --seed modulo this, with one stored
    # reference per scenario seed
    seeds: int = 0


WORKLOADS = {
    "tg2d_baseline": Workload("configs/baseline.cfg"),
    "tg3d_n64": Workload("perfbench/workloads/tg3d_n64.cfg"),
    "fd2d_dense": Workload("perfbench/workloads/fd2d_dense.cfg", seeds=16),
}


class RunFailed(Exception):
    pass


def run_child(workload: Workload, seed, workdir: Path, traced: bool, timeout: float):
    """One fresh-interpreter run; returns (child report, spawn time)."""
    workdir.mkdir()
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--src", str(SRC),
        "--config", str(ROOT / workload.config),
        "--output-dir", str(workdir / "out"),
    ]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if traced:
        cmd += ["--spans", str(workdir / "spans.json")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"run exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        raise RunFailed(lines[-1] if lines else f"exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def read_outputs(outdir: Path, report: dict) -> dict:
    """The values a run is checked on, read from the files it wrote."""
    summary = {}
    for line in (outdir / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" : ")
        if sep:
            summary[key.strip()] = value.strip()
    with open(outdir / "series.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "samples_used": int(summary["samples_used"]),
        "c_fit": float(summary["c_fit"]),
        "c_max": float(summary["c_max"]),
        "accumulator": float(summary["final value"]),
        "tripped": summary["tripped"] == "true",
        "kinetic_energy": float(rows[-1]["kinetic_energy"]),
        "steps": report["steps"],
        "checkpoints": len(list(outdir.glob("*.ckpt"))),
        "exit": report["exit"],
        "series": [(float(r["t"]), float(r["kinetic_energy"])) for r in rows],
    }


def reference_misses(observed: dict, ref: dict) -> list[str]:
    """Names of the checked values that miss the reference."""
    misses = []
    for key, want in ref.items():
        if key == "taylor_green_nu":
            for t, ke in observed["series"]:
                exact = math.pi**2 * math.exp(-4 * want * t)
                if abs(ke - exact) > RTOL * exact:
                    misses.append(f"kinetic_energy at t={t} vs Taylor-Green decay")
                    break
        elif isinstance(want, float):
            if abs(observed[key] - want) > RTOL * abs(want):
                misses.append(f"{key}={observed[key]!r} (reference {want!r})")
        elif observed[key] != want:
            misses.append(f"{key}={observed[key]!r} (reference {want!r})")
    # a tripped accumulator exits 2 by design
    want_exit = 2 if ref.get("tripped") else 0
    if observed["exit"] != want_exit:
        misses.append(f"exit={observed['exit']} (expected {want_exit})")
    return misses


def machine(report: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": report.get("python"),
        "numpy": report.get("numpy"),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[workload_name]
    scenario_seed = seed % workload.seeds if workload.seeds else None
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload_name]
    ref = refs[str(scenario_seed)] if workload.seeds else refs

    start = time.monotonic()
    untraced, traced, failures = [], [], []
    longest = 0.0
    report = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        i = 0
        while True:
            elapsed = time.monotonic() - start
            enough = (untraced and traced) if trace else len(untraced) >= MIN_RUNS
            if (enough or failures) and elapsed + longest > seconds:
                break
            if elapsed + longest > TIME_LIMIT_S:
                break
            is_traced = trace and i % 2 == 1
            workdir = Path(tmp) / f"run{i}"
            i += 1
            t0 = time.monotonic()
            try:
                report, spawned = run_child(
                    workload, scenario_seed, workdir, is_traced,
                    TIME_LIMIT_S - elapsed,
                )
                observed = read_outputs(workdir / "out", report)
            except (RunFailed, OSError, KeyError, ValueError) as exc:
                failures.append(f"run {i - 1}: {exc}")
                continue
            finally:
                longest = max(longest, time.monotonic() - t0)
            misses = reference_misses(observed, ref)
            if misses:
                failures.append(f"run {i - 1}: " + "; ".join(misses))
            marks = report["sample_times"]
            gaps_ms = [1e3 * (b - a) for a, b in zip(marks, marks[1:])]
            run_s = report["done"] - marks[0]
            record = {
                "setup_s": marks[0] - spawned,
                "run_s": run_s,
                "gaps_ms": gaps_ms,
                "peak_rss_mb": report["maxrss_kb"] / 1024.0,
            }
            if is_traced:
                doc = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
                record.update(layer_metrics(doc))
                record["solver.steps"] = report["steps"]
                record["cli.bytes_written"] = sum(
                    f.stat().st_size for f in (workdir / "out").iterdir()
                )
                traced.append(record)
            else:
                # the run's speed relative to the yardstick's reference speed
                speed = report["yard_units"] * yardstick.UNIT_REF_S / report["yard_s"]
                record["run_ref_s"] = run_s * speed
                record["yard_units"] = report["yard_units"]
                record["yard_s"] = report["yard_s"]
                untraced.append(record)
    gaps_ms = [g for r in untraced for g in r["gaps_ms"]]
    info = {
        "workload": workload_name,
        "seed": seed,
        "scenario_seed": scenario_seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": i,
        "runs": len(untraced),
        "traced_runs": len(traced),
        "run_s_each": [r["run_s"] for r in untraced],
        "run_ref_s_each": [r["run_ref_s"] for r in untraced],
        "yardstick_units": [r["yard_units"] for r in untraced],
        "yardstick_s": [r["yard_s"] for r in untraced],
        "sample_gaps": len(gaps_ms),
        "sample_ms_p50": statistics.median(gaps_ms) if gaps_ms else None,
        "failures": failures,
        "machine": machine(report),
    }
    return untraced, traced, failures, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "penflow" / "__init__.py").is_file():
        print(f"error: no penflow package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    untraced, traced, failures, info = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if not untraced or (args.trace and not traced):
        print(json.dumps(info), file=sys.stderr)
        print("error: no run completed", file=sys.stderr)
        return 1

    values = {}
    if args.trace:
        for m in spec["per_layer"]:
            if m["name"] != "trace.overhead_frac":
                values[m["name"]] = statistics.median(r[m["name"]] for r in traced)
        values["trace.overhead_frac"] = (
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in untraced)
            - 1.0
        )
        listed = spec["per_layer"]
    else:
        for m in spec["end_to_end"]:
            values[m["name"]] = statistics.median(r[m["name"]] for r in untraced)
        listed = spec["end_to_end"]

    print(json.dumps(info))
    n = len(traced) if args.trace else len(untraced)
    for m in listed:
        print(f"{m['name']:36s} {values[m['name']]:>16.6g} {m['unit']:6s} (median of {n})")
    if not args.trace:
        run_s = statistics.median(info["run_s_each"])
        print(f"{'run_s':36s} {run_s:>16.6g} {'s':6s} (median of {n}; wall clock, not gated)")
        print(
            f"{'sample_ms_p50':36s} {info['sample_ms_p50']:>16.6g} {'ms':6s} "
            f"(median of {info['sample_gaps']} sample gaps; not gated)"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": info["attempted"],
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
