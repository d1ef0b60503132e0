"""The benchmark finds every penflow name it wraps, and reads every value
it checks from the files a run writes.

perfbench/spans.py's Recorder.install looks each TRACED function up with
getattr, wraps flow.FlowState.__init__ and replaces solver.effective_dt, so
a name deleted or renamed in penflow would crash every traced run.
perfbench/run.py's read_outputs parses summary.txt by its labels, so a
label renamed in penflow would fail every benchmark run.
"""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from penflow.cli import run_scenario
from penflow.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load(path: Path):
    name = f"perfbench_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a module's dataclasses look their module up here
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load(SPANS)


def _resolves(path: str) -> bool:
    mod, name = path.rsplit(".", 1)
    return callable(getattr(importlib.import_module(f"penflow.{mod}"), name, None))


def test_every_name_the_recorder_wraps_resolves():
    names = [f"{mod}.{fn}" for mod, fns in _load_spans().TRACED.items() for fn in fns]
    names += ["flow.FlowState", "solver.effective_dt"]
    assert [name for name in names if not _resolves(name)] == []


def test_the_benchmark_reads_the_values_of_the_run(tmp_path, monkeypatch):
    # run.py imports its sibling modules (yardstick, spans) by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = _load(PERFBENCH / "run.py")
    cfg = parse_config((ROOT / "configs" / "baseline.cfg").read_text())
    cfg = replace(cfg, solver=replace(cfg.solver, t_end=0.05), output_dir=str(tmp_path))
    series, code = run_scenario(cfg)
    observed = bench.read_outputs(tmp_path, {"steps": 50, "exit": code})
    assert observed["samples_used"] == series.bound.samples_used == len(series)
    assert observed["c_fit"] == series.bound.c_fit
    assert observed["c_max"] == series.bound.c_max
    assert observed["accumulator"] == series.blowup.accumulator
    assert observed["tripped"] is series.tripped is False
