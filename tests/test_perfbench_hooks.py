"""The traced benchmark run finds every penflow name it wraps.

perfbench/spans.py's Recorder.install looks each TRACED function up with
getattr, wraps flow.FlowState.__init__ and replaces solver.effective_dt, so
a name deleted or renamed in penflow would crash every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(path: str) -> bool:
    mod, name = path.rsplit(".", 1)
    return callable(getattr(importlib.import_module(f"penflow.{mod}"), name, None))


def test_every_name_the_recorder_wraps_resolves():
    names = [f"{mod}.{fn}" for mod, fns in _load_spans().TRACED.items() for fn in fns]
    names += ["flow.FlowState", "solver.effective_dt"]
    assert [name for name in names if not _resolves(name)] == []
