"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

The recorder wraps penflow's public functions from outside: every module
namespace that binds a wrapped name gets the wrapper (penflow binds names
at import, e.g. ``from .spectral import backward``), ``FlowState.__init__``
is wrapped on the class, and ``numpy.fft.fftn``/``ifftn`` are wrapped on
the numpy module.  A span is ``[name, start, end, parent]`` with ``parent``
the index of the enclosing span (-1 at top level); spans stay in memory
until the run ends and are then written out as JSON.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# public functions timed per module; span name is "<module>.<function>"
TRACED = {
    "spectral": ("forward", "backward", "hermitian_asymmetry", "sobolev_norm"),
    "solver": (
        "step",
        "pressure_poisson",
        "evolve_pressure_model",
        "save_checkpoint",
        "make_initial",
    ),
    "flow": (
        "dissipation_phi",
        "velocity_gradients",
        "regime_check",
        "gradient_energy",
        "kinetic_energy",
    ),
    "energy": ("material_derivative", "convective_term", "norm_E_squared"),
    "cli": ("write_series_csv", "write_summary"),
    "config": ("parse_config",),
}

# inclusive phase times: a span counts when no ancestor is in the same set,
# so nested calls are not counted twice
PHASES = {
    "phase.step_s": ("solver.step",),
    "phase.model_pressure_s": ("solver.evolve_pressure_model",),
    "phase.pressure_poisson_s": ("solver.pressure_poisson",),
    "phase.validation_s": ("flow.FlowState", "spectral.hermitian_asymmetry"),
    "phase.diagnostics_s": (
        "energy.material_derivative",
        "energy.norm_E_squared",
        "flow.gradient_energy",
        "flow.kinetic_energy",
        "flow.regime_check",
        "spectral.sobolev_norm",
    ),
    "phase.io_s": (
        "solver.save_checkpoint",
        "cli.write_series_csv",
        "cli.write_summary",
    ),
}

FFT_SPAN = "spectral.fft"
FLOWSTATE_SPAN = "flow.FlowState"


class Recorder:
    """In-memory span list plus the counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.fft_bytes = 0
        self.cfl_capped = 0

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def wrap_fft(self, fn):
        import numpy as np

        timed = self.wrap(FFT_SPAN, fn)

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = timed(a, *args, **kwargs)
            # computed from the array sizes, not measured
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return counted

    def install(self) -> None:
        """Wrap the traced functions of an imported penflow package."""
        import numpy as np

        import penflow.flow
        import penflow.solver

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "penflow"]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"penflow.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)

        cls = penflow.flow.FlowState
        cls.__init__ = self.wrap(FLOWSTATE_SPAN, cls.__init__)
        np.fft.fftn = self.wrap_fft(np.fft.fftn)
        np.fft.ifftn = self.wrap_fft(np.fft.ifftn)

        effective_dt = penflow.solver.effective_dt

        def capped_dt(state, cfg):
            dt = effective_dt(state, cfg)
            if dt < cfg.dt:
                self.cfl_capped += 1
            return dt

        penflow.solver.effective_dt = capped_dt

    def write(self, path) -> None:
        doc = {
            "spans": self.spans,
            "fft_bytes": self.fft_bytes,
            "cfl_capped": self.cfl_capped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Calls, self time and phase times of one traced run's span document."""
    spans = doc["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]

    names = [FFT_SPAN, FLOWSTATE_SPAN] + [
        f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns
    ]
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for i, (name, _, _, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur[i] - child_time[i]

    for phase, members in PHASES.items():
        total = 0.0
        for i, (name, _, _, parent) in enumerate(spans):
            if name not in members:
                continue
            while parent >= 0 and spans[parent][0] not in members:
                parent = spans[parent][3]
            if parent < 0:
                total += dur[i]
        out[phase] = total

    out["spectral.fft.bytes_computed"] = doc["fft_bytes"]
    out["solver.cfl_capped_steps"] = doc["cfl_capped"]
    return out
