"""Rewrite perfbench/reference.json from one run of each recorded scenario.

    python3 perfbench/record_reference.py

tg2d_baseline keeps its hand-written entry: the acceptance gate's frozen
c_fit, c_max and accumulator (tests/test_acceptance.py) and the analytic
Taylor-Green decay.  tg3d_n64 and fd2d_dense (one entry per scenario seed)
are recorded from the current code, so run this only on a commit whose
numbers are trusted.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, WORKLOADS, read_outputs, run_child

CHECKED = (
    "samples_used",
    "c_fit",
    "c_max",
    "accumulator",
    "tripped",
    "kinetic_energy",
    "steps",
    "checkpoints",
)


def record(name: str, seed, tmp: Path) -> dict:
    workdir = tmp / f"{name}-{seed}"
    report, _ = run_child(WORKLOADS[name], seed, workdir, False, 600.0)
    observed = read_outputs(workdir / "out", report)
    return {key: observed[key] for key in CHECKED}


def main() -> None:
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            if name == "tg2d_baseline":
                continue
            if workload.seeds:
                refs[name] = {
                    str(s): record(name, s, Path(tmp)) for s in range(workload.seeds)
                }
            else:
                refs[name] = record(name, None, Path(tmp))
            print(f"recorded {name}", flush=True)
    REFERENCE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
