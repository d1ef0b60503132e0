"""One benchmark run of one scenario, in a fresh interpreter.

Runs ``penflow run <config> --output-dir <dir> [--seed <n>]`` through
``penflow.cli.main``, exactly as a CLI user would, and prints one JSON line
with the CLOCK_MONOTONIC time of every sample ``simulate()`` yielded, the
time the CLI returned, its exit code and this process's peak RSS.  With
``--spans`` it also records spans (see spans.py) and writes them there.
Without it, from the t=0 sample on it runs the yardstick (see yardstick.py)
after any FFT penflow makes once a unit is due, leaves the units' time out
of the times it prints and prints their count and total time.

    python3 perfbench/child.py --src src --config configs/baseline.cfg \
        --output-dir out [--seed 3] [--spans spans.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import penflow.cli
    import penflow.solver

    if src not in Path(penflow.__file__).resolve().parents:
        print(f"penflow imported from {penflow.__file__}, not {src}", file=sys.stderr)
        return 1

    sample_times: list[float] = []
    indices: list[int] = []
    simulate = penflow.solver.simulate

    def timed_simulate(*a, **kw):
        for rs in simulate(*a, **kw):
            if pacer is not None:
                if not sample_times:
                    pacer.start()
                pacer.settle()
            sample_times.append(clock())
            indices.append(rs.index)
            yield rs

    # run() looks simulate up in the solver module at call time
    penflow.solver.simulate = timed_simulate

    recorder = pacer = None
    clock = time.monotonic
    if args.spans:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    else:
        from yardstick import Pacer

        pacer = Pacer()
        clock = pacer.clock
        for name in ("fftn", "ifftn"):

            def paced(*a, _fn=getattr(numpy.fft, name), **kw):
                out = _fn(*a, **kw)
                pacer.settle()
                return out

            setattr(numpy.fft, name, paced)

    argv = ["run", args.config, "--output-dir", args.output_dir]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    code = penflow.cli.main(argv)
    done = clock()
    if pacer is not None:
        pacer.settle()

    if recorder is not None:
        recorder.write(args.spans)
    print(
        json.dumps(
            {
                "exit": code,
                "sample_times": sample_times,
                "done": done,
                "yard_units": pacer.units if pacer else 0,
                "yard_s": pacer.spent if pacer else 0.0,
                "steps": indices[-1] if indices else None,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
