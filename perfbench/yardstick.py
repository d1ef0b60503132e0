"""A fixed unit of work, timed inside each penflow run to follow the host's speed.

On a shared host the same code runs at a speed that drifts by tens of
percent over minutes and jumps by as much for seconds at a time, more than
the benchmark's bounds allow.  child.py runs one yardstick unit for every
``INTERVAL_S`` of penflow's run time, interleaved with the run (see
``Pacer``), and leaves the units' time out of the run's.  run.py scales the
run's time by ``UNIT_REF_S`` over the mean unit time of that run: the time
the run would have taken at the speed the yardstick had when ``UNIT_REF_S``
was measured.  A change to penflow moves the scaled time exactly as it moves
the wall time; a slow spell of the host slows the run and the units spread
through it alike, and cancels.

A unit mixes what penflow spends its time on: interpreter-bound Python and
two RK4 steps of a 2D pseudo-spectral vorticity solver at n=64 (small FFTs,
elementwise array arithmetic, a finiteness check).  It never changes with
penflow.

    python3 perfbench/yardstick.py    # mean unit time, for UNIT_REF_S
"""

from __future__ import annotations

import functools
import time

import numpy as np

# mean unit time on a 2-vCPU Intel Xeon VM (2.1 GHz), Python 3.11.7,
# numpy 2.4.6
UNIT_REF_S = 0.0064
# one unit per this much run time: about 7% of the run goes to the yardstick
INTERVAL_S = 0.1

N, STEPS = 64, 2
PY_LOOP = 40_000

# bound at import, so that the wrappers child.py installs on numpy.fft later
# are bypassed
_fftn, _ifftn = np.fft.fftn, np.fft.ifftn


@functools.cache
def _vorticity_setup():
    k = np.fft.fftfreq(N, 1.0 / N)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0
    x = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
    w_hat = _fftn(np.sin(x)[:, None] * np.cos(2.0 * x)[None, :])
    return kx, ky, k2, w_hat


def _vorticity_2d() -> None:
    kx, ky, k2, w_hat = _vorticity_setup()
    dt, nu = 1e-3, 0.1

    def rhs(wh):
        psi = wh / k2
        u = _ifftn(1j * ky * psi).real
        v = _ifftn(-1j * kx * psi).real
        wx = _ifftn(1j * kx * wh).real
        wy = _ifftn(1j * ky * wh).real
        if not np.isfinite(u).all():
            raise FloatingPointError("yardstick solver diverged")
        return -_fftn(u * wx + v * wy) - nu * k2 * wh

    for _ in range(STEPS):
        k1 = rhs(w_hat)
        k2_ = rhs(w_hat + 0.5 * dt * k1)
        k3 = rhs(w_hat + 0.5 * dt * k2_)
        k4 = rhs(w_hat + dt * k3)
        w_hat = w_hat + dt / 6.0 * (k1 + 2.0 * k2_ + 2.0 * k3 + k4)


def unit() -> None:
    """One unit of the yardstick's fixed work."""
    s = 0
    for i in range(PY_LOOP):
        s += i % 7
    _vorticity_2d()


class Pacer:
    """Runs one yardstick unit per ``INTERVAL_S`` of run time, from start().

    ``clock()`` is the program's time: the monotonic clock minus the time
    spent in units.  settle() runs the units that are due; call it often
    (child.py calls it after every FFT penflow makes and at every sample).
    """

    def __init__(self):
        _vorticity_setup()
        self.units = 0
        self.spent = 0.0
        self._due = None

    def clock(self) -> float:
        return time.monotonic() - self.spent

    def start(self) -> None:
        self._due = self.clock() + INTERVAL_S

    def settle(self) -> None:
        if self._due is None:
            return
        now = self.clock()
        while now >= self._due:
            t0 = time.monotonic()
            unit()
            self.spent += time.monotonic() - t0
            self.units += 1
            self._due += INTERVAL_S


if __name__ == "__main__":
    unit()
    t0 = time.perf_counter()
    for _ in range(1000):
        unit()
    print(f"mean unit time {(time.perf_counter() - t0) / 1000:.5f} s over 1000 units")
