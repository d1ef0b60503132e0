import itertools
import sys
import time

import numpy as np
import pytest

from penflow import RealField, ScenarioConfig, run, spectral


def smooth_scalar(grid, rng, kmax=3, decay=0.5):
    """Random band-limited scalar field with Gaussian spectral decay."""
    c = np.zeros(grid.shape, dtype=np.complex128)
    for kvec in itertools.product(*([range(-kmax, kmax + 1)] * grid.dim)):
        if all(k == 0 for k in kvec):
            continue
        amp = np.exp(-decay * sum(k * k for k in kvec))
        val = amp * (rng.standard_normal() + 1j * rng.standard_normal())
        c[tuple(k % grid.n for k in kvec)] += val
        c[tuple(-k % grid.n for k in kvec)] += np.conj(val)
    f = np.fft.ifftn(c).real * grid.n**grid.dim
    return RealField(grid, f)


def smooth_vector(grid, rng, components=None, kmax=3, decay=0.5):
    comps = grid.dim if components is None else components
    data = np.stack(
        [smooth_scalar(grid, rng, kmax, decay).scalar_values() for _ in range(comps)]
    )
    return RealField(grid, data)


@pytest.fixture(scope="session")
def baseline():
    """Shipped Taylor-Green baseline: 2D, n=64, nu=0.1, dt=1e-3, t in [0,1]."""
    cfg = ScenarioConfig()
    t0 = time.perf_counter()
    series = run(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, series, elapsed


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def patch_everywhere(monkeypatch, original, replacement):
    """Bind replacement in place of original in every penflow module."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "penflow":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, replacement)


@pytest.fixture
def transform_counter(monkeypatch):
    """Counts single-component transforms at penflow's FFT seam, by name.

    Returns a function of a grid that patches spectral.fft and ifft (the
    kernels' half-spectrum pair, wherever a penflow module binds them) and
    spectral._fftn and _ifftn (the full-layout pair behind the public
    forward/backward), and gives back their running counts.  A transform
    of m components of n^dim samples counts m, each measured on its real
    side, however many numpy calls it is split into.
    """

    def install(grid):
        count = {"fft": 0, "ifft": 0, "_fftn": 0, "_ifftn": 0}
        for name in count:

            def counted(a, *args, _fn=getattr(spectral, name), _name=name, **kwargs):
                out = _fn(a, *args, **kwargs)
                real = out if _name in ("ifft", "_ifftn") else a
                count[_name] += real.size // grid.n**grid.dim
                return out

            patch_everywhere(monkeypatch, getattr(spectral, name), counted)
        return count

    return install


@pytest.fixture
def call_counter(monkeypatch):
    """Counts calls of spectral.fft and ifft, by name, wherever a penflow
    module binds them: one per call, however many components it carries.

    Beside transform_counter's component counts, this pins the batching
    of small independent transforms into one call.
    """

    def install():
        count = {"fft": 0, "ifft": 0}
        for name in count:

            def counted(*args, _fn=getattr(spectral, name), _name=name, **kwargs):
                count[_name] += 1
                return _fn(*args, **kwargs)

            patch_everywhere(monkeypatch, getattr(spectral, name), counted)
        return count

    return install
