import itertools

import numpy as np
import pytest

from penflow import RealField


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def transform_counter(monkeypatch):
    """Counts single-component transforms through numpy.fft, by name.

    Returns a function of a grid that patches rfftn, irfftn, fftn and ifftn
    and gives back their running counts.  A transform of m components of
    n^dim samples counts m, each measured on its real side; the full-layout
    fftn/ifftn run only in the public forward/backward.
    """

    def install(grid):
        count = {"rfftn": 0, "irfftn": 0, "fftn": 0, "ifftn": 0}
        for name in count:

            def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                out = _fn(a, *args, **kwargs)
                real = out if _name == "irfftn" else np.asarray(a)
                count[_name] += real.size // grid.n**grid.dim
                return out

            monkeypatch.setattr(np.fft, name, counted)
        return count

    return install
