"""Fourier machinery on the periodic box [0, 2*pi)^dim.

Convention: f(x) = sum_k c_k exp(i k.x) with integer wavevectors k, so the
coefficients are fftn(samples) / n**dim and Parseval reads

    integral |f|^2 dx = (2*pi)**dim * sum_k |c_k|^2.

All quadrature is the equispaced sum times h**dim, which is spectrally
accurate for smooth periodic fields.

This is the package's only FFT module.  Every field the package transforms
is real, so the array kernels (fft, ifft and the *_hat operators) work on
the rfftn half spectrum: the last axis keeps the n//2 + 1 modes with k >= 0,
the rest being their complex conjugates.  The public API (forward,
backward, SpectralField) keeps the full fftn layout, and backward rejects
coefficients that are not Hermitian-symmetric; no solver or diagnostics
path goes through it.

irfftn reads the half it is given as one side of a Hermitian spectrum, so a
kernel's multipliers must preserve Hermitian symmetry.  First derivatives
therefore use kd, the wavevector with the self-paired Nyquist mode (-n/2
in the full layout, +n/2 on the half layout's last axis) zeroed on every
axis; the Leray projection divides by |kd|^2, so its output is
divergence-free under the same kd.  Sums of |c_k|^2 over the half spectrum
weight each mode by the number of modes it stands for (multiplicity).

fft and ifft split a transform of at least 2**17 real samples (components
times n**dim: every 3D n=64 field, no 2D n=64 or 3D n=32 one) across the
CPUs the process may run on, at most 4 threads with the calling one.  Each
numpy pass runs on slabs of an axis it does not transform, in numpy's pass
order, so the result is numpy's bit for bit; smaller transforms stay one
numpy call and never start a thread.  There is no setting for either.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ArityError,
    ConfigError,
    CorruptionError,
    GaugeError,
    SymmetryError,
    check_rules,
    check_types,
)

TWO_PI = 2.0 * np.pi

# tolerances of the spectral layer
ROUNDTRIP_TOL = 1e-12
HERMITIAN_TOL = 1e-10
MEAN_MODE_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: n points per axis on [0, 2*pi)^dim."""

    dim: int
    n: int

    def __post_init__(self):
        check_types(self)
        dim, n = self.dim, self.n
        check_rules(
            ("dim", dim in (2, 3), f"dim must be 2 or 3, got {dim!r}"),
            (
                "n",
                n >= 8 and (n & (n - 1)) == 0,
                f"n must be a power of two >= 8, got {n!r}",
            ),
        )

    @property
    def h(self) -> float:
        return TWO_PI / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def coordinates(self):
        """Meshgrid arrays x_j = j*h per axis ('ij' indexing)."""
        x = np.arange(self.n) * self.h
        return np.meshgrid(*([x] * self.dim), indexing="ij")


class Wavenumbers(NamedTuple):
    """Read-only wavenumber arrays of one grid in one spectral layout."""

    ksq: np.ndarray  # |k|^2
    inv_ksq: np.ndarray  # 1/|k|^2, zero mode set to 0
    mask: np.ndarray  # 2/3 rule: True where all |k_j| <= n/3
    kd: np.ndarray  # (dim, ...) derivative wavevectors, Nyquist zeroed
    ikd: np.ndarray  # 1j * kd
    ikd_mask: np.ndarray  # 1j * kd * mask
    kd_inv_kdsq: np.ndarray  # kd / |kd|^2, zero where kd = 0
    multiplicity: np.ndarray  # modes each retained last-axis mode stands for


@lru_cache(maxsize=None)
def _wavenumber_cache(dim: int, n: int, half: bool) -> Wavenumbers:
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    # the half spectrum keeps the last axis's modes 0..n/2 only
    last = np.fft.rfftfreq(n, d=1.0 / n) if half else k1
    k = np.stack(np.meshgrid(*([k1] * (dim - 1) + [last]), indexing="ij"))
    ksq = np.sum(k * k, axis=0)
    inv_ksq = np.zeros_like(ksq)
    inv_ksq[ksq > 0] = 1.0 / ksq[ksq > 0]
    mask = np.all(np.abs(k) <= n / 3.0, axis=0)
    # First derivatives multiply by i*k.  The self-paired Nyquist mode
    # (k = -n/2 in the full layout, +n/2 on the half layout's last axis)
    # would break Hermitian symmetry, so it is dropped on every axis.
    kd = np.where(np.abs(k) == n // 2, 0.0, k)
    kdsq = np.sum(kd * kd, axis=0)
    inv_kdsq = np.zeros_like(kdsq)
    inv_kdsq[kdsq > 0] = 1.0 / kdsq[kdsq > 0]
    multiplicity = np.ones(last.size)
    if half:
        # every interior last-axis mode also stands for its conjugate
        multiplicity[1:-1] = 2.0
    out = Wavenumbers(
        ksq=ksq,
        inv_ksq=inv_ksq,
        mask=mask,
        kd=kd,
        ikd=1j * kd,
        ikd_mask=1j * kd * mask,
        kd_inv_kdsq=kd * inv_kdsq,
        multiplicity=multiplicity,
    )
    for a in out:
        a.setflags(write=False)
    return out


def half_wavenumbers(grid: GridSpec) -> Wavenumbers:
    """The kernels' wavenumbers, in fft()'s rfftn half-spectrum layout."""
    return _wavenumber_cache(grid.dim, grid.n, True)


def _full_wavenumbers(grid: GridSpec) -> Wavenumbers:
    return _wavenumber_cache(grid.dim, grid.n, False)


def ksq(grid: GridSpec) -> np.ndarray:
    """|k|^2 in the SpectralField (fftn) layout."""
    return _full_wavenumbers(grid).ksq


def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Boolean 2/3-rule mask in the SpectralField layout: all |k_j| <= n/3."""
    return _full_wavenumbers(grid).mask


class _Field:
    __slots__ = ("grid", "_data")

    def __init__(self, grid, data, dtype):
        data = np.asarray(data, dtype=dtype)
        if data.ndim == grid.dim:
            data = data[np.newaxis]
        if data.ndim != grid.dim + 1 or data.shape[1:] != grid.shape:
            raise ArityError(
                f"field shape {data.shape} incompatible with grid {grid.shape}"
            )
        self.grid = grid
        self._data = data

    @property
    def components(self) -> int:
        return self._data.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.components == 1


class RealField(_Field):
    """Scalar or vector field sampled on the physical grid.

    ``data`` has shape (components, n, ..., n); a scalar input of shape
    (n, ..., n) is promoted to one component.

    ``hat``, when given, is fft(data) as the caller already holds it (the
    kernels' half spectrum).  The field keeps it and half_spectrum()
    returns it instead of a new transform; it and data become read-only,
    so the two cannot drift apart.
    """

    __slots__ = ("_hat",)

    def __init__(self, grid: GridSpec, data, hat: np.ndarray | None = None):
        super().__init__(grid, data, np.float64)
        if hat is not None:
            if hat.shape != self._data.shape[:-1] + (grid.n // 2 + 1,):
                raise ArityError(
                    f"half spectrum shape {hat.shape} does not match field "
                    f"shape {self._data.shape}"
                )
            hat.setflags(write=False)
            self._data.setflags(write=False)
        self._hat = hat

    @property
    def data(self) -> np.ndarray:
        return self._data

    def half_spectrum(self) -> np.ndarray:
        """fft(data): the kept spectrum if the field has one, else a new one."""
        return self._hat if self._hat is not None else fft(self._data, self.grid)

    @classmethod
    def zeros(cls, grid: GridSpec, components: int = 1) -> "RealField":
        return cls(grid, np.zeros((components,) + grid.shape))

    def scalar_values(self) -> np.ndarray:
        if not self.is_scalar:
            raise ArityError(f"expected scalar field, got {self.components} components")
        return self._data[0]


class SpectralField(_Field):
    """Fourier coefficients c_k, shape (components, n, ..., n).

    The public, full fftn layout: every mode is stored, including the
    conjugates that the kernels' rfftn half spectrum leaves out.
    """

    def __init__(self, grid: GridSpec, coeffs):
        super().__init__(grid, coeffs, np.complex128)

    @property
    def coeffs(self) -> np.ndarray:
        return self._data

    @classmethod
    def zeros(cls, grid: GridSpec, components: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((components,) + grid.shape, dtype=np.complex128))


def _spatial_axes(grid: GridSpec) -> tuple[int, ...]:
    return tuple(range(1, grid.dim + 1))


# ---------------------------------------------------------------------------
# split transforms: fft and ifft of at least _SPLIT_MIN_SAMPLES real samples
# (components * n**dim) run each numpy pass on slabs across threads, since
# numpy's FFTs release the GIL.  Below that, handing slabs to a thread costs
# more than it saves: on 2 vCPUs, one 3D n=32 component ran 0.7x as fast
# split and a 2D n=64 pair 0.3x, while 2 components of 2D n=256 (2**17
# samples) ran 1.3x and one 3D n=64 component 1.9-2.3x.
# ---------------------------------------------------------------------------

_SPLIT_MIN_SAMPLES = 2**17
# threads per split transform, the calling one included; nothing above
# 2 CPUs has been measured
_MAX_THREADS = 4

_pool_lock = threading.Lock()
_pool = None


@lru_cache(maxsize=None)
def _thread_count() -> int:
    """Threads a split transform runs on, the calling one included."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_THREADS)


def _split_threads(a: np.ndarray, grid: GridSpec) -> int:
    if a.shape[0] * grid.n**grid.dim < _SPLIT_MIN_SAMPLES:
        return 1
    return _thread_count()


def _workers():
    """The process's worker threads, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                _thread_count() - 1, thread_name_prefix="penflow-fft"
            )
        return _pool


def _forget_workers() -> None:
    # a forked child has none of its parent's threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _split(fn: Callable[[slice], None], length: int, threads: int) -> None:
    """fn(s) for `threads` contiguous slices s of range(length).

    The calling thread runs the first slice.  Every slice finishes before
    this returns or raises, so no worker still writes into the caller's
    arrays when it sees an error.
    """
    from concurrent.futures import wait

    bounds = [length * i // threads for i in range(threads + 1)]
    slabs = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    pool = _workers()
    futures = []
    try:
        for s in slabs[1:]:
            futures.append(pool.submit(fn, s))
        fn(slabs[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


# ---------------------------------------------------------------------------
# array kernels: unnormalised rfftn half spectrum, shape (components, n, ...,
# n//2 + 1), no boundary checks.  Every field the package transforms is real,
# so the modes with a negative last-axis wavenumber (the conjugates of the
# ones kept) are never stored.  irfftn reads the retained half as one side of
# a Hermitian spectrum, so a multiplier applied here must keep Hermitian
# symmetry: kd has the self-paired Nyquist mode zeroed on every axis.  These
# are the package's only transforms besides the full-layout pair below.
# ---------------------------------------------------------------------------


def fft(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Unnormalised rfftn of a real array over the spatial axes."""
    axes = _spatial_axes(grid)
    threads = _split_threads(a, grid)
    if threads == 1:
        return np.fft.rfftn(a, axes=axes)
    # numpy's pass order: the real transform over the last axis, then the
    # other axes from the last to the first
    out = np.empty(a.shape[:-1] + (grid.n // 2 + 1,), dtype=np.complex128)

    def planes(s: slice) -> None:
        np.fft.rfftn(a[:, s], axes=axes[1:], out=out[:, s])

    def lines(s: slice) -> None:
        o = out[:, :, s]
        np.fft.fft(o, axis=1, out=o)

    _split(planes, grid.n, threads)
    _split(lines, out.shape[2], threads)
    return out


def ifft(a_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Inverse of fft(): a new real array of shape (components,) + grid.shape."""
    axes = _spatial_axes(grid)
    threads = _split_threads(a_hat, grid)
    if threads == 1:
        return np.fft.irfftn(a_hat, s=grid.shape, axes=axes)
    # numpy's pass order: the complex axes from the first, then the real
    # transform over the last axis
    tmp = np.empty(a_hat.shape, dtype=np.complex128)
    out = np.empty(a_hat.shape[:-1] + (grid.n,))

    def lines(s: slice) -> None:
        np.fft.ifft(a_hat[..., s], axis=1, out=tmp[..., s])

    def planes(s: slice) -> None:
        t = tmp[:, s]
        for ax in axes[1:-1]:
            np.fft.ifft(t, axis=ax, out=t)
        np.fft.irfft(t, grid.n, axis=axes[-1], out=out[:, s])

    _split(lines, a_hat.shape[-1], threads)
    _split(planes, grid.n, threads)
    return out


def grad_hat(f_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """i*kd*f of one component f_hat; shape (dim,) + f_hat.shape."""
    return half_wavenumbers(grid).ikd * f_hat


def _contract(k: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """sum_j k_j*v_j, accumulated one component at a time."""
    out = k[0] * v_hat[0]
    for j in range(1, len(k)):
        out += k[j] * v_hat[j]
    return out


def div_hat(v_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum_j i*kd_j*v_j of a dim-component field; one component."""
    return _contract(half_wavenumbers(grid).ikd, v_hat)[np.newaxis]


def project_hat(v_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Leray projection v - kd (kd.v)/|kd|^2, in place, so div_hat(v_hat) == 0.

    Returns v_hat.  Modes with kd = 0 (the mean and the pure-Nyquist modes)
    pass unchanged.
    """
    w = half_wavenumbers(grid)
    kd_v = _contract(w.kd, v_hat)
    for j in range(grid.dim):
        v_hat[j] -= w.kd_inv_kdsq[j] * kd_v
    return v_hat


def advect_hat(u: np.ndarray, f_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Dealiased fft(u.grad f) of a scalar f_hat (one component); u is physical.

    Convective form, for scalars that are not band-limited (the pressures):
    there the divergence form of self_advect_hat would differ by aliasing
    error, not round-off.
    """
    grad = ifft(grad_hat(f_hat[0], grid), grid)
    grad *= u
    uf = np.sum(grad, axis=0, keepdims=True)
    return fft(uf, grid) * half_wavenumbers(grid).mask


def self_advect_hat(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Dealiased fft(u.grad u) in divergence form, sum_j i*kd_j*fft(u_j u_c).

    One fft per unique product u_i u_j, each product and each of its terms
    written into one reused scratch array.  For divergence-free u inside the
    2/3 band this equals advect_hat of each component to round-off: the
    product modes alias only outside the mask, and u.grad u = div(u u).
    """
    ikd_mask = half_wavenumbers(grid).ikd_mask
    out = np.zeros(ikd_mask.shape, dtype=np.complex128)
    uu = np.empty((1,) + grid.shape)
    term = np.empty(ikd_mask.shape[1:], dtype=np.complex128)
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            np.multiply(u[i], u[j], out=uu[0])
            uu_hat = fft(uu, grid)[0]
            out[i] += np.multiply(ikd_mask[j], uu_hat, out=term)
            if j != i:
                out[j] += np.multiply(ikd_mask[i], uu_hat, out=term)
    return out


# ---------------------------------------------------------------------------
# public operators on RealField / SpectralField (c_k = fftn / n**dim, the full
# layout, every mode stored).  _fftn/_ifftn are the full-layout pair, reached
# only from forward and backward.
# ---------------------------------------------------------------------------


def _fftn(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.fft.fftn(a, axes=_spatial_axes(grid))


def _ifftn(a_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.fft.ifftn(a_hat, axes=_spatial_axes(grid)).real


def _check_finite(f: RealField) -> None:
    if not np.all(np.isfinite(f.data)):
        raise CorruptionError("non-finite values in physical field")


def forward(f: RealField) -> SpectralField:
    """Physical samples -> Fourier coefficients."""
    _check_finite(f)
    return SpectralField(f.grid, _fftn(f.data, f.grid) / f.grid.n**f.grid.dim)


def hermitian_asymmetry(F: SpectralField) -> float:
    """Max |c_k - conj(c_{-k})| over all modes and components."""
    c = F.coeffs
    flipped = c
    for ax in _spatial_axes(F.grid):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    return float(np.max(np.abs(c - np.conj(flipped))))


def backward(F: SpectralField) -> RealField:
    """Fourier coefficients -> physical samples (imaginary residue discarded)."""
    scale = max(1.0, float(np.max(np.abs(F.coeffs)))) if F.coeffs.size else 1.0
    if hermitian_asymmetry(F) > HERMITIAN_TOL * scale:
        raise SymmetryError("coefficients are not Hermitian-symmetric")
    return RealField(F.grid, _ifftn(F.coeffs * F.grid.n**F.grid.dim, F.grid))


def gradient(F: SpectralField) -> SpectralField:
    """Spectral gradient of a scalar: component j is i*kd_j*c_k."""
    if not F.is_scalar:
        raise ArityError("gradient expects a scalar field")
    return SpectralField(F.grid, _full_wavenumbers(F.grid).ikd * F.coeffs[0])


def laplacian(F: SpectralField) -> SpectralField:
    """-|k|^2 c_k per component."""
    return SpectralField(F.grid, -ksq(F.grid) * F.coeffs)


def divergence(F: SpectralField) -> SpectralField:
    """sum_j i*kd_j*c_k^(j) of a dim-component vector field."""
    if F.components != F.grid.dim:
        raise ArityError(
            f"divergence expects {F.grid.dim} components, got {F.components}"
        )
    ikd = _full_wavenumbers(F.grid).ikd
    return SpectralField(F.grid, np.sum(ikd * F.coeffs, axis=0, keepdims=True))


def poisson_solve(F: SpectralField) -> SpectralField:
    """Solve -|k|^2 f_k = rhs_k with the zero-mean gauge f_0 = 0."""
    if not F.is_scalar:
        raise ArityError("poisson_solve expects a scalar field")
    c = F.coeffs[0]
    if abs(c[(0,) * F.grid.dim]) > MEAN_MODE_TOL:
        raise GaugeError("Poisson right-hand side must have zero mean")
    return SpectralField(F.grid, -_full_wavenumbers(F.grid).inv_ksq * c)


def dealias(F: SpectralField) -> SpectralField:
    """2/3 rule: zero every mode with any |k_j| > n/3.  Idempotent."""
    return SpectralField(F.grid, F.coeffs * dealias_mask(F.grid))


def integrate(f: RealField) -> float:
    """Integral over the box, summed over components."""
    return float(np.sum(f.data)) * f.grid.cell_volume


def l2_norm_sq(f: RealField) -> float:
    """integral sum_c f_c^2 dx."""
    return float(np.sum(f.data * f.data)) * f.grid.cell_volume


def sobolev_norm(f: RealField, order: float) -> float:
    """H^order norm via sqrt(sum_k (1+|k|^2)^order |c_k|^2 (2*pi)^dim).

    Supported orders: -1, 0, 1, 2 (scalar fields only).  The sum runs over
    f.half_spectrum(), each retained mode counted with its multiplicity.
    """
    if order not in (-1, 0, 1, 2):
        raise ConfigError(f"unsupported Sobolev order {order}")
    if not f.is_scalar:
        raise ArityError("sobolev_norm expects a scalar field")
    _check_finite(f)
    grid = f.grid
    w = half_wavenumbers(grid)
    c = f.half_spectrum()[0] / grid.n**grid.dim
    weight = w.multiplicity * (1.0 + w.ksq) ** order
    total = np.sum(weight * np.abs(c) ** 2) * TWO_PI**grid.dim
    return float(np.sqrt(total))
