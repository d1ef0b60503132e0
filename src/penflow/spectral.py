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
divergence-free under the same kd.  Sums of Re(a_k conj(b_k)) over half
spectra weight each mode by the number of modes it stands for
(multiplicity): parseval_sum is the one such bilinear sum, integral f*g
dx exactly by discrete Parseval.  Every quadratic form of a sample is
one: the H^s norms, and energy's ||P||_E^2, <.,.>_E and weak-form
residual, so no diagnostic transforms a spectrum back to multiply its
samples.

fft and ifft call numpy's one-axis passes directly, in rfftn's and irfftn's
pass order, so every result is theirs bit for bit without their per-call
argument handling.  A transform below 2**17 real samples (components times
n**dim: every 2D n=64 and 3D n=32 field) is one slab in the calling thread
and never starts a thread; a larger one (every 3D n=64 field) runs each
pass on slabs of an axis it does not transform, across the CPUs the
process may run on, at most 4 threads with the calling one.  There is no
setting for either.  The independent transforms of a stage (the products
of self_advect_hat, the derivatives behind Phi) go in batches(): as many
components per call as stay below 2**17 samples, and at least one.  That
is 31 at 2D n=64 (both products in one fft, all four derivatives in one
ifft), 3 at 3D n=32 and 1 at 3D n=64, so a batch never splits and a split
transform carries one component: all nine derivatives of a 3D n=64 field
in one call raised that run's peak RSS from 135 to 180 MB.  numpy's
arithmetic per line does not depend on how many lines a call carries, so
a batch's results are each component's own transform, bit for bit.

The elementwise work of the 3D n=64 step splits the same way, through one
dispatcher, on_slabs(grid, fn, *arrays): the products and the ikd_mask
terms of self_advect_hat, project_hat, the gradient multiply, products,
sum and mask of advector's scalar advection, the viscous term and sign of
the momentum right-hand side, the three stage updates of the RK4, and the
derivative multiply and square-and-add behind Phi.  Each body is written
once, as a plain function of whole arrays.  On a grid of fewer than
_SPLIT_MIN_SAMPLES points (2D n=64, 3D n=32) on_slabs calls it once with
the caller's own arrays; on a larger one it runs it on slabs of the first
spatial axis of every array.
The caller allocates every output and scratch array, so no worker
allocates: per-thread malloc arenas raise the peak RSS.

A slab reaches a worker through one shared queue.SimpleQueue, with its own
completion lock and error list; the workers are plain daemon threads
started on first use.  A worker drops its references to a job (fn, the
slice, the lock, the error list) before it releases the lock: fn's closure
holds the transform's arrays, which would otherwise outlive the call until
the next job arrived.

Velocity self-advection has one form, self_advect_hat's trace-free
products u u - u_d^2 I, one transform fewer than the full u u: its
divergence differs from the full one by a gradient that project_hat
removes, and flow.pressure_poisson adds that gradient's divergence back.

Work arrays are made once per call of a step, not once per RK4 stage:
fft and ifft write into a caller's out (ifft's passes into its scratch),
self_advect_hat and project_hat take a scratch, and advector(u, grid)
keeps its gradient arrays for the stages of a model-pressure step.  A
stage's scratch also holds the self-advection's products, spectra and
terms, so no stage holds more live bytes at its peak than with arrays of
its own; it has max(dim, self_advect_width(grid)) components, 4 at 2D
n=64 and 6 at 3D n=32 for their batched products, and dim at 3D n=64.  A
real array kept in a complex one's memory (real_view) is packed
contiguously at its start, not strided along its lines: the products and
their squares run faster on it.  A 3D n=64 array
lives in mmap'ed pages or at the heap top, which glibc trims after each
free, so a new one faults its pages in again; so does a 2D n=64 batch's
work split over several arrays, so Phi's batch is one block.  Keeping the
arrays from one step to the next raised the peak RSS instead, and a
process-wide mallopt is a side effect on the whole process.  CHANGES.md
has the measurements behind each of these choices.
"""

from __future__ import annotations

import math
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


class RealField(_Field):
    """Scalar or vector field sampled on the physical grid.

    ``data`` has shape (components, n, ..., n); a scalar input of shape
    (n, ..., n) is promoted to one component.

    ``hat``, when given, is fft(data) as the caller already holds it (the
    kernels' half spectrum).  The field keeps it and half_spectrum()
    returns it instead of a new transform; it and data become read-only,
    so the two cannot drift apart.  from_half_spectrum builds a field from
    a spectrum alone, whose samples are ifft(hat), computed on first read.
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

    @classmethod
    def from_half_spectrum(cls, grid: GridSpec, hat: np.ndarray) -> "RealField":
        """The field whose half spectrum is hat; its samples wait for a read.

        hat has the kernels' layout, (components, n, ..., n//2 + 1), and
        becomes read-only, as do the samples ifft(hat) once computed.
        """
        if hat.shape[1:] != grid.shape[:-1] + (grid.n // 2 + 1,):
            raise ArityError(
                f"half spectrum shape {hat.shape} incompatible with grid {grid.shape}"
            )
        field = cls.__new__(cls)
        field.grid = grid
        field._data = None
        hat.setflags(write=False)
        field._hat = hat
        return field

    @property
    def data(self) -> np.ndarray:
        # every read of the samples comes here: a field made from its
        # spectrum alone computes them now, once
        if self._data is None:
            data = ifft(self._hat, self.grid)
            data.setflags(write=False)
            self._data = data
        return self._data

    @property
    def components(self) -> int:
        return (self._data if self._hat is None else self._hat).shape[0]

    def half_spectrum(self) -> np.ndarray:
        """fft(data): the kept spectrum if the field has one, else a new one."""
        return self._hat if self._hat is not None else fft(self._data, self.grid)

    @classmethod
    def zeros(cls, grid: GridSpec, components: int = 1) -> "RealField":
        return cls(grid, np.zeros((components,) + grid.shape))

    def scalar_values(self) -> np.ndarray:
        check_field(self.grid, 1, self)
        return self.data[0]


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


def check_field(grid: GridSpec, components: int, *fields: _Field) -> None:
    """The rule on a field argument: each of fields has `components`
    components (1 for a scalar, grid.dim for a velocity) on `grid`, the
    grid of the fields it acts with; ArityError otherwise.

    It reads only .grid and .components, so a field made from its spectrum
    alone keeps its samples uncomputed.
    """
    for f in fields:
        if f.grid != grid or f.components != components:
            raise ArityError(
                f"{f.components} components on {f.grid}, not {components} on {grid}"
            )


def _spatial_axes(grid: GridSpec) -> tuple[int, ...]:
    return tuple(range(1, grid.dim + 1))


# ---------------------------------------------------------------------------
# split transforms: fft and ifft of at least _SPLIT_MIN_SAMPLES real samples
# (components * n**dim) run each numpy pass on slabs across threads, since
# numpy's FFTs release the GIL; on_slabs does the same for an elementwise
# kernel on a grid of at least _SPLIT_MIN_SAMPLES points, since ufuncs
# release it too.  Below that, handing slabs to a thread costs more than it
# saves: on 2 vCPUs, one 3D n=32 component ran 0.7x as fast
# split and a 2D n=64 pair 0.3x, while 2 components of 2D n=256 (2**17
# samples) ran 1.3x and one 3D n=64 component 1.9-2.3x.  Slabs are handed
# over through a queue.SimpleQueue and a lock per slab, and a worker drops
# each job before its caller can return, so no transform's arrays outlive
# it there.
# ---------------------------------------------------------------------------

_SPLIT_MIN_SAMPLES = 2**17
# threads per split transform, the calling one included; nothing above
# 2 CPUs has been measured
_MAX_THREADS = 4

_jobs_lock = threading.Lock()
_jobs = None


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


def batches(items: list, grid: GridSpec) -> list[list]:
    """items, one per component, cut into the batches one transform carries.

    A batch holds the most components b with b * n**dim below
    _SPLIT_MIN_SAMPLES, and at least one: so a batched transform is one
    slab in the calling thread, and one that splits carries one component.
    """
    b = max(1, (_SPLIT_MIN_SAMPLES - 1) // grid.n**grid.dim)
    return [items[lo : lo + b] for lo in range(0, len(items), b)]


def _serve(jobs) -> None:
    """A worker's loop: run each handed slab, record its error, release it."""
    while True:
        fn, s, done, errors = jobs.get()
        try:
            fn(s)
        except BaseException as exc:
            errors.append(exc)
        # fn's closure holds the transform's arrays: drop the job before
        # its caller can return, not when the next job replaces it
        del fn, s, errors
        done.release()
        del done


def _workers():
    """The job queue (a queue.SimpleQueue) of the process's worker threads,
    started on first use."""
    global _jobs
    with _jobs_lock:
        if _jobs is None:
            # imported here: loaded at import, the queue module raised the
            # 2D baseline's peak RSS, which never splits, by 0.19 MB
            import queue

            jobs = queue.SimpleQueue()
            for i in range(max(1, _thread_count() - 1)):
                threading.Thread(
                    target=_serve, args=(jobs,), name=f"penflow-fft_{i}", daemon=True
                ).start()
            _jobs = jobs
        return _jobs


def _forget_workers() -> None:
    # a forked child has none of its parent's threads
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _split(fn: Callable[[slice], None], length: int, threads: int) -> None:
    """fn(s) for `threads` contiguous slices s of range(length).

    The calling thread runs the first slice, and with one thread the only
    one, touching no worker.  The others go to the workers' queue, each
    with its own completion lock and error list, so concurrent callers
    never see each other's slabs finish; more slices than workers wait
    there.  Every slice finishes before this returns or raises, so no
    worker still writes into the caller's arrays when it sees an error; the
    first slice's error, in slice order, is the one raised.
    """
    if threads == 1:
        fn(slice(0, length))
        return
    bounds = [length * i // threads for i in range(threads + 1)]
    jobs = _workers()
    handed = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            done = threading.Lock()
            done.acquire()
            errors = []
            jobs.put((fn, slice(lo, hi), done, errors))
            handed.append((done, errors))
        fn(slice(0, bounds[1]))
    finally:
        for done, _ in handed:
            done.acquire()
    for _, errors in handed:
        if errors:
            raise errors[0]


def on_slabs(grid: GridSpec, fn: Callable[..., None], *arrays) -> None:
    """fn(*arrays), split across the CPUs on a grid of >= _SPLIT_MIN_SAMPLES.

    fn is an elementwise kernel body that writes into arrays its caller
    allocated.  On a smaller grid it is called once with the caller's own
    arrays.  On a larger one every array argument is cut on its first
    spatial axis (axis ndim - dim) and fn runs on the slabs through _split;
    any other argument (a scalar) is passed as it is.  Each element goes
    through the same operations either way, so the results are identical.
    """
    if grid.n**grid.dim < _SPLIT_MIN_SAMPLES:
        fn(*arrays)
        return
    lead = [
        (slice(None),) * (a.ndim - grid.dim) if isinstance(a, np.ndarray) else None
        for a in arrays
    ]

    def slab(s: slice) -> None:
        fn(*(a if pre is None else a[pre + (s,)] for a, pre in zip(arrays, lead)))

    _split(slab, grid.n, _thread_count())


# ---------------------------------------------------------------------------
# array kernels: unnormalised rfftn half spectrum, shape (components, n, ...,
# n//2 + 1), no boundary checks.  Every field the package transforms is real,
# so the modes with a negative last-axis wavenumber (the conjugates of the
# ones kept) are never stored.  irfftn reads the retained half as one side of
# a Hermitian spectrum, so a multiplier applied here must keep Hermitian
# symmetry: kd has the self-paired Nyquist mode zeroed on every axis.  These
# are the package's only transforms besides the full-layout pair below.
# ---------------------------------------------------------------------------


def fft(
    a: np.ndarray, grid: GridSpec, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalised rfftn of a real array over the spatial axes.

    out, when given, is a complex array of the result's shape that the
    result is written into and returned as; a is only read.
    """
    axes = _spatial_axes(grid)
    threads = _split_threads(a, grid)
    # numpy's pass order: the real transform over the last axis, then the
    # other axes from the last to the first
    if out is None:
        out = np.empty(a.shape[:-1] + (grid.n // 2 + 1,), dtype=np.complex128)

    def planes(s: slice) -> None:
        o = out[:, s]
        np.fft.rfft(a[:, s], axis=axes[-1], out=o)
        for ax in reversed(axes[1:-1]):
            np.fft.fft(o, axis=ax, out=o)

    def lines(s: slice) -> None:
        o = out[:, :, s]
        np.fft.fft(o, axis=1, out=o)

    _split(planes, grid.n, threads)
    _split(lines, out.shape[2], threads)
    return out


def ifft(
    a_hat: np.ndarray,
    grid: GridSpec,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse of fft(): a real array of shape (components,) + grid.shape.

    out, when given, is the real array the result is written into and
    returned as; scratch, a complex array of a_hat's shape that the passes
    overwrite.  Either is allocated when not given.  a_hat is only read,
    unless it is its own scratch: the passes then run in place.  Only the
    first pass reads a_hat, so out may lie in a_hat's memory.
    """
    axes = _spatial_axes(grid)
    threads = _split_threads(a_hat, grid)
    # numpy's pass order: the complex axes from the first, then the real
    # transform over the last axis
    tmp = np.empty(a_hat.shape, dtype=np.complex128) if scratch is None else scratch
    if out is None:
        out = np.empty(a_hat.shape[:-1] + (grid.n,))

    def lines(s: slice) -> None:
        # slabs of axis 2, as fft's last pass: in 3D each is a run of
        # contiguous rows, not a strip of every row
        np.fft.ifft(a_hat[:, :, s], axis=1, out=tmp[:, :, s])

    def planes(s: slice) -> None:
        t = tmp[:, s]
        for ax in axes[1:-1]:
            np.fft.ifft(t, axis=ax, out=t)
        np.fft.irfft(t, grid.n, axis=axes[-1], out=out[:, s])

    _split(lines, a_hat.shape[2], threads)
    _split(planes, grid.n, threads)
    return out


def _contract(k: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """sum_j k_j*v_j, accumulated one component at a time."""
    out = k[0] * v_hat[0]
    for j in range(1, len(k)):
        out += k[j] * v_hat[j]
    return out


def div_hat(v_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum_j i*kd_j*v_j of a dim-component field; one component."""
    return _contract(half_wavenumbers(grid).ikd, v_hat)[np.newaxis]


def _project(v_hat, kd, kd_inv_kdsq, kd_v, tmp) -> None:
    # kd_v = sum_j kd_j*v_j as _contract sums it, then v_j -= kd_j*kd_v/|kd|^2
    np.multiply(kd[0], v_hat[0], out=kd_v)
    for j in range(1, len(kd)):
        kd_v += np.multiply(kd[j], v_hat[j], out=tmp)
    for j in range(len(kd)):
        v_hat[j] -= np.multiply(kd_inv_kdsq[j], kd_v, out=tmp)


def project_hat(
    v_hat: np.ndarray, grid: GridSpec, *, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Leray projection v - kd (kd.v)/|kd|^2, in place, so div_hat(v_hat) == 0.

    Returns v_hat.  Modes with kd = 0 (the mean and the pure-Nyquist modes)
    pass unchanged.  scratch is a complex array of at least two components
    of v_hat's component shape, overwritten; allocated when not given.
    """
    w = half_wavenumbers(grid)
    if scratch is None:
        scratch = np.empty((2,) + v_hat.shape[1:], dtype=np.complex128)
    on_slabs(grid, _project, v_hat, w.kd, w.kd_inv_kdsq, scratch[0], scratch[1])
    return v_hat


def _dot(grad, u, uf) -> None:
    # uf = sum_j grad_j*u_j, added in np.sum's order; grad is overwritten
    grad *= u
    np.add(grad[0], grad[1], out=uf)
    for j in range(2, len(grad)):
        uf += grad[j]


def real_view(c: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous real array of `shape` in the first bytes of the
    C-contiguous complex array c, which holds 2 * c.size reals.

    Contiguous, elementwise kernels and transforms on it run faster than
    on the strided first reals of each line of c.
    """
    size = math.prod(shape)
    if not c.flags.c_contiguous:
        raise ArityError(f"a real view needs C-contiguous memory, not {c.strides}")
    if size > 2 * c.size:
        raise ArityError(f"{shape} does not fit in {c.shape} complex")
    # reshape(-1) of a C-contiguous array is a view, never a copy
    return c.reshape(-1).view(np.float64)[:size].reshape(shape)


def advector(u: np.ndarray, grid: GridSpec) -> Callable[[np.ndarray], np.ndarray]:
    """f_hat -> dealiased fft(u.grad f) of a scalar f_hat (one component).

    u is physical, one component per dimension, and only read.  Convective
    form, for scalars that are not band-limited (the pressures): there the
    divergence form of self_advect_hat would differ by aliasing error, not
    round-off.  Every call reuses the gradient spectrum i*kd*f_hat and the
    physical gradient made here.  The gradient spectrum is its own
    inverse's scratch, and the product u.grad f and its spectrum live in it
    once that inverse is done.  Each call returns a new array.
    """
    w = half_wavenumbers(grid)
    g_hat = np.empty(w.ikd.shape, np.complex128)
    grad = np.empty((grid.dim,) + grid.shape)
    uf = real_view(g_hat[0], (1,) + grid.shape)
    uf_hat = g_hat[1:2]

    def advect(f_hat: np.ndarray) -> np.ndarray:
        on_slabs(grid, np.multiply, w.ikd, f_hat[0], g_hat)
        ifft(g_hat, grid, out=grad, scratch=g_hat)
        on_slabs(grid, _dot, grad, u, uf[0])
        fft(uf, grid, out=uf_hat)
        out = np.empty_like(uf_hat)
        on_slabs(grid, np.multiply, uf_hat, w.mask, out)
        return out

    return advect


def _add_divergence_terms(out, ikd_mask, uu_hat, term, i, j) -> None:
    # the terms of fft(u_i u_j) in out_i and, off the diagonal, out_j
    out[i] += np.multiply(ikd_mask[j], uu_hat, out=term)
    if j != i:
        out[j] += np.multiply(ikd_mask[i], uu_hat, out=term)


def _diagonal_product(ui, ud, uu, ud_sq) -> None:
    # uu = u_i^2 - u_d^2, u_d^2 written into the scratch ud_sq
    np.multiply(ud, ud, out=ud_sq)
    np.multiply(ui, ui, out=uu)
    uu -= ud_sq


@lru_cache(maxsize=None)
def _product_batches(grid: GridSpec) -> list[list[tuple[int, int]]]:
    # the (i, j) of the products u_i u_j (i < j) and u_i^2 - u_d^2 (i = j < d)
    d = grid.dim - 1
    return batches([(i, j) for i in range(d) for j in range(i, grid.dim)], grid)


def self_advect_width(grid: GridSpec) -> int:
    """Complex components of self_advect_hat's scratch: twice its largest
    batch of products, which it holds with their spectra."""
    return 2 * len(_product_batches(grid)[0])


def self_advect_hat(
    u: np.ndarray, grid: GridSpec, *, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Dealiased fft(div(u u - u_d^2 I)), d the last component.

    The trace-free products u_i u_j (i < j) and u_i^2 - u_d^2 (i < d),
    dim(dim+1)/2 - 1 of them, one fft per batch of batches(): both 2D n=64
    products in one, 3 + 2 at 3D n=32, one each at 3D n=64.  The result
    differs from the full divergence form sum_j i*kd_j*fft(u_j u_c) by
    i*kd*mask*fft(u_d^2), a gradient under kd: project_hat removes it
    exactly, so the projected advection is the full one's to round-off for
    any u, and flow.pressure_poisson adds its divergence back.  For
    divergence-free u inside the 2/3 band the full form equals advector's
    advection of each component to round-off: the product modes alias only outside
    the mask, and u.grad u = div(u u).

    Every product, its spectrum and its terms are written into scratch
    (complex, at least self_advect_width(grid) components of the result's
    component shape, overwritten), allocated when not given.
    """
    ikd_mask = half_wavenumbers(grid).ikd_mask
    out = np.zeros(ikd_mask.shape, dtype=np.complex128)
    width = self_advect_width(grid)
    if scratch is None:
        scratch = np.empty((width,) + ikd_mask.shape[1:], dtype=np.complex128)
    # a batch's products go into the memory of the first half of scratch
    # and u_d^2 into the second's, both free until the products are
    # transformed; the spectra then go into the second half and each
    # product's terms into term
    uu = real_view(scratch[: width // 2], (width // 2,) + grid.shape)
    uu_hat = scratch[width // 2 : width]
    ud_sq = real_view(uu_hat[0], grid.shape)
    term = scratch[0]
    d = grid.dim - 1
    for batch in _product_batches(grid):
        k = len(batch)
        for b, (i, j) in enumerate(batch):
            if i != j:
                on_slabs(grid, np.multiply, u[i], u[j], uu[b])
            else:
                on_slabs(grid, _diagonal_product, u[i], u[d], uu[b], ud_sq)
        fft(uu[:k], grid, out=uu_hat[:k])
        for b, (i, j) in enumerate(batch):
            on_slabs(grid, _add_divergence_terms, out, ikd_mask, uu_hat[b], term, i, j)
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
    check_field(F.grid, 1, F)
    return SpectralField(F.grid, _full_wavenumbers(F.grid).ikd * F.coeffs[0])


def laplacian(F: SpectralField) -> SpectralField:
    """-|k|^2 c_k per component."""
    return SpectralField(F.grid, -ksq(F.grid) * F.coeffs)


def divergence(F: SpectralField) -> SpectralField:
    """sum_j i*kd_j*c_k^(j) of a dim-component vector field."""
    check_field(F.grid, F.grid.dim, F)
    ikd = _full_wavenumbers(F.grid).ikd
    return SpectralField(F.grid, np.sum(ikd * F.coeffs, axis=0, keepdims=True))


def poisson_solve(F: SpectralField) -> SpectralField:
    """Solve -|k|^2 f_k = rhs_k with the zero-mean gauge f_0 = 0."""
    check_field(F.grid, 1, F)
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


def parseval_sum(
    a: np.ndarray, b: np.ndarray, grid: GridSpec, weight: np.ndarray | None = None
) -> float:
    """(2*pi)^dim sum_k weight_k Re(a_k conj(b_k)) / n^(2 dim) over half spectra.

    Each retained mode is counted with its multiplicity, so for the half
    spectra of real samples f and g and no weight this is integral f*g dx
    by discrete Parseval, exactly in exact arithmetic; weight (the kernels'
    layout, e.g. |k|^4 for lap f * lap g) weights each mode.  Every
    component is summed.  A norm passes one spectrum as both a and b.
    """
    power = a.real * b.real
    power += a.imag * b.imag
    if weight is not None:
        power *= weight
    # the multiplicity contracts the last axis, as one matrix-vector product
    total = (power @ half_wavenumbers(grid).multiplicity).sum()
    return float(total) * (TWO_PI / grid.n**2) ** grid.dim


def sobolev_norm(f: RealField, order: float) -> float:
    """H^order norm via sqrt(sum_k (1+|k|^2)^order |c_k|^2 (2*pi)^dim).

    Supported orders: -1, 0, 1, 2 (scalar fields only).  The sum is
    parseval_sum over f.half_spectrum().  Finiteness is checked on that
    spectrum (a sample is non-finite exactly when a coefficient is,
    overflow aside), so a field made from its spectrum alone keeps its
    samples uncomputed.
    """
    if order not in (-1, 0, 1, 2):
        raise ConfigError(f"unsupported Sobolev order {order}")
    check_field(f.grid, 1, f)
    hat = f.half_spectrum()
    if not np.all(np.isfinite(hat)):
        raise CorruptionError("non-finite values in field spectrum")
    weight = (1.0 + half_wavenumbers(f.grid).ksq) ** order
    return float(np.sqrt(parseval_sum(hat, hat, f.grid, weight)))
