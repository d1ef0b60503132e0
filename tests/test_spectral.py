"""Spectral core: transforms, derivatives, Poisson inversion, dealiasing."""

import dataclasses
import itertools
import os
import re
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import penflow
from penflow import (
    ArityError,
    ConfigError,
    CorruptionError,
    GaugeError,
    GridSpec,
    InitialCondition,
    RealField,
    SpectralField,
    SymmetryError,
    ThermoParams,
    backward,
    dealias,
    dissipation_phi,
    divergence,
    forward,
    gradient,
    integrate,
    l2_norm_sq,
    laplacian,
    make_initial,
    poisson_solve,
    pressure_poisson,
    sobolev_norm,
    spectral,
)
from penflow.cli import run_scenario
from penflow.flow import _gradient_squares
from penflow.solver import ScenarioConfig, SolverConfig, _momentum_rhs, _rk4
from penflow.spectral import (
    advector,
    dealias_mask,
    div_hat,
    fft,
    half_wavenumbers,
    hermitian_asymmetry,
    ifft,
    project_hat,
    self_advect_hat,
)

from conftest import smooth_scalar, smooth_vector


def naive_dft(f):
    """O(n^2d) direct DFT oracle in the c_k = fft/n^d convention."""
    grid = f.grid
    n, dim = grid.n, grid.dim
    ks = [np.fft.fftfreq(n, d=1.0 / n).astype(int) for _ in range(dim)]
    coords = grid.coordinates()
    out = np.zeros((f.components,) + grid.shape, dtype=np.complex128)
    for kvec in itertools.product(*[range(n)] * dim):
        k = [ks[a][kvec[a]] for a in range(dim)]
        phase = sum(kk * x for kk, x in zip(k, coords))
        basis = np.exp(-1j * phase)
        for c in range(f.components):
            out[(c,) + kvec] = np.sum(f.data[c] * basis) / n**dim
    return out


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(2, 16)
        assert g.h == pytest.approx(2 * np.pi / 16)
        assert g.shape == (16, 16)

    @pytest.mark.parametrize("dim,n", [(1, 16), (4, 16), (2, 17), (2, 4), (2, 24)])
    def test_invalid(self, dim, n):
        with pytest.raises(ConfigError):
            GridSpec(dim, n)


class TestForwardBackward:
    def test_constant_is_dc_mode(self):
        g = GridSpec(2, 16)
        F = forward(RealField(g, np.ones(g.shape)))
        assert F.coeffs[0, 0, 0] == pytest.approx(1.0)
        rest = F.coeffs.copy()
        rest[0, 0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-14

    def test_cosine_single_mode(self):
        g = GridSpec(2, 16)
        x, _ = g.coordinates()
        F = forward(RealField(g, np.cos(x)))
        assert F.coeffs[0, 1, 0] == pytest.approx(0.5, abs=1e-14)
        assert F.coeffs[0, -1, 0] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_matches_naive_dft(self, dim, n, rng):
        g = GridSpec(dim, n)
        f = RealField(g, rng.standard_normal(g.shape))
        assert np.max(np.abs(forward(f).coeffs - naive_dft(f))) < 1e-12

    def test_backward_zero(self):
        g = GridSpec(2, 16)
        assert np.all(backward(SpectralField.zeros(g)).data == 0)

    def test_backward_cosine(self):
        g = GridSpec(2, 16)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0] = c[-1, 0] = 0.5
        x, _ = g.coordinates()
        out = backward(SpectralField(g, c))
        assert np.max(np.abs(out.scalar_values() - np.cos(x))) < 1e-13

    def test_backward_random_hermitian(self, rng):
        g = GridSpec(2, 16)
        f = RealField(g, rng.standard_normal(g.shape))
        F = forward(f)
        # naive inverse: evaluate sum c_k exp(ikx) directly
        ks = np.fft.fftfreq(g.n, d=1.0 / g.n).astype(int)
        coords = g.coordinates()
        recon = np.zeros(g.shape, dtype=complex)
        for i, j in itertools.product(range(g.n), repeat=2):
            recon += F.coeffs[0, i, j] * np.exp(
                1j * (ks[i] * coords[0] + ks[j] * coords[1])
            )
        assert np.max(np.abs(backward(F).scalar_values() - recon.real)) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_roundtrip(self, n, rng):
        g = GridSpec(2, n)
        f = RealField(g, rng.standard_normal(g.shape))
        scale = np.max(np.abs(f.data))
        assert np.max(np.abs(backward(forward(f)).data - f.data)) < 1e-12 * scale

    def test_corruption_rejected(self):
        g = GridSpec(2, 16)
        bad = np.ones(g.shape)
        bad[0, 0] = np.nan
        with pytest.raises(CorruptionError):
            forward(RealField(g, bad))

    def test_asymmetry_rejected(self):
        g = GridSpec(2, 16)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0] = 1.0  # no conjugate partner
        with pytest.raises(SymmetryError):
            backward(SpectralField(g, c))

    def test_parseval(self, rng):
        g = GridSpec(2, 32)
        f = smooth_scalar(g, rng)
        spectral = (2 * np.pi) ** 2 * np.sum(np.abs(forward(f).coeffs) ** 2)
        assert l2_norm_sq(f) == pytest.approx(spectral, rel=1e-10)

    def test_hermitian_asymmetry_zero_for_real_input(self, rng):
        g = GridSpec(3, 8)
        f = RealField(g, rng.standard_normal(g.shape))
        assert hermitian_asymmetry(forward(f)) < 1e-14


class TestDerivatives:
    def test_gradient_sine(self):
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        out = backward(gradient(forward(RealField(g, np.sin(x)))))
        assert np.max(np.abs(out.data[0] - np.cos(x))) < 1e-12
        assert np.max(np.abs(out.data[1])) < 1e-12

    def test_gradient_constant(self):
        g = GridSpec(2, 16)
        out = gradient(forward(RealField(g, np.full(g.shape, 3.0))))
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_gradient_rejects_vector(self, rng):
        g = GridSpec(2, 16)
        v = smooth_vector(g, rng)
        with pytest.raises(ArityError):
            gradient(forward(v))

    def test_gradient_finite_difference(self, rng):
        g = GridSpec(2, 32)
        f = smooth_scalar(g, rng)
        out = backward(gradient(forward(f)))
        h = g.h
        for axis in range(2):
            fd = (np.roll(f.data[0], -1, axis) - np.roll(f.data[0], 1, axis)) / (2 * h)
            assert np.max(np.abs(out.data[axis] - fd)) < 10 * h**2

    def test_laplacian_eigenfunction(self):
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        out = backward(laplacian(forward(RealField(g, np.cos(x)))))
        assert np.max(np.abs(out.scalar_values() + np.cos(x))) < 1e-12

    def test_laplacian_constant(self):
        g = GridSpec(2, 16)
        out = laplacian(forward(RealField(g, np.ones(g.shape))))
        assert np.max(np.abs(out.coeffs)) < 1e-14

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_laplacian_finite_difference(self, dim, n, rng):
        g = GridSpec(dim, n)
        f = smooth_scalar(g, rng)
        out = backward(laplacian(forward(f))).scalar_values()
        h = g.h
        fd = -2 * dim * f.data[0] / h**2
        for axis in range(dim):
            fd += (np.roll(f.data[0], -1, axis) + np.roll(f.data[0], 1, axis)) / h**2
        assert np.max(np.abs(out - fd)) < 10 * h**2

    def test_divergence_taylor_green(self):
        g = GridSpec(2, 32)
        x, y = g.coordinates()
        v = RealField(g, np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)]))
        out = backward(divergence(forward(v)))
        assert np.max(np.abs(out.data)) < 1e-12

    def test_divergence_constant(self):
        g = GridSpec(2, 16)
        v = RealField(g, np.stack([np.ones(g.shape), 2 * np.ones(g.shape)]))
        assert np.max(np.abs(divergence(forward(v)).coeffs)) < 1e-14

    def test_divergence_analytic(self):
        g = GridSpec(2, 32)
        x, y = g.coordinates()
        v = RealField(g, np.stack([np.sin(x), np.sin(y)]))
        out = backward(divergence(forward(v))).scalar_values()
        assert np.max(np.abs(out - np.cos(x) - np.cos(y))) < 1e-12

    def test_divergence_arity(self, rng):
        g = GridSpec(3, 8)
        v = smooth_vector(g, rng, components=2)
        with pytest.raises(ArityError):
            divergence(forward(v))

    def test_div_grad_equals_laplacian(self, rng):
        g = GridSpec(2, 32)
        F = forward(smooth_scalar(g, rng))
        lhs = divergence(gradient(F)).coeffs
        rhs = laplacian(F).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_linearity(self, rng):
        g = GridSpec(2, 32)
        f1 = forward(smooth_scalar(g, rng))
        f2 = forward(smooth_scalar(g, rng))
        combo = SpectralField(g, 2.0 * f1.coeffs - 0.5 * f2.coeffs)
        for op in (gradient, laplacian):
            direct = op(combo).coeffs
            split = 2.0 * op(f1).coeffs - 0.5 * op(f2).coeffs
            assert np.max(np.abs(direct - split)) < 1e-12


class TestPoisson:
    def test_eigenfunction(self):
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        out = backward(poisson_solve(forward(RealField(g, -np.cos(x)))))
        assert np.max(np.abs(out.scalar_values() - np.cos(x))) < 1e-12

    def test_zero(self):
        g = GridSpec(2, 16)
        out = poisson_solve(SpectralField.zeros(g))
        assert np.max(np.abs(out.coeffs)) == 0

    def test_roundtrip_oracle(self, rng):
        g = GridSpec(2, 32)
        f = smooth_scalar(g, rng)  # zero-mean by construction
        out = backward(poisson_solve(laplacian(forward(f))))
        assert np.max(np.abs(out.data - f.data)) < 1e-12

    def test_nonzero_mean_rejected(self):
        g = GridSpec(2, 16)
        with pytest.raises(GaugeError):
            poisson_solve(forward(RealField(g, np.ones(g.shape))))


class TestDealias:
    def test_low_modes_unchanged(self):
        g = GridSpec(2, 32)
        x, y = g.coordinates()
        F = forward(RealField(g, np.cos(3 * x) + np.sin(5 * y)))
        assert np.max(np.abs(dealias(F).coeffs - F.coeffs)) < 1e-14

    def test_high_modes_zeroed(self):
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        F = forward(RealField(g, np.cos(14 * x)))  # 14 > 32/3
        assert np.max(np.abs(dealias(F).coeffs)) < 1e-14

    def test_idempotent(self, rng):
        g = GridSpec(2, 32)
        F = forward(RealField(g, rng.standard_normal(g.shape)))
        once = dealias(F).coeffs
        twice = dealias(dealias(F)).coeffs
        assert np.array_equal(once, twice)

    def test_mask_cutoff(self):
        g = GridSpec(2, 32)
        mask = dealias_mask(g)
        assert mask[10, 0]  # |k| = 10 <= 32/3
        assert not mask[11, 0]  # |k| = 11 > 32/3


class TestSelfAdvection:
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_divergence_form_matches_convective_form(self, dim, n):
        # u.grad u = div(u u) for divergence-free u, and products of
        # 2/3-band modes alias only outside the mask; the trace-free form
        # leaves out a gradient, so the two agree once projected
        g = GridSpec(dim, n)
        u = make_initial(InitialCondition("random_divfree", seed=dim), g).u.data
        u_hat = fft(u, g)
        advect = advector(u, g)
        convective = project_hat(
            np.concatenate([advect(u_hat[c : c + 1]) for c in range(dim)]), g
        )
        gap = np.max(np.abs(project_hat(self_advect_hat(u, g), g) - convective))
        assert gap <= 1e-12 * np.max(np.abs(convective))

    @pytest.mark.parametrize("field", ["random_divfree", "smooth_vector"])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_trace_free_rhs_matches_the_full_one(self, dim, n, field, rng):
        # u u and u u - u_d^2 I differ by a gradient the projection removes,
        # for any u: a solenoidal one and one that is not
        g = GridSpec(dim, n)
        if field == "random_divfree":
            u = make_initial(InitialCondition(field, seed=dim), g).u.data
        else:
            u = smooth_vector(g, rng).data
        # the full divergence form, sum_j i*kd_j*mask*fft(u_j u_c)
        ikd_mask = half_wavenumbers(g).ikd_mask
        full = np.stack(
            [
                sum(
                    ikd_mask[j] * fft(u[j : j + 1] * u[c : c + 1], g)[0]
                    for j in range(dim)
                )
                for c in range(dim)
            ]
        )
        trace_free = self_advect_hat(u, g)
        want = project_hat(full.copy(), g)
        scale = np.max(np.abs(want))
        gap = project_hat(trace_free.copy(), g) - want
        assert np.max(np.abs(gap)) <= 1e-12 * scale
        # the trace-free advection alone is not the full one
        assert np.max(np.abs(trace_free - full)) > 1e-3 * scale


class TestKernelLayout:
    """The kernels' rfftn half spectrum against the public fftn layout, the
    operators written out in the full layout with their own wavevectors."""

    @staticmethod
    def _random(dim, n, rng):
        g = GridSpec(dim, n)
        return g, rng.standard_normal((dim,) + g.shape)

    @staticmethod
    def _close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_fft_is_the_retained_half(self, dim, n, rng):
        g, a = self._random(dim, n, rng)
        full = forward(RealField(g, a)).coeffs * n**dim
        half = fft(a, g)
        assert half.shape == (dim,) + g.shape[:-1] + (n // 2 + 1,)
        assert self._close(half, full[..., : n // 2 + 1])
        assert self._close(ifft(half, g), a)

    def test_kept_half_spectrum(self, rng):
        # a field built with its spectrum returns it, and it and the samples
        # are frozen so the two cannot drift apart; a field without one
        # transforms its samples on each call
        g, a = self._random(2, 16, rng)
        a_hat = fft(a, g)
        f = RealField(g, a, a_hat)
        assert f.half_spectrum() is a_hat
        assert not a_hat.flags.writeable and not f.data.flags.writeable
        assert self._close(RealField(g, a).half_spectrum(), a_hat)
        with pytest.raises(ArityError):
            RealField(g, a, a_hat[:1])

    def test_samples_of_a_half_spectrum_are_computed_on_read(
        self, monkeypatch, rng
    ):
        # a field made from its spectrum alone transforms it on the first
        # read of its samples, through every reader, and never again
        g, a = self._random(2, 16, rng)
        a_hat = fft(a[:1], g)
        calls = []

        def counted(x, grid, _ifft=spectral.ifft, **kwargs):
            calls.append(x)
            return _ifft(x, grid, **kwargs)

        monkeypatch.setattr(spectral, "ifft", counted)
        f = RealField.from_half_spectrum(g, a_hat)
        assert f.components == 1
        assert f.half_spectrum() is a_hat and not a_hat.flags.writeable
        assert calls == []
        values = f.scalar_values()
        assert len(calls) == 1 and calls[0] is a_hat
        assert f.data is f.data and len(calls) == 1
        assert values.base is f.data and not f.data.flags.writeable
        assert f.data.tobytes() == ifft(a_hat, g).tobytes()
        with pytest.raises(ArityError):
            RealField.from_half_spectrum(g, fft(a[:1], g)[..., :-1])

    @staticmethod
    def _full_layout(g):
        """k, the 2/3 mask, kd and 1/|kd|^2 in the fftn layout."""
        n = g.n
        k1 = np.fft.fftfreq(n, d=1.0 / n)
        k = np.stack(np.meshgrid(*([k1] * g.dim), indexing="ij"))
        mask = np.all(np.abs(k) <= n / 3.0, axis=0)
        kd = np.where(k == -(n // 2), 0.0, k)
        kdsq = np.sum(kd * kd, axis=0)
        inv_kdsq = np.where(kdsq > 0, 1.0 / np.where(kdsq > 0, kdsq, 1.0), 0.0)
        return k, mask, kd, inv_kdsq

    @staticmethod
    def _c(g, f):
        return forward(RealField(g, f)).coeffs

    @staticmethod
    def _back(g, coeffs):
        # backward's Hermitian gate also checks the formulas it is given
        return backward(SpectralField(g, coeffs)).data

    @classmethod
    def _full_advection(cls, g, a, kd, mask):
        """sum_j i*kd_j*mask*c(a_j a_i), the full divergence form."""
        return np.stack(
            [
                sum(
                    1j * kd[j] * mask * cls._c(g, a[j] * a[i])[0]
                    for j in range(g.dim)
                )
                for i in range(g.dim)
            ]
        )

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_operators_match_full_layout(self, dim, n, rng):
        g, a = self._random(dim, n, rng)
        _, mask, kd, inv_kdsq = self._full_layout(g)
        A = self._c(g, a)
        # the trace-free form: the full one minus i*kd*mask*c(a_d^2)
        advection = self._full_advection(g, a, kd, mask) - (
            1j * kd * mask * self._c(g, a[-1] * a[-1])[0]
        )
        # the convective advection of a scalar f = a_0 by u = a:
        # mask*c(sum_j u_j d_j f), each d_j f from the full-layout spectrum
        grad_f = [self._back(g, 1j * kd[j] * A[0])[0] for j in range(dim)]
        u_grad_f = sum(a[j] * grad_f[j] for j in range(dim))
        a_hat = fft(a, g)
        pairs = [
            (advector(a, g)(a_hat[:1]), mask * self._c(g, u_grad_f)),
            (div_hat(a_hat, g), np.sum(1j * kd * A, axis=0, keepdims=True)),
            (project_hat(a_hat, g), A - kd * (np.sum(kd * A, axis=0) * inv_kdsq)),
            (self_advect_hat(a, g), advection),
        ]
        for got, want in pairs:
            assert self._close(ifft(got, g), self._back(g, want))

    @pytest.mark.parametrize("field", ["random_divfree", "white_noise"])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_pressure_poisson_matches_full_layout(self, dim, n, field, rng):
        # P = rho/|k|^2 div(full advection), the trace kept, for a
        # solenoidal u and for one that is not
        g = GridSpec(dim, n)
        if field == "random_divfree":
            u = make_initial(InitialCondition(field, seed=dim), g).u.data
        else:
            u = rng.standard_normal((dim,) + g.shape)
        params = ThermoParams(rho=1.3)
        k, mask, kd, _ = self._full_layout(g)
        ksq = np.sum(k * k, axis=0)
        inv_ksq = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
        div = np.sum(1j * kd * self._full_advection(g, u, kd, mask), axis=0)
        want = self._back(g, (params.rho * inv_ksq * div)[np.newaxis])
        got = pressure_poisson(RealField(g, u), params).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _numpy_pair(a, a_hat, g):
    """numpy's own rfftn of a and irfftn of a_hat, the kernels' reference."""
    axes = tuple(range(1, g.dim + 1))
    return (
        np.fft.rfftn(a, axes=axes),
        np.fft.irfftn(a_hat, s=g.shape, axes=axes),
    )


class TestSmallTransforms:
    """Below _SPLIT_MIN_SAMPLES fft/ifft run numpy's passes as one slab in
    the calling thread; the results are rfftn/irfftn's, bit for bit."""

    @pytest.mark.parametrize("components", [1, 3])
    @pytest.mark.parametrize("dim, n", [(2, 8), (2, 64), (3, 32)])
    def test_bitwise_numpy(self, dim, n, components, rng):
        g = GridSpec(dim, n)
        a = rng.standard_normal((components,) + g.shape)
        assert spectral._split_threads(a, g) == 1
        # an arbitrary half spectrum too: irfft must read it as irfftn does
        shape = (components,) + g.shape[:-1] + (n // 2 + 1,)
        b_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a_hat = fft(a, g)
        want_hat, want = _numpy_pair(a, a_hat, g)
        assert a_hat.tobytes() == want_hat.tobytes()
        assert ifft(a_hat, g).tobytes() == want.tobytes()
        assert ifft(b_hat, g).tobytes() == _numpy_pair(a, b_hat, g)[1].tobytes()

    @pytest.mark.parametrize("dim, n", [(2, 64), (3, 32)])
    def test_bitwise_numpy_on_views(self, dim, n, rng):
        # strided inputs: a transposed array and every other component
        g = GridSpec(dim, n)
        a = np.swapaxes(rng.standard_normal((1,) + g.shape), 1, dim)
        axes = tuple(range(1, dim + 1))
        stacked = np.fft.rfftn(rng.standard_normal((4,) + g.shape), axes=axes)
        a_hat = stacked[::2]
        assert not a.flags.c_contiguous and not a_hat.flags.c_contiguous
        want_hat, want = _numpy_pair(a, a_hat, g)
        assert fft(a, g).tobytes() == want_hat.tobytes()
        assert ifft(a_hat, g).tobytes() == want.tobytes()

    def test_no_nd_numpy_call(self, monkeypatch, rng):
        # the passes are called directly, so rfftn/irfftn's argument
        # handling is not paid per transform
        def refuse(*args, **kwargs):
            raise AssertionError("n-d numpy transform called")

        monkeypatch.setattr(np.fft, "rfftn", refuse)
        monkeypatch.setattr(np.fft, "irfftn", refuse)
        g = GridSpec(2, 64)
        a = rng.standard_normal((2,) + g.shape)
        assert np.allclose(ifft(fft(a, g), g), a, rtol=0, atol=1e-12)

    def test_one_slab_touches_no_worker(self, monkeypatch):
        def refuse():
            raise AssertionError("worker pool touched")

        monkeypatch.setattr(spectral, "_workers", refuse)
        seen = []
        spectral._split(seen.append, 5, 1)
        assert seen == [slice(0, 5)]


@pytest.fixture
def split_calls(monkeypatch):
    # at least two threads even on one CPU, and every pass that hands
    # slabs to workers counted, so that a test of the split path cannot
    # pass on the one-slab path that every smaller transform takes
    threads = max(2, spectral._thread_count())
    monkeypatch.setattr(spectral, "_thread_count", lambda: threads)
    calls = []
    split = spectral._split

    def counted(fn, length, threads):
        if threads > 1:
            calls.append(length)
        split(fn, length, threads)

    monkeypatch.setattr(spectral, "_split", counted)
    return calls


class TestSplitTransforms:
    """fft/ifft of at least _SPLIT_MIN_SAMPLES real samples run each numpy
    pass on slabs across threads; the results are numpy's, bit for bit."""

    @pytest.mark.parametrize(
        "dim, n, components", [(3, 64, 1), (3, 64, 3), (2, 512, 1)]
    )
    def test_bitwise_numpy(self, split_calls, dim, n, components, rng):
        g = GridSpec(dim, n)
        a = rng.standard_normal((components,) + g.shape)
        a_hat = fft(a, g)
        want_hat, want = _numpy_pair(a, a_hat, g)
        assert a_hat.tobytes() == want_hat.tobytes()
        assert ifft(a_hat, g).tobytes() == want.tobytes()
        assert len(split_calls) == 4

    def test_bitwise_numpy_on_views(self, split_calls, rng):
        # strided inputs: a transposed array and every other component
        g = GridSpec(3, 64)
        a = np.swapaxes(rng.standard_normal((1,) + g.shape), 1, 3)
        stacked = np.fft.rfftn(rng.standard_normal((4,) + g.shape), axes=(1, 2, 3))
        a_hat = stacked[::2]
        assert not a.flags.c_contiguous and not a_hat.flags.c_contiguous
        want_hat, want = _numpy_pair(a, a_hat, g)
        assert fft(a, g).tobytes() == want_hat.tobytes()
        assert ifft(a_hat, g).tobytes() == want.tobytes()
        assert len(split_calls) == 4

    def test_outputs_are_fresh_and_writable(self, split_calls, rng):
        # callers write into the results (grad *= u, d *= d)
        g = GridSpec(3, 64)
        a = rng.standard_normal((1,) + g.shape)
        a_hat = fft(a, g)
        for out in (a_hat, ifft(a_hat, g)):
            assert out.base is None and out.flags.writeable
            assert not np.shares_memory(out, a)
        assert len(split_calls) == 4

    def test_threshold(self):
        # the crossover: 3D n=64 splits, 3D n=32 and 2D n=64 do not
        threads = spectral._thread_count()
        for dim, n, components, split in [
            (3, 64, 1, True),
            (2, 256, 2, True),
            (3, 32, 3, False),
            (2, 64, 2, False),
        ]:
            g = GridSpec(dim, n)
            a = np.empty((components,) + g.shape)
            assert spectral._split_threads(a, g) == (threads if split else 1)

    def test_scenario_outputs_match_the_serial_path(
        self, split_calls, monkeypatch, tmp_path
    ):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(3, 32),
            ic=InitialCondition("taylor_green_3d"),
            solver=SolverConfig(dt=1e-3, t_end=4e-3),
            output_every=2,
        )
        run_scenario(dataclasses.replace(cfg, output_dir=str(tmp_path / "serial")))
        assert split_calls == []
        monkeypatch.setattr(spectral, "_SPLIT_MIN_SAMPLES", 0)
        run_scenario(dataclasses.replace(cfg, output_dir=str(tmp_path / "split")))
        assert split_calls
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert "series.csv" in names and any(n.endswith(".ckpt") for n in names)
        assert names == sorted(p.name for p in (tmp_path / "split").iterdir())
        for name in names:
            if name != "summary.txt":
                serial = (tmp_path / "serial" / name).read_bytes()
                assert (tmp_path / "split" / name).read_bytes() == serial, name

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
    def test_error_after_every_slice_finished(self, split_calls, failing):
        # slice 0 runs on the calling thread, slice 2 is the slow one
        finished = []

        def fn(s):
            if s.start == failing:
                raise ValueError("slice failed")
            if s.start == 2:
                time.sleep(0.2)
            finished.append(s.start)

        with pytest.raises(ValueError, match="slice failed"):
            spectral._split(fn, 3, 3)
        assert sorted(finished) == sorted({0, 1, 2} - {failing})

    def test_concurrent_callers(self, split_calls, monkeypatch, rng):
        # two threads split transforms of several sizes at once, more
        # threads than CPUs sharing pocketfft's plan cache; every result
        # must still be numpy's, bit for bit
        monkeypatch.setattr(spectral, "_SPLIT_MIN_SAMPLES", 0)
        rounds = 25
        cases = []
        for dim, n in itertools.product((2, 3), (8, 16, 32, 64)):
            g = GridSpec(dim, n)
            a = rng.standard_normal((2,) + g.shape)
            want_hat = np.fft.rfftn(a, axes=tuple(range(1, dim + 1)))
            cases.append((g, a, want_hat, _numpy_pair(a, want_hat, g)[1]))
        mismatches, errors = [], []

        def hammer(order):
            try:
                for _ in range(rounds):
                    for g, a, want_hat, want in order:
                        got_hat = fft(a, g)
                        if got_hat.tobytes() != want_hat.tobytes():
                            mismatches.append(("fft", g))
                        if ifft(got_hat, g).tobytes() != want.tobytes():
                            mismatches.append(("ifft", g))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(order,))
                for order in (cases, cases[::-1])
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and mismatches == []
        assert len(split_calls) == 2 * rounds * len(cases) * 4

    def test_worker_keeps_no_finished_job(self, split_calls):
        # fn's closure holds the caller's arrays: a worker that kept its
        # last job until the next one would keep them alive
        a = np.zeros(8)
        alive = weakref.ref(a)

        def fn(s, a=a):
            a[s] += 1

        spectral._split(fn, 8, 2)
        assert split_calls == [8]
        del fn, a
        assert alive() is None

    def test_3d_transform_hands_slabs_to_named_workers(self):
        # a fresh interpreter: every slab of a 3D n=64 transform runs in
        # the calling thread or a penflow-fft worker, and no executor
        # module is imported
        code = """
import sys, threading
import numpy as np
from penflow import spectral
spectral._thread_count = lambda: 2
names = set()
split = spectral._split
def named(fn, length, threads):
    def slab(s):
        names.add(threading.current_thread().name)
        fn(s)
    split(slab, length, threads)
spectral._split = named
g = spectral.GridSpec(3, 64)
a = np.random.default_rng(0).standard_normal((1,) + g.shape)
spectral.ifft(spectral.fft(a, g), g)
names.discard(threading.main_thread().name)
print("concurrent.futures" in sys.modules, *sorted(names))
"""
        src = str(Path(penflow.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        futures_imported, *workers = out.stdout.split()
        assert futures_imported == "False"
        assert workers and all(w.startswith("penflow-fft") for w in workers)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_workers(self, split_calls, rng):
        # the child inherits the pool object but none of its threads
        g = GridSpec(3, 64)
        a = rng.standard_normal((1,) + g.shape)
        want = fft(a, g).tobytes()
        pid = os.fork()
        if pid == 0:  # child: report through the exit status only
            try:
                os._exit(0 if fft(a, g).tobytes() == want else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("split transform in a forked child did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0


def _decay(y):
    return y * (1.0 - 0.5j)


# every kernel routed through spectral.on_slabs, as a function of inputs
# that are computed once; each returns the array the kernel writes
_ROUTED_KERNELS = {
    "self_advect_hat": lambda g, x: self_advect_hat(x["u"], g),
    "project_hat": lambda g, x: project_hat(x["v_hat"].copy(), g),
    "advector": lambda g, x: advector(x["u"], g)(x["p_hat"]),
    "_momentum_rhs": lambda g, x: _momentum_rhs(x["u_hat"], 0.1, g),
    "_rk4": lambda g, x: _rk4(_decay, x["u_hat"], _decay(x["u_hat"]), 0.3, g),
    "_gradient_squares": lambda g, x: _gradient_squares(x["field"]),
}


def _self_advect_one_by_one(u, g):
    """self_advect_hat's sum, each trace-free product in an fft of its own."""
    ikd_mask = half_wavenumbers(g).ikd_mask
    out = np.zeros(ikd_mask.shape, dtype=np.complex128)
    d = g.dim - 1
    for i in range(d):
        for j in range(i, g.dim):
            uu = u[i] * u[j] if i != j else u[i] * u[i] - u[d] * u[d]
            uu_hat = fft(uu[np.newaxis], g)[0]
            out[i] += ikd_mask[j] * uu_hat
            if j != i:
                out[j] += ikd_mask[i] * uu_hat
    return out


def _phi_one_by_one(u_hat, g, mu):
    """2*mu*sum_ij (du_i/dx_j)^2, each derivative in an ifft of its own."""
    ikd = half_wavenumbers(g).ikd
    total = np.zeros((1,) + g.shape)
    for i in range(g.dim):
        for j in range(g.dim):
            d = ifft((ikd[j] * u_hat[i])[np.newaxis], g)
            total += d * d
    return total * (2.0 * mu)


class TestBatches:
    """Independent small transforms go in one call, in the batches of
    spectral.batches; numpy's per-line arithmetic does not depend on how
    many lines a call carries, so every result is the one-by-one one."""

    @pytest.mark.parametrize(
        "dim, n, most", [(2, 64, 31), (3, 32, 3), (3, 64, 1), (2, 512, 1)]
    )
    def test_rule(self, dim, n, most):
        # the most components below the split size, and at least one
        g = GridSpec(dim, n)
        for count in (1, 5, 40):
            got = spectral.batches(list(range(count)), g)
            assert [p for batch in got for p in batch] == list(range(count))
            assert [len(batch) for batch in got[:-1]] == [most] * (len(got) - 1)
            assert 1 <= len(got[-1]) <= most
        if most > 1:
            assert most * n**dim < spectral._SPLIT_MIN_SAMPLES
            assert (most + 1) * n**dim >= spectral._SPLIT_MIN_SAMPLES
            a = np.empty((most,) + g.shape)
            assert spectral._split_threads(a, g) == 1

    @pytest.mark.parametrize(
        "dim, n, k",
        [(2, 64, k) for k in range(1, 6)] + [(3, 32, k) for k in (1, 2, 3)],
    )
    def test_stack_is_each_component(self, dim, n, k, rng):
        g = GridSpec(dim, n)
        a = rng.standard_normal((k,) + g.shape)
        shape = (k,) + g.shape[:-1] + (n // 2 + 1,)
        b_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a_hat, b = fft(a, g), ifft(b_hat, g)
        for c in range(k):
            assert a_hat[c].tobytes() == fft(a[c : c + 1], g)[0].tobytes()
            assert b[c].tobytes() == ifft(b_hat[c : c + 1], g)[0].tobytes()

    @pytest.mark.parametrize("dim, n", [(2, 64), (3, 32), (3, 64)])
    def test_kernels_match_one_by_one(self, dim, n, rng):
        g = GridSpec(dim, n)
        u = smooth_vector(g, rng).data
        want = _self_advect_one_by_one(u, g)
        assert self_advect_hat(u, g).tobytes() == want.tobytes()
        u_hat = np.stack([fft(u[c : c + 1], g)[0] for c in range(dim)])
        params = ThermoParams(mu=0.3)
        phi = dissipation_phi(RealField(g, u, u_hat), params).data
        assert phi.tobytes() == _phi_one_by_one(u_hat, g, params.mu).tobytes()

    def test_real_view_shares_the_complex_memory(self):
        c = np.zeros((3, 4, 5), dtype=np.complex128)
        r = spectral.real_view(c[1:], (2, 4, 5))
        assert r.flags.c_contiguous and np.shares_memory(r, c)
        r[...] = 1.0
        assert c[1].view(np.float64).sum() == 40.0  # packed from c[1]'s start
        assert c[0].sum() == 0.0 and c[2].sum() == 0.0
        with pytest.raises(ArityError):
            spectral.real_view(c[:, 1:], (2,))  # not C-contiguous
        with pytest.raises(ArityError):
            spectral.real_view(c[2], (41,))  # more reals than c holds


class TestOnSlabs:
    """on_slabs runs an elementwise kernel body on slabs across threads on
    a grid of at least _SPLIT_MIN_SAMPLES points; every result is the
    unsplit one, bit for bit."""

    @pytest.fixture(scope="class")
    def inputs(self):
        g = GridSpec(3, 64)
        state = make_initial(InitialCondition("random_divfree", seed=5), g)
        u = state.u.data
        return {
            "u": u,
            "u_hat": state.u.half_spectrum(),
            "v_hat": fft(u * u, g),  # not divergence-free
            "p_hat": state.P.half_spectrum(),
            "field": state.u,
        }

    @pytest.mark.parametrize("name", sorted(_ROUTED_KERNELS))
    def test_kernel_matches_the_unsplit_path(
        self, split_calls, monkeypatch, inputs, name
    ):
        g = GridSpec(3, 64)
        kernel = _ROUTED_KERNELS[name]
        split = kernel(g, inputs)
        assert split_calls
        # above every field of the grid, so nothing is split
        monkeypatch.setattr(spectral, "_SPLIT_MIN_SAMPLES", sys.maxsize)
        split_calls.clear()
        serial = kernel(g, inputs)
        assert split_calls == []
        assert split.dtype == serial.dtype and split.shape == serial.shape
        assert split.tobytes() == serial.tobytes()

    def test_small_grid_passes_the_callers_arrays(self, split_calls, monkeypatch):
        def refuse():
            raise AssertionError("worker pool touched")

        monkeypatch.setattr(spectral, "_workers", refuse)
        g = GridSpec(3, 32)
        a = np.zeros((3,) + g.shape)
        b = np.zeros(g.shape[:-1] + (17,), dtype=np.complex128)
        calls = []
        spectral.on_slabs(g, lambda *args: calls.append(args), a, b, 0.5)
        assert len(calls) == 1
        assert calls[0][0] is a and calls[0][1] is b and calls[0][2] == 0.5
        assert split_calls == []

    def test_large_grid_cuts_every_array_on_its_first_spatial_axis(
        self, split_calls
    ):
        g = GridSpec(3, 64)
        a = np.zeros((3,) + g.shape)  # components first: cut on axis 1
        b = np.zeros(g.shape[:-1] + (33,), dtype=np.complex128)  # on axis 0
        seen = []

        def fn(x, y, c):
            seen.append((x.shape, y.shape, c))
            assert np.shares_memory(x, a) and np.shares_memory(y, b)
            x += 1
            y += 1

        spectral.on_slabs(g, fn, a, b, 0.5)
        assert split_calls == [64]
        assert len(seen) == spectral._thread_count()
        assert all(c == 0.5 for _, _, c in seen)
        assert all(xs[0] == 3 and xs[2:] == g.shape[1:] for xs, _, _ in seen)
        assert all(ys[1:] == b.shape[1:] for _, ys, _ in seen)
        assert [xs[1] for xs, _, _ in seen] == [ys[0] for _, ys, _ in seen]
        assert sum(xs[1] for xs, _, _ in seen) == g.n
        # every element written exactly once
        assert np.all(a == 1) and np.all(b == 1)


class TestWorkArrays:
    """Kernels that write into caller arrays give the bytes they give
    without them, on the one-slab and on the split path."""

    CASES = [(2, 64, 1), (2, 64, 2), (3, 32, 3), (3, 64, 1), (3, 64, 3)]

    @pytest.mark.parametrize("dim, n, components", CASES)
    def test_out_and_scratch_give_the_same_bits(
        self, split_calls, dim, n, components, rng
    ):
        g = GridSpec(dim, n)
        a = rng.standard_normal((components,) + g.shape)
        a_hat = fft(a, g)
        out_hat = np.empty_like(a_hat)
        assert fft(a, g, out=out_hat) is out_hat
        assert out_hat.tobytes() == a_hat.tobytes()
        want = ifft(a_hat, g)
        kept = a_hat.copy()
        out, scratch = np.empty_like(want), np.empty_like(a_hat)
        both = {"out": out, "scratch": scratch}
        for kwargs in ({"out": out}, {"scratch": scratch}, both):
            got = ifft(a_hat, g, **kwargs)
            assert got is kwargs.get("out", got)
            assert got.tobytes() == want.tobytes()
        assert a_hat.tobytes() == kept.tobytes()
        # a spectrum that is its own scratch is transformed in place
        own = a_hat.copy()
        assert ifft(own, g, scratch=own).tobytes() == want.tobytes()
        # two passes in each of 2 forward and 5 inverse transforms
        assert len(split_calls) == (2 * 7 if n**dim * components >= 2**17 else 0)

    @pytest.mark.parametrize("dim, n", [(2, 64), (3, 64)])
    def test_ifft_is_irfftn_bit_for_bit(self, split_calls, dim, n, rng):
        # an arbitrary half spectrum, not one fft made: the first pass runs
        # on slabs of axis 2 (every line of a 3D n=64 field split)
        g = GridSpec(dim, n)
        shape = (3,) + g.shape[:-1] + (n // 2 + 1,)
        b_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.fft.irfftn(b_hat, s=g.shape, axes=tuple(range(1, dim + 1)))
        assert ifft(b_hat, g).tobytes() == want.tobytes()
        assert len(split_calls) == (2 if dim == 3 else 0)

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_kernels_with_work_arrays_give_the_same_bits(self, dim, n, rng):
        g = GridSpec(dim, n)
        u = smooth_vector(g, rng).data
        f_hat = fft(smooth_scalar(g, rng).data, g)
        advect = advector(u, g)
        want = advector(u, g)(f_hat)  # a fresh advector's first call
        for _ in range(2):  # the second call reuses the first one's arrays
            assert advect(f_hat).tobytes() == want.tobytes()
        width = max(dim, spectral.self_advect_width(g))
        scratch = np.empty((width,) + f_hat.shape[1:], dtype=np.complex128)
        want = self_advect_hat(u, g)
        assert self_advect_hat(u, g, scratch=scratch).tobytes() == want.tobytes()
        u_hat = fft(u, g)
        want = project_hat(u_hat.copy(), g)
        assert project_hat(u_hat, g, scratch=scratch).tobytes() == want.tobytes()


class TestSobolev:
    def test_cosine_orders(self):
        g = GridSpec(2, 64)
        x, _ = g.coordinates()
        f = RealField(g, np.cos(x))
        base = np.sqrt(2 * np.pi**2)
        assert sobolev_norm(f, 0) == pytest.approx(base, rel=1e-12)
        assert sobolev_norm(f, 2) == pytest.approx(2 * base, rel=1e-12)
        assert sobolev_norm(f, -1) == pytest.approx(base / np.sqrt(2), rel=1e-12)

    def test_order_monotonicity(self, rng):
        g = GridSpec(2, 32)
        f = smooth_scalar(g, rng)  # zero mean, |k| >= 1 only
        assert sobolev_norm(f, -1) <= sobolev_norm(f, 0) <= sobolev_norm(f, 2)

    def test_unsupported_order(self):
        g = GridSpec(2, 16)
        with pytest.raises(ConfigError):
            sobolev_norm(RealField.zeros(g), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sample_raises(self, bad, rng):
        g = GridSpec(2, 16)
        data = rng.standard_normal(g.shape)
        data[3, 5] = bad
        with np.errstate(invalid="ignore"), pytest.raises(CorruptionError):
            sobolev_norm(RealField(g, data), 2)

    def test_nonfinite_coefficient_raises_before_any_sample(
        self, transform_counter, rng
    ):
        # finiteness is checked on the spectrum that is summed, so a field
        # made from its spectrum alone keeps its samples uncomputed
        g = GridSpec(2, 16)
        hat = fft(rng.standard_normal((1,) + g.shape), g)
        hat[0, 2, 3] = np.nan
        f = RealField.from_half_spectrum(g, hat)
        count = transform_counter(g)
        with pytest.raises(CorruptionError):
            sobolev_norm(f, -1)
        assert count["ifft"] == 0


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_parseval_sum_is_the_quadrature(dim, n, rng):
    # integral f^2, integral (lap f)^2 and integral f*h of white noise,
    # whose Nyquist modes are not zero, from the half spectra
    g = GridSpec(dim, n)
    f = RealField(g, rng.standard_normal((1,) + g.shape))
    h = RealField(g, rng.standard_normal((1,) + g.shape))
    f_hat, h_hat = f.half_spectrum(), h.half_spectrum()
    ksq = half_wavenumbers(g).ksq
    lap = RealField(g, ifft(-ksq * f_hat, g))
    parseval_sum = spectral.parseval_sum
    assert parseval_sum(f_hat, f_hat, g) == pytest.approx(l2_norm_sq(f), rel=1e-13)
    assert parseval_sum(f_hat, f_hat, g, ksq * ksq) == pytest.approx(
        l2_norm_sq(lap), rel=1e-13
    )
    fh = float(np.sum(f.data * h.data)) * g.cell_volume
    assert parseval_sum(f_hat, h_hat, g) == pytest.approx(fh, rel=1e-13)
    assert parseval_sum(f_hat, h_hat, g) == parseval_sum(h_hat, f_hat, g)


def _squared_parseval(hat, g, weight=None):
    """The sum of squares as np.square builds it, term by term."""
    power = np.square(hat.real)
    power += np.square(hat.imag)
    if weight is not None:
        power *= weight
    total = (power @ half_wavenumbers(g).multiplicity).sum()
    return float(total) * (2.0 * np.pi / g.n**2) ** g.dim


@pytest.mark.parametrize("dim, n", [(2, 32), (2, 64), (3, 16)])
def test_norms_are_the_sums_of_squares_bit_for_bit(dim, n, rng):
    # a norm passes its spectrum as both arguments, and x*x is np.square(x)
    # bit for bit, so the norms keep the bits of the squares' sums
    g = GridSpec(dim, n)
    P, DtP = smooth_scalar(g, rng), smooth_scalar(g, rng)
    w = half_wavenumbers(g)
    for order in (-1, 0, 1, 2):
        weight = (1.0 + w.ksq) ** order
        want = float(np.sqrt(_squared_parseval(P.half_spectrum(), g, weight)))
        assert sobolev_norm(P, order) == want
    dtp_term = _squared_parseval(DtP.half_spectrum(), g)
    lap_term = _squared_parseval(P.half_spectrum(), g, w.ksq * w.ksq)
    want = (dtp_term + lap_term, dtp_term, lap_term)
    assert penflow.norm_E_squared(P, DtP) == want


def test_integrate_constant():
    g = GridSpec(2, 16)
    assert integrate(RealField(g, np.full(g.shape, 2.0))) == pytest.approx(
        2.0 * (2 * np.pi) ** 2
    )


def test_only_spectral_module_calls_fft():
    # every transform goes through the kernels in spectral.py: any transform
    # of an fft module (numpy's or scipy's) or a bare (i)(r)fftn call outside
    # it is an offender; the kernels fft() and ifft() are not
    stray = re.compile(r"\bfft\.[a-z]*fft(?!freq)|\bi?r?fftn\s*\(")
    for line in ("np.fft.rfftn(u)", "np.fft.fft(u)", "scipy.fft.irfft2(u)", "rfftn(u)"):
        assert stray.search(line)
    for line in ("ifft(div_hat(fft(u, g), g), g)", "np.fft.rfftfreq(n)"):
        assert not stray.search(line)
    src = Path(penflow.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spectral.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if stray.search(line)
    ]
    assert offenders == []
