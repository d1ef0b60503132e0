"""Spectral core: transforms, derivatives, Poisson inversion, dealiasing."""

import dataclasses
import itertools
import os
import re
import sys
import threading
import time
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
    backward,
    dealias,
    divergence,
    forward,
    gradient,
    integrate,
    l2_norm_sq,
    laplacian,
    make_initial,
    poisson_solve,
    sobolev_norm,
    spectral,
)
from penflow.cli import run_scenario
from penflow.solver import ScenarioConfig, SolverConfig
from penflow.spectral import (
    advect_hat,
    dealias_mask,
    div_hat,
    fft,
    grad_hat,
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
        # 2/3-band modes alias only outside the mask
        g = GridSpec(dim, n)
        u = make_initial(InitialCondition("random_divfree", seed=dim), g).u.data
        u_hat = fft(u, g)
        convective = np.concatenate(
            [advect_hat(u, u_hat[c : c + 1], g) for c in range(dim)]
        )
        gap = np.max(np.abs(self_advect_hat(u, g) - convective))
        assert gap <= 1e-12 * np.max(np.abs(convective))


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

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_operators_match_full_layout(self, dim, n, rng):
        g, a = self._random(dim, n, rng)
        k1 = np.fft.fftfreq(n, d=1.0 / n)
        k = np.stack(np.meshgrid(*([k1] * dim), indexing="ij"))
        mask = np.all(np.abs(k) <= n / 3.0, axis=0)
        kd = np.where(k == -(n // 2), 0.0, k)
        kdsq = np.sum(kd * kd, axis=0)
        inv_kdsq = np.where(kdsq > 0, 1.0 / np.where(kdsq > 0, kdsq, 1.0), 0.0)

        def c(f):
            return forward(RealField(g, f)).coeffs

        def back(coeffs):
            # backward's Hermitian gate also checks the formulas below
            return backward(SpectralField(g, coeffs)).data

        A = c(a)
        advection = [
            sum(1j * kd[j] * mask * c(a[j] * a[i])[0] for j in range(dim))
            for i in range(dim)
        ]
        a_hat = fft(a, g)
        pairs = [
            (grad_hat(a_hat[0], g), 1j * kd * A[0]),
            (div_hat(a_hat, g), np.sum(1j * kd * A, axis=0, keepdims=True)),
            (project_hat(a_hat, g), A - kd * (np.sum(kd * A, axis=0) * inv_kdsq)),
            (self_advect_hat(a, g), np.stack(advection)),
        ]
        for got, want in pairs:
            assert self._close(ifft(got, g), back(want))


class TestSplitTransforms:
    """fft/ifft of at least _SPLIT_MIN_SAMPLES real samples run each numpy
    pass on slabs across threads; the results are numpy's, bit for bit."""

    @pytest.fixture
    def split_calls(self, monkeypatch):
        # at least two threads even on one CPU, and every pass counted, so
        # that a test of the split path cannot pass on the serial one
        threads = max(2, spectral._thread_count())
        monkeypatch.setattr(spectral, "_thread_count", lambda: threads)
        calls = []
        split = spectral._split

        def counted(fn, length, threads):
            calls.append(length)
            split(fn, length, threads)

        monkeypatch.setattr(spectral, "_split", counted)
        return calls

    @staticmethod
    def _serial(a, a_hat, g):
        axes = tuple(range(1, g.dim + 1))
        return (
            np.fft.rfftn(a, axes=axes),
            np.fft.irfftn(a_hat, s=g.shape, axes=axes),
        )

    @pytest.mark.parametrize(
        "dim, n, components", [(3, 64, 1), (3, 64, 3), (2, 512, 1)]
    )
    def test_bitwise_numpy(self, split_calls, dim, n, components, rng):
        g = GridSpec(dim, n)
        a = rng.standard_normal((components,) + g.shape)
        a_hat = fft(a, g)
        want_hat, want = self._serial(a, a_hat, g)
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
        want_hat, want = self._serial(a, a_hat, g)
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
            cases.append((g, a, want_hat, self._serial(a, want_hat, g)[1]))
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
