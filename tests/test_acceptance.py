"""Acceptance gate: ten desk-scale criteria, one pass/fail line each.

The per-criterion lines bypass pytest's output capture, so they appear
on the terminal even without -s.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from penflow import (
    GridSpec,
    InitialCondition,
    RealField,
    ScenarioConfig,
    SolverConfig,
    ThermoParams,
    backward,
    dissipation_phi,
    divergence,
    forward,
    gradient,
    gradient_energy,
    inner_product_E,
    integrate,
    laplacian,
    load_checkpoint,
    make_initial,
    norm_E_squared,
    run,
    save_checkpoint,
)
from penflow.cli import run_scenario, twin_run
from penflow.energy import FINITE_DIFFERENCE, MODEL_RHS, material_derivative
from penflow.solver import evolve_pressure_model, step
from penflow.spectral import l2_norm_sq

from conftest import smooth_scalar, smooth_vector

# regression baselines frozen after the first verified full run
FROZEN_C_FIT = 1.1571660552730583
FROZEN_C_MAX = 1.4799848190880713
FROZEN_ACCUMULATOR = 27.282501007352888
FROZEN_SAMPLES_USED = 101
FROZEN_RTOL = 1e-6


@pytest.fixture
def criterion(request):
    """Context manager printing one PASS/FAIL line per criterion."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line):
        with capman.global_and_fixture_disabled():
            print(line, flush=True)

    @contextlib.contextmanager
    def _criterion(num, desc):
        try:
            yield
        except Exception:
            emit(f"ACCEPTANCE {num:2d} [{desc}]: FAIL")
            raise
        emit(f"ACCEPTANCE {num:2d} [{desc}]: PASS")

    return _criterion


def _fd_gradient(f, grid, axis):
    h = grid.h
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)


def _fd_laplacian(f, grid):
    h = grid.h
    out = np.zeros_like(f)
    for axis in range(grid.dim):
        out += (
            np.roll(f, -1, axis=axis) - 2 * f + np.roll(f, 1, axis=axis)
        ) / h**2
    return out


def test_criterion_1_taylor_green_decay(baseline, criterion):
    cfg, series, elapsed = baseline
    with criterion(1, "Taylor-Green kinetic-energy decay under 30 s"):
        assert elapsed < 30.0
        assert len(series) == 101
        for s in series.samples:
            exact = np.pi**2 * np.exp(-4 * cfg.thermo.nu * s.t)
            assert abs(s.kinetic_energy - exact) <= 1e-6 * exact


def test_criterion_2_spectral_operator_oracles(criterion):
    with criterion(2, "spectral operators vs finite differences, Parseval"):
        rng = np.random.default_rng(20)
        for n in (16, 32, 64):
            grid = GridSpec(2, n)
            tol = 10 * grid.h**2
            for _ in range(20):
                f = smooth_scalar(grid, rng)
                F = forward(f)
                g_spec = backward(gradient(F)).data
                for axis in range(2):
                    fd = _fd_gradient(f.scalar_values(), grid, axis)
                    assert np.max(np.abs(g_spec[axis] - fd)) < tol
                lap = backward(laplacian(F)).scalar_values()
                assert np.max(np.abs(lap - _fd_laplacian(f.scalar_values(), grid))) < tol
                v = smooth_vector(grid, rng)
                div = backward(divergence(forward(v))).scalar_values()
                fd_div = sum(
                    _fd_gradient(v.data[a], grid, a) for a in range(2)
                )
                assert np.max(np.abs(div - fd_div)) < tol
                # Parseval: integral f^2 dx = (2 pi)^2 sum |c_k|^2
                lhs = l2_norm_sq(f)
                rhs = (2 * np.pi) ** 2 * np.sum(np.abs(F.coeffs) ** 2)
                assert abs(lhs - rhs) <= 1e-10 * rhs


def test_criterion_3_norm_analytic_case(criterion):
    with criterion(3, "pressure-energy norm of cos x equals 2 pi^2"):
        grid = GridSpec(2, 64)
        x, _ = grid.coordinates()
        total, dtp, lap = norm_E_squared(
            RealField(grid, np.cos(x)), RealField.zeros(grid)
        )
        exact = 2 * np.pi**2
        assert dtp == 0.0
        assert abs(total - exact) <= 1e-10 * exact


def test_criterion_4_dissipation_analytic_case(criterion):
    with criterion(4, "Taylor-Green dissipation integral equals 8 pi^2"):
        grid = GridSpec(2, 64)
        params = ThermoParams(mu=1.0)
        state = make_initial(InitialCondition("taylor_green_2d"), grid, params)
        phi_int = integrate(dissipation_phi(state.u, params))
        exact = 8 * np.pi**2
        assert abs(phi_int - exact) <= 1e-8 * exact
        assert phi_int == pytest.approx(
            2 * params.mu * gradient_energy(state.u), rel=1e-13
        )


def test_criterion_5_dissipation_bound_probe(baseline, criterion):
    _, series, _ = baseline
    with criterion(5, "dissipation bound fit matches frozen baseline"):
        fit = series.bound
        assert fit.c_max is not None and np.isfinite(fit.c_max)
        assert fit.samples_used == FROZEN_SAMPLES_USED == len(series)
        assert fit.c_fit == pytest.approx(FROZEN_C_FIT, rel=FROZEN_RTOL)
        assert fit.c_max == pytest.approx(FROZEN_C_MAX, rel=FROZEN_RTOL)


def test_criterion_6_blowup_accumulator(baseline, criterion):
    _, series, _ = baseline
    with criterion(6, "blow-up accumulator monotone, convergent, trips at 0"):
        # nondecreasing over ten random scenarios
        for seed in range(10):
            cfg = ScenarioConfig(
                grid=GridSpec(2, 32),
                ic=InitialCondition("random_divfree", seed=seed),
                solver=SolverConfig(dt=2e-3, t_end=0.05),
                thermo=ThermoParams(mu=0.05),
                output_every=5,
            )
            accs = [b.accumulator for b in run(cfg).blowup_history]
            assert all(b >= a for a, b in zip(accs, accs[1:]))
        # frozen value on the decaying baseline ...
        acc = [b.accumulator for b in series.blowup_history]
        assert acc[-1] == pytest.approx(FROZEN_ACCUMULATOR, rel=FROZEN_RTOL)
        # ... and a finite limit: the integrand decays exponentially, so the
        # tail integral is bounded by norm(T)/|slope|
        tail = series.samples[len(series) // 2 :]
        ts = np.array([s.t for s in tail])
        logs = np.log([s.norm_E_sq for s in tail])
        slope = np.polyfit(ts, logs, 1)[0]
        assert slope < -0.1
        limit_bound = acc[-1] + tail[-1].norm_E_sq / (-slope)
        assert np.isfinite(limit_bound)
        # trips immediately with threshold zero
        cfg0 = ScenarioConfig(
            grid=GridSpec(2, 32),
            solver=SolverConfig(dt=2e-3, t_end=0.01),
            blowup_threshold=0.0,
        )
        zero_run = run(cfg0)
        assert zero_run.blowup_history[1].tripped
        assert zero_run.tripped


def test_criterion_7_hilbert_structure(criterion):
    with criterion(7, "inner product: Hilbert-space axioms on 100 pairs"):
        rng = np.random.default_rng(7)
        grid = GridSpec(2, 32)
        slack = 1e-10
        for _ in range(100):
            P1, D1 = smooth_scalar(grid, rng), smooth_scalar(grid, rng)
            P2, D2 = smooth_scalar(grid, rng), smooth_scalar(grid, rng)
            n1 = inner_product_E(P1, D1, P1, D1)
            n2 = inner_product_E(P2, D2, P2, D2)
            ip = inner_product_E(P1, D1, P2, D2)
            scale = max(1.0, abs(ip), n1, n2)
            # symmetry
            assert abs(ip - inner_product_E(P2, D2, P1, D1)) < slack * scale
            # bilinearity in the first slot
            combo_P = RealField(grid, 2.0 * P1.data - 0.5 * P2.data)
            combo_D = RealField(grid, 2.0 * D1.data - 0.5 * D2.data)
            lhs = inner_product_E(combo_P, combo_D, P2, D2)
            assert abs(lhs - (2.0 * ip - 0.5 * n2)) < slack * scale
            # positive semi-definiteness and Cauchy-Schwarz
            assert n1 >= -slack and n2 >= -slack
            assert abs(ip) <= np.sqrt(n1 * n2) + slack * scale


def test_criterion_8_model_self_consistency(criterion):
    with criterion(8, "model-mode identity and O(dt) finite-difference limit"):
        grid = GridSpec(2, 64)
        params = ThermoParams()
        rng = np.random.default_rng(8)
        # integral (DtP)^2 = (R/c_v)^2 integral Phi^2 to round-off
        for _ in range(5):
            u = smooth_vector(grid, rng)
            dtp = material_derivative(
                None, RealField.zeros(grid), u, 0.0, MODEL_RHS, params
            )
            phi = dissipation_phi(u, params)
            lhs = l2_norm_sq(dtp)
            rhs = (params.R / params.c_v) ** 2 * l2_norm_sq(phi)
            assert lhs == pytest.approx(rhs, rel=1e-12)

        # finite_difference converges to the model value at rate O(dt)
        def fd_error(dt):
            state = make_initial(InitialCondition("taylor_green_2d"), grid, params)
            cfg = SolverConfig(dt=dt)
            p = state.P
            for _ in range(round(0.1 / dt)):
                p_prev = p
                p = evolve_pressure_model(state, p, cfg, dt=dt)
                state = step(state, cfg, dt=dt)
            fd = l2_norm_sq(
                material_derivative(p_prev, p, state.u, dt, FINITE_DIFFERENCE, params)
            )
            model = l2_norm_sq(
                material_derivative(None, p, state.u, 0.0, MODEL_RHS, params)
            )
            return abs(fd - model) / model

        coarse, fine = fd_error(1e-2), fd_error(1e-3)
        assert fine < 3e-3
        assert 5 < coarse / fine < 20  # one decade of dt, first-order rate


def test_criterion_9_uniqueness_probe(criterion):
    with criterion(9, "paired-run uniqueness probe ordering"):
        cfg = ScenarioConfig(
            solver=SolverConfig(dt=1e-3, t_end=0.2), output_every=20
        )
        zero = twin_run(cfg, 0.0)
        assert max(zero.du_l2) == 0.0 and max(zero.dp_norm_E) == 0.0
        small = twin_run(cfg, 1e-8)
        large = twin_run(cfg, 1e-2)
        assert small.times == large.times
        for s, l in zip(small.du_l2[1:], large.du_l2[1:]):
            assert 0 < s < l
        for s, l in zip(small.dp_norm_E[1:], large.dp_norm_E[1:]):
            assert 0 < s < l


def test_criterion_10_determinism_and_format(tmp_path, rng, criterion):
    with criterion(10, "byte-identical reruns and bit-exact checkpoints"):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            solver=SolverConfig(dt=1e-3, t_end=0.2),
            output_every=20,
        )
        for name in ("a", "b"):
            run_scenario(dataclasses.replace(cfg, output_dir=str(tmp_path / name)))
        assert (tmp_path / "a" / "series.csv").read_bytes() == (
            tmp_path / "b" / "series.csv"
        ).read_bytes()
        grid = GridSpec(3, 16)
        field = RealField(grid, rng.standard_normal((3,) + grid.shape))
        save_checkpoint(tmp_path / "f.ckpt", field, 0.75)
        loaded, t = load_checkpoint(tmp_path / "f.ckpt")
        assert t == 0.75
        assert loaded.grid == grid
        assert loaded.data.tobytes() == field.data.tobytes()
