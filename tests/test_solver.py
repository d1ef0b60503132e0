"""Time integration, initial conditions, pressure recovery, checkpoints."""

import dataclasses

import numpy as np
import pytest

import penflow.flow
from penflow import (
    ConfigError,
    DataError,
    DivergenceError,
    FINITE_DIFFERENCE,
    GridSpec,
    InitialCondition,
    MODEL_RHS,
    RealField,
    ScenarioConfig,
    SolverConfig,
    ThermoParams,
    backward,
    divergence,
    evolve_pressure_model,
    forward,
    gradient_energy,
    kinetic_energy,
    laplacian,
    load_checkpoint,
    make_initial,
    material_derivative,
    pressure_poisson,
    run,
    save_checkpoint,
    simulate,
    step,
)
from penflow.flow import pressure_source
from penflow.solver import _diagnose, _momentum_rhs, effective_dt
from penflow.spectral import fft, half_wavenumbers, ifft, project_hat

from conftest import patch_everywhere


class TestMakeInitial:
    def test_taylor_green_energy(self):
        state = make_initial(InitialCondition("taylor_green_2d"), GridSpec(2, 64))
        assert kinetic_energy(state.u) == pytest.approx(np.pi**2, rel=1e-12)
        assert state.t == 0.0

    def test_zero_amplitude(self):
        state = make_initial(
            InitialCondition("taylor_green_2d", amplitude=0.0), GridSpec(2, 32)
        )
        assert np.max(np.abs(state.u.data)) == 0
        assert np.max(np.abs(state.P.data)) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_divergence_free(self, seed):
        state = make_initial(
            InitialCondition("random_divfree", seed=seed), GridSpec(2, 32)
        )
        div = backward(divergence(forward(state.u))).scalar_values()
        assert np.max(np.abs(div)) < 1e-10

    def test_random_rms_amplitude(self):
        ic = InitialCondition("random_divfree", amplitude=2.5, seed=4)
        state = make_initial(ic, GridSpec(2, 32))
        rms = np.sqrt(np.mean(np.sum(state.u.data**2, axis=0)))
        assert rms == pytest.approx(2.5, rel=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            make_initial(InitialCondition("taylor_green_2d"), GridSpec(3, 16))
        with pytest.raises(ConfigError):
            make_initial(InitialCondition("taylor_green_3d"), GridSpec(2, 16))

    def test_taylor_green_3d(self):
        state = make_initial(InitialCondition("taylor_green_3d"), GridSpec(3, 16))
        div = backward(divergence(forward(state.u))).scalar_values()
        assert np.max(np.abs(div)) < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            InitialCondition("shear_layer")


class TestPressurePoisson:
    def test_zero_velocity(self):
        g = GridSpec(2, 32)
        P = pressure_poisson(RealField.zeros(g, 2), ThermoParams())
        assert np.max(np.abs(P.data)) == 0

    def test_rigid_translation(self):
        g = GridSpec(2, 32)
        u = RealField(g, np.stack([np.ones(g.shape), np.ones(g.shape)]))
        P = pressure_poisson(u, ThermoParams())
        assert np.max(np.abs(P.data)) < 1e-12

    def test_taylor_green_residual(self):
        # lap P + rho*div(u.grad u) = 0; for u = (sin x cos y, -cos x sin y)
        # that gives P = +(cos 2x + cos 2y)/4
        g = GridSpec(2, 64)
        state = make_initial(InitialCondition("taylor_green_2d"), g)
        x, y = g.coordinates()
        expected = (np.cos(2 * x) + np.cos(2 * y)) / 4
        assert np.max(np.abs(state.P.scalar_values() - expected)) < 1e-12
        lap = backward(laplacian(forward(state.P))).scalar_values()
        adv = np.stack([np.sin(2 * x) / 2, np.sin(2 * y) / 2])
        div_adv = backward(divergence(forward(RealField(g, adv)))).scalar_values()
        assert np.max(np.abs(lap + div_adv)) < 1e-10

    def test_zero_mean(self):
        g = GridSpec(2, 32)
        state = make_initial(InitialCondition("random_divfree", seed=2), g)
        assert abs(np.mean(state.P.data)) < 1e-14


class TestStep:
    def test_zero_fixed_point(self):
        g = GridSpec(2, 32)
        state = make_initial(
            InitialCondition("taylor_green_2d", amplitude=0.0), g
        )
        out = step(state, SolverConfig())
        assert np.max(np.abs(out.u.data)) == 0
        assert np.max(np.abs(out.P.data)) < 1e-14

    def test_taylor_green_decay(self):
        g = GridSpec(2, 64)
        state = make_initial(InitialCondition("taylor_green_2d"), g)
        cfg = SolverConfig(dt=1e-3, nu=0.1)
        for _ in range(100):
            state = step(state, cfg)
        exact = np.pi**2 * np.exp(-4 * 0.1 * state.t)
        assert kinetic_energy(state.u) == pytest.approx(exact, rel=1e-6)

    def test_inviscid_energy_conservation(self):
        g = GridSpec(2, 64)
        state = make_initial(InitialCondition("random_divfree", seed=3), g)
        cfg = SolverConfig(dt=1e-3, nu=0.0)
        ke0 = kinetic_energy(state.u)
        for _ in range(10):
            state = step(state, cfg)
        assert kinetic_energy(state.u) == pytest.approx(ke0, rel=1e-8)

    def test_incompressibility_preserved(self):
        g = GridSpec(2, 32)
        state = make_initial(InitialCondition("random_divfree", seed=5), g)
        cfg = SolverConfig(dt=1e-3, nu=0.01)
        for _ in range(20):
            state = step(state, cfg)
        div = backward(divergence(forward(state.u))).scalar_values()
        assert np.max(np.abs(div)) < 1e-8

    def test_viscous_energy_balance(self):
        g = GridSpec(2, 64)
        state = make_initial(InitialCondition("taylor_green_2d"), g)
        cfg = SolverConfig(dt=1e-3, nu=0.1)
        nxt = step(state, cfg)
        rate = (kinetic_energy(nxt.u) - kinetic_energy(state.u)) / (nxt.t - state.t)
        drain = -cfg.nu * 0.5 * (gradient_energy(state.u) + gradient_energy(nxt.u))
        assert rate == pytest.approx(drain, rel=1e-4)

    def test_fourth_order_in_time(self):
        g = GridSpec(2, 16)
        errs = []
        for dt in (0.04, 0.02, 0.01, 0.005):
            state = make_initial(InitialCondition("taylor_green_2d"), g)
            cfg = SolverConfig(dt=dt, nu=0.5, cfl_safety=1.0)
            for _ in range(round(1.0 / dt)):
                state = step(state, cfg, dt=dt)
            exact = np.pi**2 * np.exp(-2.0)
            errs.append(abs(kinetic_energy(state.u) - exact) / exact)
        for coarse, fine in zip(errs, errs[1:]):
            assert 12 < coarse / fine < 20

    def test_cfl_cap(self):
        g = GridSpec(2, 32)
        state = make_initial(
            InitialCondition("taylor_green_2d", amplitude=50.0), g
        )
        cfg = SolverConfig(dt=0.1, nu=0.1, cfl_safety=0.5)
        assert effective_dt(state, cfg) < cfg.dt
        assert effective_dt(state, cfg) == pytest.approx(0.5 * g.h / 50.0, rel=1e-10)

    def test_outputs_own_their_memory(self):
        # a view into an inverse transform would pin its complex buffer
        g = GridSpec(2, 32)
        state = make_initial(InitialCondition("taylor_green_2d"), g)
        out = step(state, SolverConfig())
        p_model = evolve_pressure_model(state, state.P, SolverConfig())
        for a in (state.u.data, out.u.data, out.P.data, p_model.data):
            assert a.base is None

    @pytest.mark.parametrize(
        "dim, kind, budget",
        [(2, "taylor_green_2d", 40), (3, "taylor_green_3d", 65)],
        ids=["2d", "3d"],
    )
    def test_transform_budget(self, transform_counter, dim, kind, budget):
        # single-component transforms in one model-pressure step plus one
        # step with its FlowState check; P, here only the model-pressure
        # input, is solved before counting.  Each velocity is transformed
        # once: the state carries its spectrum into step and Phi, and the
        # new state takes the one step ends with.
        g = GridSpec(dim, 16)
        state = make_initial(InitialCondition(kind), g)
        state.P
        count = transform_counter(g)
        evolve_pressure_model(state, state.P, SolverConfig())
        step(state, SolverConfig())
        assert count["_fftn"] == count["_ifftn"] == 0
        assert 0 < count["fft"] + count["ifft"] <= budget

    def test_matches_textbook_rk4_on_a_nonlinear_flow(self):
        # step takes stage 1 from the state's physical u and runs the other
        # stages in reused arrays; random_divfree keeps the advection that
        # the projection removes from Taylor-Green, so a wrong stage shows
        g = GridSpec(2, 32)
        state = make_initial(InitialCondition("random_divfree", seed=3), g)
        cfg, dt = SolverConfig(), 1e-2

        def f(uh):
            return _momentum_rhs(uh, cfg.nu, g)

        y = fft(state.u.data, g)
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y_new = project_hat(y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), g)
        want = ifft(y_new, g)
        got = step(state, cfg, dt=dt).u.data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "dim, kind",
        [(2, "taylor_green_2d"), (3, "taylor_green_3d")],
        ids=["2d", "3d"],
    )
    def test_kept_spectrum_is_the_velocitys(self, dim, kind):
        g = GridSpec(dim, 16)
        state = make_initial(InitialCondition(kind), g)
        for _ in range(10):
            state = step(state, SolverConfig())
        kept = state.u.half_spectrum()
        assert not kept.flags.writeable and not state.u.data.flags.writeable
        fresh = fft(state.u.data, g)
        assert np.max(np.abs(kept - fresh)) <= 1e-12 * np.max(np.abs(fresh))

    def test_divergence_error_on_unstable_run(self):
        g = GridSpec(2, 32)
        state = make_initial(InitialCondition("taylor_green_2d", amplitude=10.0), g)
        cfg = SolverConfig(dt=1.0, nu=0.0, cfl_safety=1.0)
        with pytest.raises((DivergenceError, FloatingPointError)):
            with np.errstate(over="raise", invalid="raise"):
                for _ in range(200):
                    state = step(state, cfg, dt=1.0)  # bypasses the CFL cap


class TestGalerkinInvariants:
    """At nu=0 the dealiased nonlinear term conserves energy (2D and 3D) and
    enstrophy (2D; in 3D vortex stretching changes it).

    The sums run over the kernels' half spectrum, each retained mode
    weighted by the number of modes it stands for, so they are the inner
    products over the full spectrum."""

    @staticmethod
    def _cosine(dim, n, weight):
        g = GridSpec(dim, n)
        u = make_initial(InitialCondition("random_divfree", seed=5), g).u.data
        u_hat = fft(u, g)
        rhs = _momentum_rhs(u_hat, 0.0, g)
        w = half_wavenumbers(g).multiplicity * weight(g)
        inner = np.sum(w * np.conj(u_hat) * rhs).real
        norms = np.sum(w * np.abs(u_hat) ** 2) * np.sum(w * np.abs(rhs) ** 2)
        return abs(inner) / np.sqrt(norms)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_energy(self, dim, n):
        assert self._cosine(dim, n, lambda g: 1.0) <= 1e-12

    def test_enstrophy_2d(self):
        assert self._cosine(2, 32, lambda g: half_wavenumbers(g).ksq) <= 1e-12


class TestEvolvePressureModel:
    def test_static_without_sources(self):
        g = GridSpec(2, 32)
        state = make_initial(InitialCondition("taylor_green_2d", amplitude=0.0), g)
        p0 = RealField.zeros(g)
        out = evolve_pressure_model(state, p0, SolverConfig())
        assert np.max(np.abs(out.data)) == 0

    def test_linear_growth_under_frozen_source(self):
        # u = 0 so Phi = 0; the frozen source enters through Q
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        q = RealField(g, 2.0 + np.cos(x))
        params = ThermoParams(Q=q)
        state = make_initial(
            InitialCondition("taylor_green_2d", amplitude=0.0), g, params
        )
        cfg = SolverConfig(dt=0.1)
        p = RealField.zeros(g)
        for _ in range(5):
            p = evolve_pressure_model(state, p, cfg, dt=0.1)
        expected = (params.R / params.c_v) * q.data * 0.5
        assert np.max(np.abs(p.data - expected)) < 1e-12

    def test_step_doubling_is_fifth_order(self):
        g = GridSpec(2, 64)
        state = make_initial(InitialCondition("taylor_green_2d"), g)
        cfg = SolverConfig(nu=0.1)

        def richardson_gap(dt):
            full = evolve_pressure_model(state, state.P, cfg, dt=dt)
            h1 = evolve_pressure_model(state, state.P, cfg, dt=dt / 2)
            h2 = evolve_pressure_model(state, h1, cfg, dt=dt / 2)
            return np.max(np.abs(full.data - h2.data))

        gap1 = richardson_gap(0.02)
        gap2 = richardson_gap(0.01)
        assert 24 < gap1 / gap2 < 40  # 2^5 = 32

    def test_mean_moves_by_the_source_alone(self):
        # advection of a periodic P by divergence-free u conserves its mean,
        # so one step moves the mean by dt * mean((R/c_v) * (Phi + Q)); the
        # diagnostics' model_rhs D_tP must be that same source, Q included
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        ic = InitialCondition("random_divfree", seed=2)
        dt = 1e-3
        for heat in (np.zeros(g.shape), 2.0 + np.cos(x)):
            params = ThermoParams(Q=RealField(g, heat) if heat.any() else None)
            state = make_initial(ic, g, params)
            out = evolve_pressure_model(state, state.P, SolverConfig(), dt=dt)
            shift = np.mean(out.data) - np.mean(state.P.data)
            expected = dt * params.R / params.c_v * np.mean(state.phi.data + heat)
            assert shift == pytest.approx(expected, rel=1e-10)
            source = material_derivative(
                None, state.P, state.u, dt, MODEL_RHS, params
            )
            assert dt * np.mean(source.data) == pytest.approx(shift, rel=1e-10)
            cfg = ScenarioConfig(
                grid=g, ic=ic, solver=SolverConfig(t_end=0.0), thermo=params
            )
            # a finite_difference run has no previous snapshot at t = 0
            for mode in (MODEL_RHS, FINITE_DIFFERENCE):
                (first,) = simulate(dataclasses.replace(cfg, mode=mode))
                np.testing.assert_array_equal(first.dtp.data, source.data)


class TestRun:
    def test_zero_t_end(self):
        cfg = dataclasses.replace(
            ScenarioConfig(), solver=SolverConfig(t_end=0.0)
        )
        series = run(cfg)
        assert len(series) == 1
        assert series.samples[0].t == 0.0

    @pytest.mark.parametrize("P0", [5.0, 101325.0])
    def test_delta_T_rel_follows_P0(self, P0):
        # T - T0 = P/(rho*R) with T0 = P0/(rho*R), so delta_T_rel = max|P|/P0
        cfg = ScenarioConfig(
            grid=GridSpec(2, 32), solver=SolverConfig(t_end=0.0), P0=P0
        )
        (first,) = simulate(cfg)
        expected = np.max(np.abs(first.state.P.data)) / P0
        assert first.sample.regime.delta_T_rel == pytest.approx(expected, rel=1e-9)

    def test_energy_matches_analytic_decay(self):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 32),
            solver=SolverConfig(dt=1e-3, t_end=0.2, nu=0.1),
            output_every=50,
        )
        series = run(cfg)
        for s in series.samples:
            exact = np.pi**2 * np.exp(-4 * 0.1 * s.t)
            assert s.kinetic_energy == pytest.approx(exact, rel=1e-6)

    def test_deterministic(self):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 32),
            ic=InitialCondition("random_divfree", seed=11),
            solver=SolverConfig(dt=1e-3, t_end=0.05, nu=0.05),
            thermo=ThermoParams(mu=0.05),
        )
        s1 = run(cfg)
        s2 = run(cfg)
        assert [a.norm_E_sq for a in s1.samples] == [a.norm_E_sq for a in s2.samples]
        assert [a.kinetic_energy for a in s1.samples] == [
            a.kinetic_energy for a in s2.samples
        ]

    def test_timestamps_increasing(self):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 32),
            solver=SolverConfig(dt=1e-3, t_end=0.05),
        )
        series = run(cfg)
        ts = [s.t for s in series.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))


class TestDiagnose:
    def test_transform_budget(self, transform_counter):
        # once P and Phi are known, a model_rhs sample transforms only lap P
        # back and D_tP forward: P keeps the spectrum of its Poisson solve,
        # and T = (P0 + P)/(rho R) shares it
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(3, 16),
            ic=InitialCondition("taylor_green_3d"),
        )
        state = step(make_initial(cfg.ic, cfg.grid, cfg.thermo), cfg.solver)
        state.P, state.phi
        count = transform_counter(cfg.grid)
        _diagnose(cfg, state, None, cfg.solver.dt)
        assert 0 < sum(count.values()) <= 2

    def test_sample_and_next_model_step_transform_the_source_once(self, monkeypatch):
        # a model_rhs sample's D_tP is the (R/c_v)(Phi + Q) source that the
        # next model-pressure step needs, spectrum and all
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 16),
            ic=InitialCondition("random_divfree", seed=2),
            solver=SolverConfig(dt=1e-3, t_end=2e-3),
            output_every=2,
        )
        inputs = []

        def recorded(a, grid, _fft=penflow.spectral.fft):
            inputs.append(np.array(a))
            return _fft(a, grid)

        patch_everywhere(monkeypatch, penflow.spectral.fft, recorded)
        samples = simulate(cfg)
        first = next(samples)
        next(samples)  # the model-pressure and momentum steps up to t = 2 dt
        source = pressure_source(first.state.phi, cfg.thermo).data
        assert np.array_equal(first.dtp.data, source)
        assert sum(np.array_equal(a, source) for a in inputs) == 1


class TestPressureSolves:
    """The Navier-Stokes pressure is solved only where a sample reads it."""

    @pytest.mark.parametrize(
        "mode, solves",
        # 20 steps, a sample every 5: 5 samples, plus in finite_difference
        # the 4 states one step before a later sample
        [("model_rhs", 5), ("finite_difference", 9)],
    )
    def test_one_solve_per_state_read(self, monkeypatch, mode, solves):
        solved = []

        def counted(u, params, _fn=penflow.flow.pressure_poisson):
            solved.append(u)
            return _fn(u, params)

        monkeypatch.setattr(penflow.flow, "pressure_poisson", counted)
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 16),
            ic=InitialCondition("random_divfree", seed=1),
            solver=SolverConfig(dt=1e-3, t_end=0.02),
            mode=mode,
            output_every=5,
        )
        samples = list(simulate(cfg))
        assert len(samples) == 5
        assert len(solved) == solves
        assert len({id(u) for u in solved}) == solves


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        g = GridSpec(2, 32)
        f = RealField(g, rng.standard_normal((2,) + g.shape))
        path = tmp_path / "field.ckpt"
        save_checkpoint(path, f, 1.25)
        loaded, time = load_checkpoint(path)
        assert time == 1.25
        assert loaded.grid == g
        assert loaded.data.tobytes() == f.data.tobytes()

    def test_header_layout(self, tmp_path):
        g = GridSpec(2, 16)
        path = tmp_path / "field.ckpt"
        save_checkpoint(path, RealField.zeros(g), 0.0)
        raw = path.read_bytes()
        assert raw[:4] == b"PEM1"
        assert len(raw) == 4 + 4 * 3 + 8 + 8 * 16 * 16

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(DataError):
            load_checkpoint(path)
