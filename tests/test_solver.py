"""Time integration, initial conditions, pressure recovery, checkpoints."""

import dataclasses
import re
import struct

import numpy as np
import pytest

import penflow.flow
import penflow.solver
from penflow import (
    ArityError,
    ConfigError,
    DataError,
    DivergenceError,
    FlowState,
    FINITE_DIFFERENCE,
    GridSpec,
    InitialCondition,
    MODEL_RHS,
    RealField,
    RegimeError,
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
    advance,
    simulate,
    step,
)
from penflow.cli import (
    EXIT_CLEAN,
    EXIT_DIVERGED,
    main,
    read_series_csv,
    run_scenario,
)
from penflow.config import format_config
from penflow.solver import _diagnose, _momentum_rhs, effective_dt
from penflow.spectral import fft, half_wavenumbers, ifft, project_hat

from conftest import patch_everywhere

# the viscosity a state steps with is its params' mu/rho, which must be
# positive; at this one nu*|k|^2*u_hat lies far below the round-off of the
# advection it is added to, so the steps are inviscid
INVISCID = ThermoParams(mu=1e-300)


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

    @pytest.mark.parametrize(
        "kind, dim",
        [("taylor_green_2d", 2), ("taylor_green_3d", 3), ("random_divfree", 2)],
    )
    def test_spectrum_is_zero_outside_the_band(self, kind, dim):
        # the transform of the samples leaves round-off there, which RK4
        # amplifies once nu*|k|^2*dt passes its stability limit
        grid = GridSpec(dim, 32)
        state = make_initial(InitialCondition(kind, seed=3), grid)
        outside = state.u.half_spectrum()[:, ~half_wavenumbers(grid).mask]
        assert np.count_nonzero(outside) == 0


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
        cfg = SolverConfig(dt=1e-3)
        for _ in range(100):
            state = step(state, cfg)
        exact = np.pi**2 * np.exp(-4 * 0.1 * state.t)
        assert kinetic_energy(state.u) == pytest.approx(exact, rel=1e-6)

    def test_inviscid_energy_conservation(self):
        g = GridSpec(2, 64)
        ic = InitialCondition("random_divfree", seed=3)
        state = make_initial(ic, g, INVISCID)
        cfg = SolverConfig(dt=1e-3)
        ke0 = kinetic_energy(state.u)
        for _ in range(10):
            state = step(state, cfg)
        assert kinetic_energy(state.u) == pytest.approx(ke0, rel=1e-8)

    def test_incompressibility_preserved(self):
        g = GridSpec(2, 32)
        state = make_initial(
            InitialCondition("random_divfree", seed=5), g, ThermoParams(mu=0.01)
        )
        cfg = SolverConfig(dt=1e-3)
        for _ in range(20):
            state = step(state, cfg)
        div = backward(divergence(forward(state.u))).scalar_values()
        assert np.max(np.abs(div)) < 1e-8

    def test_viscous_energy_balance(self):
        g = GridSpec(2, 64)
        state = make_initial(InitialCondition("taylor_green_2d"), g)
        cfg = SolverConfig(dt=1e-3)
        nxt = step(state, cfg)
        rate = (kinetic_energy(nxt.u) - kinetic_energy(state.u)) / (nxt.t - state.t)
        nu = state.params.nu
        drain = -nu * 0.5 * (gradient_energy(state.u) + gradient_energy(nxt.u))
        assert rate == pytest.approx(drain, rel=1e-4)

    def test_fourth_order_in_time(self):
        g = GridSpec(2, 16)
        errs = []
        for dt in (0.04, 0.02, 0.01, 0.005):
            state = make_initial(
                InitialCondition("taylor_green_2d"), g, ThermoParams(mu=0.5)
            )
            cfg = SolverConfig(dt=dt, cfl_safety=1.0)
            for _ in range(round(1.0 / dt)):
                state = step(state, cfg, dt=dt)
            exact = np.pi**2 * np.exp(-2.0)
            errs.append(abs(kinetic_energy(state.u) - exact) / exact)
        for coarse, fine in zip(errs, errs[1:]):
            assert 12 < coarse / fine < 20

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_fourth_order_on_a_nonlinear_flow(self, dim, n):
        # Taylor-Green's advection is a gradient the projection removes, so
        # test_fourth_order_in_time leaves the nonlinear term out; on
        # random_divfree the rms error against a dt = 0.0025 run falls 16x
        # per halving of dt
        g = GridSpec(dim, n)
        ic = InitialCondition("random_divfree", amplitude=2.0, seed=0)

        def solve(dt):
            state = make_initial(ic, g)
            for _ in range(round(0.16 / dt)):
                state = step(state, SolverConfig(), dt=dt)
            return state.u.data

        reference = solve(0.0025)
        errs = [
            np.sqrt(np.mean((solve(dt) - reference) ** 2))
            for dt in (0.04, 0.02, 0.01)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert 12 <= coarse / fine <= 24

    def test_cfl_cap(self):
        g = GridSpec(2, 32)
        state = make_initial(
            InitialCondition("taylor_green_2d", amplitude=50.0), g
        )
        cfg = SolverConfig(dt=0.1, cfl_safety=0.5)
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
        "dim, kind, sampled, unsampled",
        [(2, "taylor_green_2d", 32, 34), (3, "taylor_green_3d", 54, 59)],
        ids=["2d", "3d"],
    )
    def test_transform_budget(
        self, transform_counter, dim, kind, sampled, unsampled
    ):
        # single-component transforms in one model-pressure step plus one
        # step with its FlowState check.  Each velocity is transformed
        # once: the state carries its spectrum into step and Phi, and the
        # new state takes the one step ends with.  Every stage transforms
        # the trace-free products, dim(dim+1)/2 - 1 of them, but stage 1 of
        # a sampled state takes the advection its P solve left: P, here
        # only the model-pressure input, is solved before counting.  A
        # state whose P is never read steps from a P_model that carries
        # its spectrum.
        g = GridSpec(dim, 16)
        for read_p, budget in ((True, sampled), (False, unsampled)):
            state = make_initial(InitialCondition(kind), g)
            other = state if read_p else make_initial(InitialCondition(kind), g)
            p_model = other.P
            count = transform_counter(g)
            evolve_pressure_model(state, p_model, SolverConfig())
            step(state, SolverConfig())
            assert count["_fftn"] == count["_ifftn"] == 0
            assert count["fft"] + count["ifft"] == budget
        assert unsampled - sampled == dim * (dim + 1) // 2 - 1

    @pytest.mark.parametrize(
        "dim, kind, ffts, iffts",
        [(2, "taylor_green_2d", 9, 10), (3, "taylor_green_3d", 25, 18)],
        ids=["2d-64", "3d-64"],
    )
    def test_call_budget(self, call_counter, dim, kind, ffts, iffts):
        # fft and ifft calls in one model-pressure step plus one step from
        # a state whose P is never read.  At 2D n=64 a stage's two
        # trace-free products go in one fft and Phi's four derivatives in
        # one ifft (13 + 13 calls, one transform each); at 3D n=64 every
        # transform splits and carries one component, so the 5 products
        # of a stage and the 9 derivatives are a call each
        g = GridSpec(dim, 64)
        state = make_initial(InitialCondition(kind), g)
        p_model = make_initial(InitialCondition(kind), g).P
        count = call_counter()
        evolve_pressure_model(state, p_model, SolverConfig())
        step(state, SolverConfig())
        assert count == {"fft": ffts, "ifft": iffts}

    def test_allocation_budget(self, monkeypatch):
        # field-sized arrays (at least one real component's bytes) that
        # numpy's constructors make in one 3D n=32 model-pressure step and
        # one step from a sampled state.  The work arrays are made once per
        # call, not once per RK4 stage:
        #   model step: the gradient spectrum and the physical gradient
        #     (advect's), the source's spectrum, the RK4 stage input, and
        #     the 4 stages' results = 8;
        #   step: stage 1's projection scratch, the stage velocity and its
        #     inverse scratch (stages 2-4), the RK4 stage input, the 3
        #     self-advections, the new velocity, and the FlowState check's
        #     inverse (scratch and result) = 10.
        # Elementwise temporaries (operators, np.abs) are not counted.
        g = GridSpec(3, 32)
        state = make_initial(InitialCondition("taylor_green_3d"), g)
        state.P, state.phi
        made = []
        for name in ("empty", "empty_like", "zeros", "zeros_like"):

            def counted(*args, _fn=getattr(np, name), **kwargs):
                out = _fn(*args, **kwargs)
                if out.nbytes >= 8 * g.n**g.dim:
                    made.append(out.shape)
                return out

            monkeypatch.setattr(np, name, counted)
        evolve_pressure_model(state, state.P, SolverConfig())
        assert len(made) == 8
        made.clear()
        step(state, SolverConfig())
        assert len(made) == 10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sampled_state_advection_is_the_first_stage(self, transform_counter, dim):
        # P's solve and the step's first RK4 stage share u's self-advection:
        # reading P and then stepping saves its dim(dim+1)/2 - 1 product
        # transforms against a P solve and a step on their own
        g = GridSpec(dim, 16)
        ic = InitialCondition("random_divfree", seed=4)
        counts = []
        for read_p, take_step in ((True, False), (False, True), (True, True)):
            state = make_initial(ic, g)
            count = transform_counter(g)
            if read_p:
                state.P
            if take_step:
                step(state, SolverConfig())
            counts.append(count["fft"])
        p_only, step_only, both = counts
        assert both == p_only + step_only - (dim * (dim + 1) // 2 - 1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_repeat_steps_are_byte_identical(self, dim):
        # the first step takes the advection P's solve left and writes into
        # it; a second step from the same state, and a step from a state
        # whose P was never read, compute their own and give the same bytes
        g = GridSpec(dim, 16)
        ic = InitialCondition("random_divfree", seed=4)
        state = make_initial(ic, g)
        state.P
        first = step(state, SolverConfig())
        second = step(state, SolverConfig())
        fresh = step(make_initial(ic, g), SolverConfig())
        for other in (second, fresh):
            assert other.u.data.tobytes() == first.u.data.tobytes()
            assert other.u.half_spectrum().tobytes() == first.u.half_spectrum().tobytes()

    def test_matches_textbook_rk4_on_a_nonlinear_flow(self):
        # step takes stage 1 from the state's physical u and runs the other
        # stages in reused arrays; random_divfree keeps the advection that
        # the projection removes from Taylor-Green, so a wrong stage shows
        g = GridSpec(2, 32)
        state = make_initial(InitialCondition("random_divfree", seed=3), g)
        cfg, dt = SolverConfig(), 1e-2

        def f(uh):
            return _momentum_rhs(uh, state.params.nu, g)

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
        state = make_initial(
            InitialCondition("taylor_green_2d", amplitude=10.0), g, INVISCID
        )
        cfg = SolverConfig(dt=1.0, cfl_safety=1.0)
        with pytest.raises((DivergenceError, FloatingPointError)):
            with np.errstate(over="raise", invalid="raise"):
                for _ in range(200):
                    state = step(state, cfg, dt=1.0)  # bypasses the CFL cap

    @pytest.mark.parametrize(
        "scale, bad",
        [(1.0, np.nan), (1.0, np.inf), (1e120, None)],
        ids=["nan", "inf", "huge"],
    )
    def test_guard_raises_on_nonfinite_and_huge(self, scale, bad):
        # FlowState is the one guard: a NaN or Inf u, and a finite one whose
        # max|u| is above flow.MAX_SPEED, are refused when the state is
        # built; make_initial refuses a huge amplitude, so u is scaled here
        g = GridSpec(2, 16)
        u = scale * make_initial(InitialCondition(), g).u.data
        if bad is not None:
            u[0, 3, 5] = bad
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            FlowState(0.5, RealField(g, u), ThermoParams())
        assert info.value.time == 0.5

    def test_cfl_reads_the_states_max_speed(self):
        g = GridSpec(2, 16)
        state = make_initial(InitialCondition(amplitude=3.0), g)
        assert state.umax == float(np.max(np.abs(state.u.data)))
        cfg = SolverConfig(dt=1.0)
        assert effective_dt(state, cfg) == cfg.cfl_safety * g.h / state.umax


def _fields_bytes(state, p_model):
    return (
        state.u.data.tobytes(),
        state.u.half_spectrum().tobytes(),
        p_model.data.tobytes(),
        p_model.half_spectrum().tobytes(),
    )


class TestAdvance:
    """advance, the one step of (u, P_model), against evolve_pressure_model
    followed by step: below the split size the two sides share each
    stage's transform calls, and every byte must still be theirs."""

    @pytest.mark.parametrize(
        "dim, n", [(2, 64), (3, 32), (3, 64)], ids=["2d-64", "3d-32", "3d-64"]
    )
    @pytest.mark.parametrize("sampled", [False, True], ids=["unsampled", "sampled"])
    def test_matches_the_two_steps(self, dim, n, sampled):
        # a sampled state's P was solved, and its first stage takes the
        # self-advection that solve kept; 3D n=64 splits, and runs the two
        # steps one after the other
        g = GridSpec(dim, n)
        ic = InitialCondition("random_divfree", seed=5)
        cfg = SolverConfig(dt=2e-3)
        got, want = [], []
        for out, together in ((got, True), (want, False)):
            state = make_initial(ic, g)
            p_model = state.P if sampled else make_initial(ic, g).P
            if together:
                state, p_model = advance(state, p_model, cfg)
            else:
                p_model = evolve_pressure_model(state, p_model, cfg)
                state = step(state, cfg)
            out.append(_fields_bytes(state, p_model))
        assert got == want

    @pytest.mark.parametrize("mode", [MODEL_RHS, FINITE_DIFFERENCE])
    def test_simulate_matches_the_two_steps(self, mode):
        # 2D n=64 through simulate, which keeps one _Advance for the run: a
        # sample every third step, so stage 1 runs from sampled and
        # unsampled states; a finite_difference sample also solves the P of
        # the state before it
        g = GridSpec(2, 64)
        cfg = ScenarioConfig(
            grid=g,
            ic=InitialCondition("random_divfree", seed=2),
            solver=SolverConfig(dt=1e-3, t_end=0.008),
            mode=mode,
            output_every=3,
        )
        got = {
            rs.index: _fields_bytes(rs.state, rs.p_model) for rs in simulate(cfg)
        }
        state = make_initial(cfg.ic, g, cfg.thermo)
        p_model = state.P
        want = {0: _fields_bytes(state, p_model)}
        for index in range(1, 9):
            sampled = index % 3 == 0 or index == 8
            if sampled and mode == FINITE_DIFFERENCE:
                state.P
            p_model = evolve_pressure_model(state, p_model, cfg.solver)
            state = step(state, cfg.solver)
            if sampled:
                state.P
                want[index] = _fields_bytes(state, p_model)
        assert got == want

    @pytest.mark.parametrize(
        "dim, kind, ffts, iffts",
        [(2, "taylor_green_2d", 4, 7), (3, "taylor_green_3d", 25, 18)],
        ids=["2d-64", "3d-64"],
    )
    def test_call_budget(self, call_counter, dim, kind, ffts, iffts):
        # fft and ifft calls in one advance from a state whose P is never
        # read, against 9 and 10 for evolve_pressure_model and step at 2D
        # n=64 (TestStep::test_call_budget).  Stage 1 transforms the
        # trace-free products, u0.grad P and the source in one fft, and
        # each later stage u and grad P in one ifft and the products and
        # u0.grad P in one fft: 4 fft; 3 + 1 ifft of the stages, the new
        # velocity, its divergence check and Phi's derivatives: 7.  At 3D
        # n=64 every transform splits, and the two sides run one after the
        # other with their own calls
        g = GridSpec(dim, 64)
        state = make_initial(InitialCondition(kind), g)
        p_model = make_initial(InitialCondition(kind), g).P
        count = call_counter()
        advance(state, p_model, SolverConfig())
        assert count == {"fft": ffts, "ifft": iffts}

    def test_validates_its_arguments(self):
        g = GridSpec(2, 16)
        state = make_initial(InitialCondition(), g)
        with pytest.raises(ConfigError):
            advance(state, state.P, SolverConfig(), dt=0.0)
        with pytest.raises(ArityError):
            advance(state, state.u, SolverConfig())


class TestTaylorGreenSymmetries:
    """3D Taylor-Green keeps its mirror and rotation symmetries under the
    Navier-Stokes equations (Brachet et al. 1983, J. Fluid Mech. 130:411):
    u odd and v, w even in x; w odd and u, v even in z; and the pi/2
    rotation about the axis x = y = pi/2 maps (u, v, w) at (pi - y, x, z)
    to (-v, u, w).  A wrong index among the 3D products breaks them."""

    def test_symmetries_after_fifty_steps(self):
        g = GridSpec(3, 32)
        state = make_initial(InitialCondition("taylor_green_3d"), g)
        p_model = state.P
        cfg = SolverConfig(dt=0.01)
        for _ in range(50):
            p_model = evolve_pressure_model(state, p_model, cfg)
            state = step(state, cfg)
        assert state.t == pytest.approx(0.5)
        n = g.n
        neg = -np.arange(n) % n  # x_i -> -x_i
        turn = (n // 2 - np.arange(n)) % n  # y_j -> pi - y_j

        def mirror_x(f):
            return f[neg]

        def mirror_z(f):
            return f[:, :, neg]

        def rotate(f):
            # f(pi - y, x, z) at (x, y, z)
            return f[turn].transpose(1, 0, 2)

        u, v, w = state.u.data
        scale = np.max(np.abs(state.u.data))
        for got, want in [
            (mirror_x(u), -u),
            (mirror_x(v), v),
            (mirror_x(w), w),
            (mirror_z(w), -w),
            (mirror_z(u), u),
            (mirror_z(v), v),
            (rotate(u), -v),
            (rotate(v), u),
            (rotate(w), w),
        ]:
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
        # the pressures are even under both mirrors and keep the rotation
        for p in (state.P.data[0], p_model.data[0]):
            for got in (mirror_x(p), mirror_z(p), rotate(p)):
                assert np.max(np.abs(got - p)) <= 1e-12 * np.max(np.abs(p))


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


class TestMomentumRhs:
    """_momentum_rhs against a reference written out in the test.

    The reference is the convective form -P[mask*fftn((u.grad)u)] -
    nu*|k|^2*u_hat on numpy's full fftn layout, with kd derivatives and the
    kd projection, so it shares no code with the kernels' trace-free
    divergence form.  A Taylor-Green oracle cannot see the sign or the
    scale of the advection, which the projection removes there."""

    @pytest.mark.parametrize("dim, n", [(2, 32), (2, 64), (3, 16)])
    def test_matches_the_convective_form(self, dim, n):
        g = GridSpec(dim, n)
        state = make_initial(InitialCondition("random_divfree", seed=7), g)
        nu = state.params.nu
        u = state.u.data
        axes = tuple(range(1, dim + 1))
        k1 = np.fft.fftfreq(n, d=1.0 / n)
        k = np.stack(np.meshgrid(*([k1] * dim), indexing="ij"))
        kd = np.where(np.abs(k) == n // 2, 0.0, k)
        kdsq = np.sum(kd * kd, axis=0)
        mask = np.all(np.abs(k) <= n / 3.0, axis=0)
        u_full = np.fft.fftn(u, axes=axes)
        # (u.grad) u_i = sum_j u_j d_j u_i, each derivative i*kd_j*u_hat_i
        conv = np.zeros_like(u)
        for i in range(dim):
            for j in range(dim):
                conv[i] += u[j] * np.fft.ifftn(1j * kd[j] * u_full[i]).real
        n_hat = mask * np.fft.fftn(conv, axes=axes)
        kd_n = np.sum(kd * n_hat, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            grad_part = np.where(kdsq > 0, kd * kd_n / kdsq, 0.0)
        want = -(n_hat - grad_part) - nu * np.sum(k * k, axis=0) * u_full
        got = _momentum_rhs(state.u.half_spectrum(), nu, g)
        want = want[..., : n // 2 + 1]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
        cfg = SolverConfig()

        def richardson_gap(dt):
            full = evolve_pressure_model(state, state.P, cfg, dt=dt)
            h1 = evolve_pressure_model(state, state.P, cfg, dt=dt / 2)
            h2 = evolve_pressure_model(state, h1, cfg, dt=dt / 2)
            return np.max(np.abs(full.data - h2.data))

        gap1 = richardson_gap(0.02)
        gap2 = richardson_gap(0.01)
        assert 24 < gap1 / gap2 < 40  # 2^5 = 32

    def test_samples_are_computed_when_read(self, transform_counter):
        # the next step reads only p_hat: the samples wait for a reader (a
        # checkpoint), then are ifft(p_hat) bit for bit, once, read-only
        g = GridSpec(2, 16)
        state = make_initial(InitialCondition("random_divfree", seed=2), g)
        state.P, state.phi
        count = transform_counter(g)
        out = evolve_pressure_model(state, state.P, SolverConfig())
        later = evolve_pressure_model(state, out, SolverConfig())
        stepped = count["ifft"]
        assert out.components == 1 and later.components == 1
        assert count["ifft"] == stepped
        p_hat = out.half_spectrum()
        assert out.data.tobytes() == ifft(p_hat, g).tobytes()
        assert count["ifft"] == stepped + 1
        assert out.scalar_values().base is out.data
        assert count["ifft"] == stepped + 1
        assert not out.data.flags.writeable and not p_hat.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_pressure_raises(self, bad):
        g = GridSpec(2, 16)
        state = make_initial(InitialCondition("random_divfree", seed=2), g)
        p = np.zeros((1,) + g.shape)
        p[0, 3, 5] = bad
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            evolve_pressure_model(state, RealField(g, p), SolverConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_samples_are_finite_exactly_when_the_spectrum_is(self, bad, rng):
        # why evolve_pressure_model may check p_hat instead of its samples
        g = GridSpec(2, 16)
        a = rng.standard_normal((1,) + g.shape)
        a_hat = fft(a, g)
        assert np.all(np.isfinite(a_hat)) and np.all(np.isfinite(ifft(a_hat, g)))
        with np.errstate(all="ignore"):
            a[0, 3, 5] = bad
            assert not np.all(np.isfinite(fft(a, g)))
            a_hat = a_hat.copy()
            a_hat[0, 2, 3] = bad
            assert not np.all(np.isfinite(ifft(a_hat, g)))

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
            solver=SolverConfig(dt=1e-3, t_end=0.2),
            output_every=50,
        )
        series = run(cfg)
        for s in series.samples:
            exact = np.pi**2 * np.exp(-4 * 0.1 * s.t)
            assert s.kinetic_energy == pytest.approx(exact, rel=1e-6)

    def test_large_step_keeps_the_taylor_green_decay(self, tmp_path):
        # the baseline at dt = 0.02: nu*|k|^2*dt at the corner mode is 4.1,
        # past RK4's limit of 2.785, where round-off left outside the band
        # grew until the accumulator tripped (exit 2)
        cfg = dataclasses.replace(
            ScenarioConfig(), solver=SolverConfig(dt=0.02), output_dir=str(tmp_path)
        )
        series, code = run_scenario(cfg)
        assert code == EXIT_CLEAN
        ke0, nu = series.samples[0].kinetic_energy, cfg.thermo.nu
        for s in series.samples:
            exact = ke0 * np.exp(-4 * nu * s.t)
            assert s.kinetic_energy == pytest.approx(exact, rel=1e-6)

    def test_deterministic(self):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 32),
            ic=InitialCondition("random_divfree", seed=11),
            solver=SolverConfig(dt=1e-3, t_end=0.05),
            thermo=ThermoParams(mu=0.05),
        )
        s1 = run(cfg)
        s2 = run(cfg)
        assert [a.norm_E_sq for a in s1.samples] == [a.norm_E_sq for a in s2.samples]
        assert [a.kinetic_energy for a in s1.samples] == [
            a.kinetic_energy for a in s2.samples
        ]

    def test_regime_exit_keeps_the_samples_before_it(self, monkeypatch):
        # the third sample leaves the regime: run() stops there, keeps the
        # two samples before it and records the third one's time
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 16),
            solver=SolverConfig(dt=1e-3, t_end=0.01),
            output_every=2,
        )
        check = penflow.solver.regime_check
        calls = []

        def leaves_at_third(P, params, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RegimeError("total pressure nonpositive")
            return check(P, params, **kwargs)

        monkeypatch.setattr(penflow.solver, "regime_check", leaves_at_third)
        series = run(cfg)
        assert [s.t for s in series.samples] == pytest.approx([0.0, 0.002])
        assert series.regime_exit_at == pytest.approx(0.004)
        assert series.diverged_at is None
        assert series.bound is not None

    def test_initial_speed_above_the_bound_is_a_divergence(self, tmp_path):
        # FlowState judges the initial state as it judges every step's: a
        # max|u| above flow.MAX_SPEED at t = 0 ends the run there as a
        # divergence, exit 3, with no sample (it used to reach the t = 0
        # regime check and exit 4)
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 16),
            ic=InitialCondition(amplitude=1e101),
            output_dir=str(tmp_path / "out"),
        )
        path = tmp_path / "huge.cfg"
        path.write_text(format_config(cfg))
        assert main(["run", str(path)]) == EXIT_DIVERGED
        _, rows = read_series_csv(tmp_path / "out" / "series.csv")
        assert rows == []
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "status               : numerical divergence at t = 0\n" in summary

    def test_energy_growth_is_a_divergence(self, tmp_path):
        # nu*|k|^2*dt = 4 at the band's corner, past RK4's limit of 2.785,
        # with the CFL cap slack: the corner modes grow fivefold a step
        # (|R(-4)| = 5) until the kinetic energy rises, and the run ends
        # as a divergence at that sample, exit 3, keeping the samples
        # before it
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 16),
            ic=InitialCondition("random_divfree", amplitude=0.1, seed=1),
            solver=SolverConfig(dt=0.08, t_end=2.0, cfl_safety=1.0),
            thermo=ThermoParams(mu=1.0),
            output_every=1,
            output_dir=str(tmp_path / "out"),
        )
        path = tmp_path / "unstable.cfg"
        path.write_text(format_config(cfg))
        assert main(["run", str(path)]) == EXIT_DIVERGED
        header, rows = read_series_csv(tmp_path / "out" / "series.csv")
        ke = [float(row[header.index("kinetic_energy")]) for row in rows]
        assert 2 <= len(ke) < 25
        assert all(b <= a for a, b in zip(ke, ke[1:]))
        summary = (tmp_path / "out" / "summary.txt").read_text()
        t = float(re.search(r"numerical divergence at t = (\S+)", summary)[1])
        assert t == pytest.approx(0.08 * len(ke))

    def test_bound_is_fitted_on_read(self):
        # a fit kept from the end of run() went stale when a sample was
        # appended afterwards
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 16),
            solver=SolverConfig(t_end=0.003),
            output_every=1,
        )
        series = run(cfg)
        assert series.bound.samples_used == len(series) == 4
        last = series.samples[-1]
        series.append(dataclasses.replace(last, t=last.t + 1e-3))
        assert series.bound.samples_used == 5

    def test_regime_exit_at_t0_leaves_an_empty_series(self):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(2, 16),
            ic=InitialCondition(amplitude=10.0),
            P0=1.0,
        )
        series = run(cfg)
        assert len(series) == 0
        assert series.regime_exit_at == 0.0
        assert series.bound is None

    @pytest.mark.parametrize("mode", [MODEL_RHS, FINITE_DIFFERENCE])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_sampling_rate_does_not_change_the_trajectory(
        self, monkeypatch, dim, mode
    ):
        # a sample reads its state's P (in finite_difference also the P of
        # the state before it), and the states it reads step to the bytes
        # of states nobody read; the model pressure does not depend on
        # which states were sampled either
        cfg = ScenarioConfig(
            grid=GridSpec(dim, 16),
            ic=InitialCondition("random_divfree", seed=6),
            solver=SolverConfig(dt=1e-3, t_end=0.012),
            mode=mode,
        )
        calls = []
        # every self-advection adds each trace-free product's divergence
        # terms here once: self_advect_hat's and each RK4 stage's
        original = penflow.spectral._add_divergence_terms

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)

        def trajectory(every):
            calls.clear()
            samples = {
                rs.index: (
                    rs.state.u.data.tobytes(),
                    rs.state.u.half_spectrum().tobytes(),
                    rs.p_model.data.tobytes(),
                )
                for rs in simulate(dataclasses.replace(cfg, output_every=every))
            }
            return samples, len(calls)

        (dense, dense_calls), (sparse, sparse_calls) = trajectory(1), trajectory(4)
        assert sorted(dense) == list(range(13))
        assert sorted(sparse) == [0, 4, 8, 12]
        for index, want in sparse.items():
            assert dense[index] == want
        # every state's self-advection is computed once, sampled or not:
        # one for each of the 13 states and three per step for stages 2-4,
        # each of dim(dim+1)/2 - 1 products
        products = dim * (dim + 1) // 2 - 1
        assert dense_calls == sparse_calls == (13 + 3 * 12) * products

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
        # once P and Phi are known, a model_rhs sample transforms D_tP
        # forward, once: every norm is a sum over a half spectrum, P keeps
        # the spectrum of its Poisson solve, and T = (P0 + P)/(rho R)
        # shares it
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(3, 16),
            ic=InitialCondition("taylor_green_3d"),
        )
        state = step(make_initial(cfg.ic, cfg.grid, cfg.thermo), cfg.solver)
        state.P, state.phi
        count = transform_counter(cfg.grid)
        _diagnose(cfg, state, None, cfg.solver.dt)
        assert count == {"fft": 1, "ifft": 0, "_fftn": 0, "_ifftn": 0}

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_finite_difference_transform_budget(self, transform_counter, dim, n):
        # beyond both states' P and Phi, a finite_difference sample makes
        # only u.grad P: dim inverse transforms of grad P and one forward
        # transform of the product.  D_tP is formed on the spectra, and its
        # samples are computed only when read
        cfg = dataclasses.replace(
            ScenarioConfig(),
            grid=GridSpec(dim, n),
            ic=InitialCondition("random_divfree", seed=4),
            mode=FINITE_DIFFERENCE,
        )
        prev = make_initial(cfg.ic, cfg.grid, cfg.thermo)
        state = step(prev, cfg.solver)
        prev.P, state.P, state.phi
        count = transform_counter(cfg.grid)
        dtp, _ = _diagnose(cfg, state, prev.P, cfg.solver.dt)
        assert count == {"fft": 1, "ifft": dim, "_fftn": 0, "_ifftn": 0}
        dtp.data
        assert count["ifft"] == dim + 1


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

        def counted(u, params, _fn=penflow.flow.pressure_poisson, **kwargs):
            solved.append(u)
            return _fn(u, params, **kwargs)

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

    def _saved(self, tmp_path):
        g = GridSpec(2, 16)
        path = tmp_path / "field.ckpt"
        save_checkpoint(path, RealField.zeros(g, components=2), 0.5)
        return path

    @pytest.mark.parametrize(
        "edit",
        [lambda raw: raw[:-8], lambda raw: raw + bytes(3)],
        ids=["truncated", "trailing"],
    )
    def test_sample_count_must_match_the_header(self, tmp_path, edit):
        path = self._saved(tmp_path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_header_must_name_a_component(self, tmp_path):
        # a header of 0 components and no samples used to load as a
        # (0, 16, 16) field, which no function accepts
        g = GridSpec(2, 16)
        path = tmp_path / "empty.ckpt"
        path.write_bytes(struct.pack("<4sIIId", b"PEM1", g.dim, g.n, 0, 0.5))
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("dim, n", [(4, 16), (2, 17), (2, 0)])
    def test_header_must_name_a_grid(self, tmp_path, dim, n):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:12] = struct.pack("<II", dim, n)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)
