"""Closed-form oracle for Taylor-Green: every diagnostic has an exact value.

2D Taylor-Green is an exact Navier-Stokes solution whose advection is a
gradient the projection removes, so with g(t) = A^2 exp(-4 nu t) the
pressure is P = (rho/4)(cos 2x + cos 2y) g, the dissipation is
Phi = 2 mu g (1 + cos 2x cos 2y), and every column of the shipped
baseline's series follows from their few Fourier modes.  RK4's time error
on the decay exp(-2 nu t) is far below the tolerances here.  3D
Taylor-Green is checked at t = 0, where
P = (rho A^2/16)(cos 2x + cos 2y)(cos 2z + 2).

Two more exact solutions are driven here with step, evolve_pressure_model
and _diagnose from states built in the test.  Taylor-Green advected by a
uniform velocity U (Galilean invariance: u = U + TG(x - Ut, t)) keeps an
advection that the projection does not remove, so it pins the nonlinear
term's sign and scale.  The 3D ABC (Arnold-Beltrami-Childress) flow has
curl u = u, so u.grad u = grad(|u|^2/2) is again a gradient, but it is
exact at every t where 3D Taylor-Green is exact only at t = 0, and its
uniform Phi makes the model pressure's mean a closed form.

A Sobolev norm here is sqrt((2 pi)^dim sum_k (1 + |k|^2)^order |c_k|^2)
over the modes of f = sum_k c_k exp(i k.x), as spectral.sobolev_norm
defines it; each field below is listed as (c_k, |k|^2, count) groups.
"""

import dataclasses
import math

import numpy as np
import pytest

from penflow import (
    FlowState,
    GridSpec,
    InitialCondition,
    RealField,
    ScenarioConfig,
    SolverConfig,
    evolve_pressure_model,
    simulate,
    step,
)
from penflow.cli import SERIES_COLUMNS, series_rows
from penflow.energy import NormSeries
from penflow.solver import _diagnose

RTOL = 1e-12
# max|T - T0|/T0 takes the difference of two numbers near T0
DELTA_T_RTOL = 1e-9


def _sobolev(modes, order, dim):
    """sqrt((2 pi)^dim sum (1 + |k|^2)^order |c|^2) over (c, |k|^2, count)."""
    total = sum(count * (1 + ksq) ** order * c * c for c, ksq, count in modes)
    return math.sqrt((2 * math.pi) ** dim * total)


def _check_row(got, want):
    assert set(want) == set(SERIES_COLUMNS)
    for column, value in want.items():
        actual = got[SERIES_COLUMNS.index(column)]
        if isinstance(value, bool):
            assert actual is value, column
        else:
            rtol = DELTA_T_RTOL if column == "delta_T_rel" else RTOL
            assert actual == pytest.approx(value, rel=rtol, abs=0), column


def _taylor_green_2d(cfg, t, accumulator):
    """Every series.csv column of 2D Taylor-Green at time t."""
    th = cfg.thermo
    rc = th.R / th.c_v
    T0 = cfg.T0
    g = cfg.ic.amplitude**2 * math.exp(-4 * th.nu * t)
    # P = (rho g/8) (e^{2ix} + e^{-2ix} + e^{2iy} + e^{-2iy})
    p_modes = [(th.rho * g / 8, 4, 4)]
    # D_tP = (R/c_v) 2 mu g (1 + (1/4) sum_{+-,+-} e^{i(+-2x +-2y)})
    dtp_modes = [(rc * 2 * th.mu * g, 0, 1), (rc * 2 * th.mu * g / 4, 8, 4)]
    lap_term = 4 * math.pi**2 * th.rho**2 * g**2
    dtp_term = 20 * math.pi**2 * th.mu**2 * rc**2 * g**2
    total = lap_term + dtp_term
    grad_energy = 4 * math.pi**2 * g
    delta_T = th.rho * g / (2 * cfg.P0)
    return {
        "t": t,
        "norm_E_sq": total,
        "dtP_term": dtp_term,
        "lap_term": lap_term,
        "grad_energy": grad_energy,
        "ratio": grad_energy / total,
        "kinetic_energy": math.pi**2 * g,
        "h2_norm_P": _sobolev(p_modes, 2, 2),
        "hminus1_norm_dtP": _sobolev(dtp_modes, -1, 2),
        "delta_T_rel": delta_T,
        "in_regime": delta_T < 0.02,
        # T = (P0 + P)/(rho R): T0 in the mean mode, P's modes scaled
        "T_h2_norm": _sobolev(
            [(T0, 0, 1)] + [(c / (th.rho * th.R), k, m) for c, k, m in p_modes], 2, 2
        ),
        "accumulator": accumulator,
        "tripped": False,
    }


def test_baseline_series_matches_the_closed_forms(baseline):
    cfg, series, _ = baseline
    assert cfg.thermo.Q is None
    rows = list(series_rows(series))
    assert len(rows) == 101
    accumulator, t_prev = 0.0, None
    for i, row in enumerate(rows):
        t = i * cfg.output_every * cfg.solver.dt
        if t_prev is not None:
            # BlowupState adds norm_E_sq * dt at each sample after the first
            accumulator += _taylor_green_2d(cfg, t, 0.0)["norm_E_sq"] * (t - t_prev)
        t_prev = t
        _check_row(row, _taylor_green_2d(cfg, t, accumulator))


def test_taylor_green_3d_first_sample_matches_the_closed_forms():
    cfg = dataclasses.replace(
        ScenarioConfig(),
        grid=GridSpec(3, 32),
        ic=InitialCondition("taylor_green_3d"),
        solver=SolverConfig(t_end=0.0),
    )
    (first,) = simulate(cfg)
    series = NormSeries(scenario=cfg)
    series.append(first.sample)
    (row,) = series_rows(series)

    th = cfg.thermo
    rc = th.R / th.c_v
    a2 = cfg.ic.amplitude**2
    pi3 = math.pi**3
    # with X, Y, Z = cos 2x, cos 2y, cos 2z: P = (rho A^2/16)(2X + 2Y + XZ + YZ)
    p = th.rho * a2 / 16
    p_modes = [(p, 4, 4), (p / 4, 8, 8)]
    # sum_ij (du_i/dx_j)^2 = A^2 (3/4 + XY/4 + Z/4 + 3XYZ/4), so Phi is
    # 2 mu A^2 times that
    phi = 2 * th.mu * a2
    dtp_modes = [
        (rc * phi * 3 / 4, 0, 1),
        (rc * phi / 16, 8, 4),
        (rc * phi / 8, 4, 2),
        (rc * phi * 3 / 32, 12, 8),
    ]
    lap_term = 3 * th.rho**2 * a2**2 * pi3
    dtp_term = 87 / 4 * rc**2 * th.mu**2 * a2**2 * pi3
    total = lap_term + dtp_term
    grad_energy = 6 * pi3 * a2
    delta_T = 3 * th.rho * a2 / (8 * cfg.P0)
    _check_row(
        row,
        {
            "t": 0.0,
            "norm_E_sq": total,
            "dtP_term": dtp_term,
            "lap_term": lap_term,
            "grad_energy": grad_energy,
            "ratio": grad_energy / total,
            "kinetic_energy": pi3 * a2,
            "h2_norm_P": _sobolev(p_modes, 2, 3),
            "hminus1_norm_dtP": _sobolev(dtp_modes, -1, 3),
            "delta_T_rel": delta_T,
            "in_regime": True,
            "T_h2_norm": _sobolev(
                [(cfg.T0, 0, 1)]
                + [(c / (th.rho * th.R), k, m) for c, k, m in p_modes],
                2,
                3,
            ),
            "accumulator": 0.0,
            "tripped": False,
        },
    )


def _check_sample(sample, want):
    """Every NormSample field against the closed-form value of its column."""
    got = dataclasses.asdict(sample)
    got.update(got.pop("regime"))
    assert set(want) == set(got)
    for name, value in want.items():
        if isinstance(value, bool):
            assert got[name] is value, name
        else:
            rtol = DELTA_T_RTOL if name == "delta_T_rel" else RTOL
            assert got[name] == pytest.approx(value, rel=rtol, abs=0), name


def _check_field(got, want):
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def test_advected_taylor_green_matches_the_closed_forms():
    # u = U + TG(x - Ut, t): P and Phi are the Taylor-Green ones in the
    # moving frame, every norm but the kinetic energy is unchanged, and
    # max|T - T0| is read off the shifted closed form on the grid
    cfg = dataclasses.replace(ScenarioConfig(), grid=GridSpec(2, 32))
    grid, th = cfg.grid, cfg.thermo
    U = (1.0, 0.5)
    dt, steps = 1e-3, 500
    x, y = grid.coordinates()

    def exact(t):
        a = cfg.ic.amplitude * math.exp(-2 * th.nu * t)
        xs, ys = x - U[0] * t, y - U[1] * t
        u = np.stack(
            [U[0] + a * np.sin(xs) * np.cos(ys), U[1] - a * np.cos(xs) * np.sin(ys)]
        )
        P = th.rho * a * a / 4 * (np.cos(2 * xs) + np.cos(2 * ys))
        phi = 2 * th.mu * a * a * (1 + np.cos(2 * xs) * np.cos(2 * ys))
        return u, P, phi

    def check(state):
        t = state.t
        u, P, phi = exact(t)
        _check_field(state.u.data, u)
        _check_field(state.P.data[0], P)
        _check_field(state.phi.data[0], phi)
        _, sample = _diagnose(cfg, state, None, dt)
        want = _taylor_green_2d(cfg, t, 0.0)
        del want["accumulator"], want["tripped"]
        want["kinetic_energy"] += (U[0] ** 2 + U[1] ** 2) * (2 * math.pi) ** 2 / 2
        want["delta_T_rel"] = float(np.max(np.abs(P))) / cfg.P0
        want["in_regime"] = want["delta_T_rel"] < 0.02
        _check_sample(sample, want)

    state = FlowState(0.0, RealField(grid, exact(0.0)[0]), th)
    p_model = state.P
    check(state)
    for i in range(1, steps + 1):
        p_model = evolve_pressure_model(state, p_model, cfg.solver, dt=dt)
        state = step(state, cfg.solver, dt=dt)
        if i % 100 == 0:
            check(state)
    assert state.t == pytest.approx(0.5, rel=RTOL)


def test_abc_flow_matches_the_closed_forms():
    # u = e^{-nu t}(A sin z + C cos y, B sin x + A cos z, C sin y + B cos x)
    # has curl u = u, so P = -rho(|u|^2 - mean |u|^2)/2 and Phi is uniform;
    # the model pressure's mean then grows by exactly dt (R/c_v) Phi(t_n)
    # per step, since its advection has zero mean and its source is frozen
    cfg = dataclasses.replace(
        ScenarioConfig(), grid=GridSpec(3, 32), ic=InitialCondition("taylor_green_3d")
    )
    grid, th = cfg.grid, cfg.thermo
    rc = th.R / th.c_v
    A, B, C = 1.0, 0.7, 0.4
    s2 = A * A + B * B + C * C
    dt, steps = 1e-3, 101
    x, y, z = grid.coordinates()
    pi3 = (2 * math.pi) ** 3

    def exact(t):
        e = math.exp(-th.nu * t)
        u = e * np.stack(
            [
                A * np.sin(z) + C * np.cos(y),
                B * np.sin(x) + A * np.cos(z),
                C * np.sin(y) + B * np.cos(x),
            ]
        )
        P = -th.rho * e * e * (
            A * C * np.sin(z) * np.cos(y)
            + A * B * np.sin(x) * np.cos(z)
            + B * C * np.sin(y) * np.cos(x)
        )
        return u, P

    def phi(t):
        return 2 * th.mu * s2 * math.exp(-2 * th.nu * t)

    def want_sample(t, P):
        g = math.exp(-2 * th.nu * t)
        # each product of two sines or cosines is 4 modes of |k|^2 = 2
        p_modes = [(th.rho * g * ab / 4, 2, 4) for ab in (A * B, A * C, B * C)]
        lap_term = pi3 * (th.rho * g) ** 2 * sum(c * c for c in (A * B, A * C, B * C))
        dtp_term = pi3 * (rc * phi(t)) ** 2
        total = lap_term + dtp_term
        grad_energy = pi3 * s2 * g
        delta_T = float(np.max(np.abs(P))) / cfg.P0
        return {
            "t": t,
            "norm_E_sq": total,
            "dtP_term": dtp_term,
            "lap_term": lap_term,
            "grad_energy": grad_energy,
            "ratio": grad_energy / total,
            "kinetic_energy": pi3 * s2 * g / 2,
            "h2_norm_P": _sobolev(p_modes, 2, 3),
            "hminus1_norm_dtP": _sobolev([(rc * phi(t), 0, 1)], -1, 3),
            "delta_T_rel": delta_T,
            "in_regime": delta_T < 0.02,
            "T_h2_norm": _sobolev(
                [(cfg.T0, 0, 1)]
                + [(c / (th.rho * th.R), k, m) for c, k, m in p_modes],
                2,
                3,
            ),
        }

    def check(state):
        u, P = exact(state.t)
        _check_field(state.u.data, u)
        _check_field(state.P.data[0], P)
        _check_field(state.phi.data[0], np.full(grid.shape, phi(state.t)))
        _, sample = _diagnose(cfg, state, None, dt)
        _check_sample(sample, want_sample(state.t, P))

    state = FlowState(0.0, RealField(grid, exact(0.0)[0]), th)
    p_model = state.P
    riemann = 0.0
    check(state)
    for i in range(1, steps + 1):
        riemann += dt * rc * phi(state.t)
        p_model = evolve_pressure_model(state, p_model, cfg.solver, dt=dt)
        state = step(state, cfg.solver, dt=dt)
        if i % 50 == 0 or i == steps:
            check(state)
    mean = p_model.half_spectrum()[0, 0, 0, 0].real / grid.n**grid.dim
    assert mean == pytest.approx(riemann, rel=RTOL)
