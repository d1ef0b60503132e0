"""Closed-form oracle for Taylor-Green: every diagnostic has an exact value.

2D Taylor-Green is an exact Navier-Stokes solution whose advection is a
gradient the projection removes, so with g(t) = A^2 exp(-4 nu t) the
pressure is P = (rho/4)(cos 2x + cos 2y) g, the dissipation is
Phi = 2 mu g (1 + cos 2x cos 2y), and every column of the shipped
baseline's series follows from their few Fourier modes.  RK4's time error
on the decay exp(-2 nu t) is far below the tolerances here.  3D
Taylor-Green is checked at t = 0, where
P = (rho A^2/16)(cos 2x + cos 2y)(cos 2z + 2).

A Sobolev norm here is sqrt((2 pi)^dim sum_k (1 + |k|^2)^order |c_k|^2)
over the modes of f = sum_k c_k exp(i k.x), as spectral.sobolev_norm
defines it; each field below is listed as (c_k, |k|^2, count) groups.
"""

import dataclasses
import math

import pytest

from penflow import GridSpec, InitialCondition, ScenarioConfig, SolverConfig, simulate
from penflow.cli import SERIES_COLUMNS, series_rows
from penflow.energy import NormSeries

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
