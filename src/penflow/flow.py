"""Physical state and thermodynamic closures.

Velocity snapshots with the pressure slaved to them by a Poisson solve
(whose self-advection a sampled state keeps for the next step's first RK4
stage), the ideal-gas closure P = rho*R*T (_temperature, the one place
it is written), the energy-equation closure
D_tP = (R/c_v)*(Phi + Q) (pressure_source, the one place it is written),
the dissipation Phi = 2*mu*sum_ij (du_i/dx_j)^2, the Leray projection onto
divergence-free fields, and the quasi-incompressible regime check (relative
temperature deviation below 2%).

Every public function here that needs a field argument's component
count or grid applies the one rule on fields, spectral.check_field: a
velocity has one component per dimension, and Phi and Q one each, on the
grid of the fields it acts with; ArityError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    ArityError,
    DivergenceError,
    RegimeError,
    check_rules,
    check_types,
    positive,
)
from .spectral import (
    TWO_PI,
    GridSpec,
    RealField,
    batches,
    check_field,
    div_hat,
    fft,
    half_wavenumbers,
    ifft,
    l2_norm_sq,
    on_slabs,
    project_hat,
    real_view,
    self_advect_hat,
    sobolev_norm,
)

DIVERGENCE_TOL = 1e-8
# the largest max |u| a FlowState holds; above it, or NaN, the flow diverged
MAX_SPEED = 1e100
REGIME_LIMIT = 0.02


@dataclass(frozen=True)
class ThermoParams:
    """Constant-density ideal-gas parameters (air-like defaults).

    Q is an optional external heat source field; it enters D_tP through
    pressure_source.
    """

    rho: float = 1.0
    R: float = 287.0
    c_v: float = 717.5
    mu: float = 0.1
    Q: RealField | None = None

    def __post_init__(self):
        check_types(self)
        check_rules(*(positive(k, getattr(self, k)) for k in ("rho", "R", "c_v", "mu")))
        if self.Q is not None:
            check_field(self.Q.grid, 1, self.Q)

    @property
    def nu(self) -> float:
        """Kinematic viscosity mu/rho used by the solver."""
        return self.mu / self.rho


def pressure_source(phi: RealField, params: ThermoParams) -> RealField:
    """The energy equation's D_tP = (R/c_v)*(Phi + Q) for a dissipation Phi."""
    sources = (phi,) if params.Q is None else (phi, params.Q)
    check_field(phi.grid, 1, *sources)
    heat = phi.data if params.Q is None else phi.data + params.Q.data
    return RealField(phi.grid, params.R / params.c_v * heat)


@dataclass(frozen=True)
class RegimeReport:
    """Quasi-incompressibility check: max |T - T0|/T0 against the 2% limit."""

    delta_T_rel: float
    in_regime: bool
    T_h2_norm: float


class FlowState:
    """Divergence-free velocity snapshot at one time.

    u must pass the one rule on fields, spectral.check_field (one
    component per dimension), and be divergence-free (max |div u| < 1e-8).
    The state keeps u's half spectrum as state.u.half_spectrum(): the
    divergence check is computed from it, step starts from it and Phi's
    gradients come from it.  A u built with its spectrum (as step builds
    the next state) is not transformed again.  The spectrum and u's
    samples are read-only.  The pressure P is a function of u
    (pressure_poisson, zero-mean gauge; the constant reference pressure
    lives in the scenario configuration) and so is the dissipation Phi;
    each is computed on its first read and kept.
    P's solve starts from u's self-advection, the first RK4 stage of a step
    from this state: the state keeps that array until a step takes it
    (take_self_advection), so it is computed once.  A state whose P is
    never read steps through the same code and computes it there.  umax is
    max |u| over the samples, which the divergence check scales by and the
    CFL cap reads.  A u whose max |u| is NaN, Inf or above MAX_SPEED raises
    DivergenceError at time t: the one place a diverged velocity is judged,
    for an initial state and for every step alike.
    """

    __slots__ = ("t", "u", "umax", "params", "_P", "_phi", "_advection")

    def __init__(self, t: float, u: RealField, params: ThermoParams):
        grid = u.grid
        check_field(grid, grid.dim, u)
        umax = float(np.max(np.abs(u.data)))
        # written so that a NaN max fails it too
        if not umax <= MAX_SPEED:
            raise DivergenceError(t)
        # kernels, not backward(): its Hermitian gate would choke on the
        # cancellation roundoff of a nearly-diverged (huge-amplitude) field
        u_hat = u.half_spectrum()
        div = ifft(div_hat(u_hat, grid), grid)
        # written so that a NaN divergence fails it too
        if not np.max(np.abs(div)) < DIVERGENCE_TOL * max(1.0, umax):
            raise ArityError("velocity field is not divergence-free")
        self.t = float(t)
        self.u = RealField(grid, u.data, u_hat)
        self.umax = umax
        self.params = params
        self._P = None
        self._phi = None
        self._advection = None

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    @property
    def P(self) -> RealField:
        """pressure_poisson(u, params), solved once per state."""
        if self._P is None:
            advection = self_advect_hat(self.u.data, self.grid)
            self._P = pressure_poisson(self.u, self.params, advection=advection)
            self._advection = advection
        return self._P

    def take_self_advection(self) -> np.ndarray | None:
        """The self_advect_hat(u.data) that P's solve kept, in an array the
        caller may overwrite, or None when none is kept: the caller then
        computes it (step with self_advect_hat, solver._Advance in a batch
        of its own).

        It is handed over once and forgotten, so nothing can read it after
        the caller writes into it.  Either way it is the one trace-free
        form, so a state whose P was read steps to the same bytes as one
        whose P was not.
        """
        advection, self._advection = self._advection, None
        return advection

    @property
    def phi(self) -> RealField:
        """dissipation_phi(u, params), computed once per state."""
        if self._phi is None:
            self._phi = dissipation_phi(self.u, self.params)
        return self._phi


def pressure_poisson(
    u: RealField, params: ThermoParams, *, advection: np.ndarray | None = None
) -> RealField:
    """Zero-mean P with lap P = -rho * div(u.grad u), quadratic term dealiased.

    u.grad u is taken in divergence form, exact for divergence-free u inside
    the 2/3 band (every state the solver makes).  advection is
    self_advect_hat(u.data) when the caller already holds it; it is only
    read.  That form leaves out the gradient i*kd*mask*fft(u_d^2), whose
    divergence -|kd|^2*mask*fft(u_d^2) is added back here: no mode in the
    mask has an axis at Nyquist, so kd = k there, and over |k|^2 it is
    -mask*fft(u_d^2), except at the mean mode, which the gauge sets to 0.
    """
    grid = u.grid
    check_field(grid, grid.dim, u)
    w = half_wavenumbers(grid)
    if advection is None:
        advection = self_advect_hat(u.data, grid)
    # p_hat = rho*(inv_ksq*div_hat(advection) - mask*fft(u_d^2)), in place:
    # as one expression its temporaries set a 3D n=64 run's peak RSS
    ud = u.data[-1:]
    p_hat = div_hat(advection, grid)
    p_hat *= w.inv_ksq
    trace = fft(ud * ud, grid)
    trace *= w.mask
    p_hat -= trace
    p_hat *= params.rho
    p_hat[(0,) * (grid.dim + 1)] = 0.0
    return RealField(grid, ifft(p_hat, grid), p_hat)


def _temperature(p: np.ndarray, params: ThermoParams, P0: float) -> np.ndarray:
    """The ideal gas law T = (P0 + p)/(rho*R) on an array of pressures p
    about the reference P0; RegimeError where a total P0 + p is nonpositive.

    The one place the law is written: temperature_from_pressure applies it
    to a field's samples and regime_check to a field's extremes.
    """
    total = P0 + p
    if np.min(total) <= 0:
        raise RegimeError("total pressure nonpositive somewhere on the grid")
    return total / (params.rho * params.R)


def temperature_from_pressure(
    P: RealField, params: ThermoParams, P0: float
) -> RealField:
    """Ideal gas law: T = (P0 + P)/(rho*R), pointwise (flow._temperature).

    P0 must be positive and finite (errors.positive), as in a configuration;
    RegimeError where the total pressure P0 + P is nonpositive.
    """
    check_rules(positive("P0", P0))
    return RealField(P.grid, _temperature(P.scalar_values(), params, P0))


def _derivatives(u: RealField) -> Iterator[tuple[list[tuple[int, int]], np.ndarray]]:
    """(the (i, j) of each, du_i/dx_j) from u's half spectrum, by batches.

    The derivatives, i outer and j inner, go in spectral.batches: all four
    of a 2D n=64 field in one inverse transform, three at a time at 3D
    n=32, one at a time at 3D n=64.  Every batch is written into one array
    of shape (k, n, ..., n), which the next one overwrites, so a caller
    reduces or copies each batch before it asks for the next.
    """
    grid = u.grid
    check_field(grid, grid.dim, u)
    u_hat = u.half_spectrum()
    ikd = half_wavenumbers(grid).ikd
    pairs = [(i, j) for i in range(u.components) for j in range(grid.dim)]
    groups = batches(pairs, grid)
    width = len(groups[0])
    # the spectra and the inverse's scratch in one block: as separate
    # arrays, a 2D n=64 batch's were allocated at the heap top and trimmed
    # from it at every call, about 60 page faults per step.  The samples go
    # into the spectra's memory, which ifft's first pass has read.
    work = np.empty((2 * width,) + ikd.shape[1:], dtype=np.complex128)
    d_hat, scratch = work[:width], work[width:]
    for batch in groups:
        k = len(batch)
        for b, (i, j) in enumerate(batch):
            on_slabs(grid, np.multiply, ikd[j], u_hat[i], d_hat[b])
        d = real_view(d_hat[:k], (k,) + grid.shape)
        yield batch, ifft(d_hat[:k], grid, out=d, scratch=scratch[:k])


def velocity_gradients(u: RealField) -> np.ndarray:
    """Spectral derivatives du_i/dx_j, shape (components, dim, n, ..., n)."""
    out = np.empty((u.components, u.grid.dim) + u.grid.shape)
    for batch, d in _derivatives(u):
        for (i, j), dij in zip(batch, d):
            out[i, j] = dij
    return out


def _add_squares(total, d) -> None:
    # total += d_b*d_b for each derivative d_b in order, d overwritten
    d *= d
    for square in d:
        total += square


def _gradient_squares(u: RealField) -> np.ndarray:
    """sum_ij (du_i/dx_j)^2, shape (1, n, ..., n), summed as they come."""
    total = np.zeros((1,) + u.grid.shape)
    for _, d in _derivatives(u):
        on_slabs(u.grid, _add_squares, total, d)
    return total


def dissipation_phi(u: RealField, params: ThermoParams) -> RealField:
    """Phi(x) = 2*mu*sum_ij (du_i/dx_j)^2; nonnegative everywhere."""
    phi = _gradient_squares(u)
    phi *= 2.0 * params.mu
    return RealField(u.grid, phi)


def gradient_energy(u: RealField) -> float:
    """integral sum_ij (du_i/dx_j)^2 dx, same derivatives as dissipation_phi."""
    return float(np.sum(_gradient_squares(u))) * u.grid.cell_volume


def kinetic_energy(u: RealField) -> float:
    """integral |u|^2/2 dx."""
    check_field(u.grid, u.grid.dim, u)
    return 0.5 * l2_norm_sq(u)


def leray_project(v: RealField) -> RealField:
    """v minus its gradient part, through spectral.project_hat.

    Linear, idempotent, kills pure gradients, keeps the mean modes; the
    result is divergence-free under divergence() and FlowState's check.
    """
    grid = v.grid
    check_field(grid, grid.dim, v)
    v_hat = project_hat(fft(v.data, grid), grid)
    return RealField(grid, ifft(v_hat, grid), v_hat)


def regime_check(
    P: RealField, params: ThermoParams, *, P0: float, h2_norm: float | None = None
) -> RegimeReport:
    """Report max relative temperature deviation and the H^2 norm of T.

    P0 is the reference pressure, as temperature_from_pressure takes it,
    and must be positive and finite (errors.positive); it is keyword-only,
    so a reference temperature passed in its place raises TypeError instead
    of being read as a pressure.  T0 = P0/(rho*R).  h2_norm is
    sobolev_norm(P, 2) when the caller already holds it.  The deviation is
    temperature_from_pressure's max |T - T0|/T0, taken by the one ideal gas
    law, flow._temperature, from P's extremes alone: T - T0 =
    (P0 + P)/(rho*R) - T0 rounds each step monotonically in P, so its
    largest magnitude lies at max P or min P, and the total pressure's
    minimum is P0 + min P, bit for bit (RegimeError where it is
    nonpositive, exactly where temperature_from_pressure raises).
    """
    check_rules(positive("P0", P0))
    grid = P.grid
    rho_R = params.rho * params.R
    T0 = P0 / rho_R
    p = P.scalar_values()
    T = _temperature(np.array([p.min(), p.max()]), params, P0)
    delta = float(np.max(np.abs(T - T0))) / T0
    if h2_norm is None:
        h2_norm = sobolev_norm(P, 2)
    # T = (P0 + P)/(rho*R) has P's spectrum over rho*R plus T0*n**dim in
    # the mean mode, whose weight is 1: T's sum is P's over (rho*R)^2 plus
    # (2*pi)^dim*((T0 + p0)^2 - p0^2), p0 the mean of P/(rho*R)
    p0 = P.half_spectrum()[(0,) * (grid.dim + 1)].real / (rho_R * grid.n**grid.dim)
    h2_sq = (h2_norm / rho_R) ** 2 + TWO_PI**grid.dim * T0 * (T0 + 2 * p0)
    return RegimeReport(
        delta_T_rel=delta,
        in_regime=delta < REGIME_LIMIT,
        T_h2_norm=math.sqrt(h2_sq),
    )


__all__ = [
    "ThermoParams",
    "pressure_source",
    "RegimeReport",
    "FlowState",
    "pressure_poisson",
    "temperature_from_pressure",
    "velocity_gradients",
    "dissipation_phi",
    "gradient_energy",
    "kinetic_energy",
    "leray_project",
    "regime_check",
]
