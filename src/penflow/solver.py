"""RK4 pseudo-spectral time integration on the periodic box.

Advances the incompressible momentum equation with Leray projection at
every substage and, through the same RK4 routine, the model pressure driven
by the energy equation dP/dt + u.grad P = (R/c_v)*(Phi + Q).  One function,
flow.pressure_source, holds that source; each model-pressure step
transforms it, and it is also D_tP, Q included, in model_rhs diagnostics
and at the first sample of a finite_difference run.
The Navier-Stokes pressure is FlowState.P, solved only where a sample (or,
in finite_difference mode, the step before one) reads it.  Velocity
self-advection has one form, spectral.self_advect_hat's trace-free
products u u - u_d^2 I (d the last component), in every RK4 stage and in
P's solve: the projection removes the gradient i*kd*fft(u_d^2) that the
trace adds, and pressure_poisson adds its divergence back.  The
self-advection of a sampled state, which P's solve starts from, is the
next step's first RK4 stage, computed once; a state whose P is never read
computes it there, and the two step to the same bytes.  The model
pressure is not band-limited, so its advection stays convective and its
RK4 runs on the Fourier coefficients.  Its physical samples are computed
only when read (a checkpoint), not at every step.

A stage of u inverse-transforms its stage spectrum and transforms its
trace-free products back, and a stage of P_model inverse-transforms
grad P and transforms u0.grad P back.  step and evolve_pressure_model
step one side alone with spectral's own operators: _momentum_rhs
(self_advect_hat, then the projection and the viscous term) and one
spectral.advector per model step.  Below spectral's split size advance
runs both sides in each stage of one RK4 (_Advance, made once per run by
simulate, whose _stage method calls the kernels and the product calls
made with its work block): u's and grad P's inverses go in one ifft call,
the products and u0.grad P in the batches of one fft (spectral.batches),
and stage 1 also carries the source's transform.
On a larger grid every transform splits, so advance runs
evolve_pressure_model, then step.  Both paths keep each side's order of
operations, so the bytes do not depend on which ran.  A model-pressure
step plus a step make 59
single-component transforms in 3D and 34 in 2D, 54 and 32 from a sampled
state; at n=64 an unsampled state's take 25 fft and 18 ifft calls in 3D,
and 4 and 7 in 2D through advance (9 and 10 for evolve_pressure_model
and step on their own).  A sample whose kinetic energy grows past the
previous sample's by more than ENERGY_GROWTH_RTOL ends the run as a
divergence: an unforced flow only loses energy.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .energy import (
    DEGENERATE_NORM,
    MATERIAL_DERIVATIVE_MODES,
    MODEL_RHS,
    BlowupState,
    NormSample,
    NormSeries,
    material_derivative,
    norm_E_squared,
)
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    RegimeError,
    check_rules,
    check_types,
    nonnegative,
    one_of,
    positive,
)
from .flow import (
    FlowState,
    ThermoParams,
    kinetic_energy,
    pressure_poisson,  # re-exported as penflow.solver.pressure_poisson
    pressure_source,
    regime_check,
)
from .spectral import (
    TWO_PI,
    GridSpec,
    Product,
    RealField,
    advection_products,
    advector,
    batches,
    check_field,
    convection_product,
    fft,
    half_wavenumbers,
    ifft,
    integrate,
    on_slabs,
    parseval_sum,
    product_calls,
    project_hat,
    real_view,
    self_advect_hat,
    self_advect_width,
    sobolev_norm,
    splits,
)

IC_KINDS = ("taylor_green_2d", "taylor_green_3d", "random_divfree")

# long-time accumulator limit of the shipped Taylor-Green baseline (~47.8),
# times ten
DEFAULT_BLOWUP_THRESHOLD = 478.0

# the relative growth of the kinetic energy from one sample to the next
# that a run allows before it ends as a divergence (_diagnose).  An
# unforced flow only loses energy; RK4's own error gained at most 1.1e-9
# per step at mu = 1e-12 and the full CFL step, and the shipped workloads
# lose at least 1.2e-3 per sample
ENERGY_GROWTH_RTOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    cfl_safety: float = 0.5

    def __post_init__(self):
        check_types(self)
        check_rules(
            positive("dt", self.dt),
            nonnegative("t_end", self.t_end),
            ("cfl_safety", 0 < self.cfl_safety <= 1, "cfl_safety must lie in (0, 1]"),
        )


@dataclass(frozen=True)
class InitialCondition:
    kind: str = "taylor_green_2d"
    amplitude: float = 1.0
    seed: int = 0
    spectrum_peak: int = 4

    def __post_init__(self):
        check_types(self)
        check_rules(
            one_of("kind", self.kind, IC_KINDS),
            ("amplitude", math.isfinite(self.amplitude), "amplitude must be finite"),
            ("seed", self.seed >= 0, "seed must be >= 0"),
            ("spectrum_peak", self.spectrum_peak >= 1, "spectrum_peak must be >= 1"),
        )


def _kind_fits_grid(ic: InitialCondition, grid: GridSpec):
    """The rule that a Taylor-Green kind fixes the grid dimension."""
    dim = {"taylor_green_2d": 2, "taylor_green_3d": 3}.get(ic.kind, grid.dim)
    return ("kind", grid.dim == dim, f"{ic.kind} requires dim = {dim}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description.

    The solver's viscosity is thermo.nu, the mu/rho that Phi and the
    diagnostics use.  P0 is the only reference state; T0 follows from it.
    """

    grid: GridSpec = field(default_factory=lambda: GridSpec(dim=2, n=64))
    ic: InitialCondition = field(default_factory=InitialCondition)
    solver: SolverConfig = field(default_factory=SolverConfig)
    thermo: ThermoParams = field(default_factory=ThermoParams)
    P0: float = 101325.0
    mode: str = MODEL_RHS
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD
    output_every: int = 10
    output_dir: str = "runs/out"

    def __post_init__(self):
        check_types(self)
        check_rules(
            positive("P0", self.P0),
            one_of("mode", self.mode, MATERIAL_DERIVATIVE_MODES),
            nonnegative("blowup_threshold", self.blowup_threshold),
            ("output_every", self.output_every >= 1, "output_every must be >= 1"),
            (
                "Q",
                self.thermo.Q is None or self.thermo.Q.grid == self.grid,
                f"Q must be sampled on the scenario grid {self.grid}",
            ),
            _kind_fits_grid(self.ic, self.grid),
        )

    @property
    def T0(self) -> float:
        """Reference temperature of P0 by the ideal gas law, P0/(rho*R)."""
        return self.P0 / (self.thermo.rho * self.thermo.R)


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def make_initial(
    ic: InitialCondition, grid: GridSpec, params: ThermoParams | None = None
) -> FlowState:
    """Divergence-free, band-limited initial state at t = 0; its P is
    solved on first read.  Taylor-Green samples go through _band_limited;
    a random velocity is built in the band from its spectrum."""
    params = params if params is not None else ThermoParams()
    check_rules(_kind_fits_grid(ic, grid))
    if ic.kind == "random_divfree":
        u = _random_divfree(ic, grid)
    else:
        u = _band_limited(_taylor_green(ic.amplitude, grid), grid)
    return FlowState(0.0, u, params)


def _band_limited(u: np.ndarray, grid: GridSpec) -> RealField:
    """The velocity of samples u with its half spectrum zeroed outside the
    2/3 band, then projected; its samples are that spectrum's inverse.

    The one rule for a velocity that enters from samples.  Their transform
    leaves round-off in the modes outside the band, where only the viscous
    term acts, and RK4 amplifies it at every step once nu*|k|^2*dt passes
    2.785 at the corner mode (dt 0.0136 at 2D n=64).  Nothing else writes
    those modes, so once zeroed they stay 0.
    """
    u_hat = fft(u, grid)
    u_hat *= half_wavenumbers(grid).mask
    project_hat(u_hat, grid)
    return RealField(grid, ifft(u_hat, grid), u_hat)


def _taylor_green(amplitude: float, grid: GridSpec) -> np.ndarray:
    """A sin x cos y (cos z), -A cos x sin y (cos z) (and 0 in 3D).

    Built from the 1-D factors at the coordinates of GridSpec.coordinates,
    broadcast and multiplied left to right, so every sample is the product
    a meshgrid evaluation gives, bit for bit, for n sines and cosines
    instead of n**dim of each.
    """
    x = np.arange(grid.n) * grid.h
    sin, cos = np.sin(x), np.cos(x)

    def axis(f, j):
        # f along axis j of the grid
        return f.reshape((1,) * j + (grid.n,) + (1,) * (grid.dim - 1 - j))

    u = np.zeros((grid.dim,) + grid.shape)
    first = amplitude * axis(sin, 0) * axis(cos, 1)
    second = -amplitude * axis(cos, 0) * axis(sin, 1)
    if grid.dim == 3:
        first = first * axis(cos, 2)
        second = second * axis(cos, 2)
    u[0], u[1] = first, second
    return u


def _random_divfree(ic: InitialCondition, grid: GridSpec) -> RealField:
    """Band-limited Gaussian modes, solenoidally projected, rms = amplitude
    (by Parseval, on the spectrum); its samples are that spectrum's
    inverse, as _band_limited makes them."""
    rng = np.random.default_rng(ic.seed)
    raw = rng.standard_normal((grid.dim,) + grid.shape)
    w = half_wavenumbers(grid)
    kk = np.sqrt(w.ksq)
    envelope = np.exp(-((kk - ic.spectrum_peak) ** 2))
    envelope[kk == 0] = 0.0
    envelope *= w.mask
    u_hat = project_hat(fft(raw, grid) * envelope, grid)
    rms = math.sqrt(parseval_sum(u_hat, u_hat, grid) / TWO_PI**grid.dim)
    if rms > 0:
        u_hat *= ic.amplitude / rms
    return RealField(grid, ifft(u_hat, grid), u_hat)


def _viscous_and_sign(rhs, u_hat, nu_ksq, term) -> None:
    # rhs = -(rhs + nu*|k|^2*u_hat), one component at a time
    for c in range(len(rhs)):
        rhs[c] += np.multiply(nu_ksq, u_hat[c], out=term)
    np.negative(rhs, out=rhs)


def _project_viscous(
    rhs: np.ndarray,
    u_hat: np.ndarray,
    nu: float,
    grid: GridSpec,
    scratch: np.ndarray | None = None,
    nu_ksq: np.ndarray | None = None,
) -> np.ndarray:
    """rhs = -project(rhs) - nu*|k|^2*u_hat, in place, for the advection rhs
    of the velocity spectrum u_hat; returns rhs.

    scratch is a complex array of at least two components of u_hat's
    component shape, overwritten, which the projection and the viscous
    term share; allocated when not given.  nu_ksq is nu*|k|^2 when the
    caller holds it; it is computed into scratch otherwise.
    """
    if scratch is None:
        scratch = np.empty((2,) + u_hat.shape[1:], dtype=np.complex128)
    project_hat(rhs, grid, scratch=scratch)
    if nu_ksq is None:
        ksq = half_wavenumbers(grid).ksq
        nu_ksq = real_view(scratch[1], ksq.shape)
        on_slabs(grid, np.multiply, nu, ksq, nu_ksq)
    on_slabs(grid, _viscous_and_sign, rhs, u_hat, nu_ksq, scratch[0])
    return rhs


def _momentum_rhs(
    u_hat: np.ndarray,
    nu: float,
    grid: GridSpec,
    *,
    u: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """-project(u.grad u) - nu*|k|^2*u_hat of a velocity spectrum, in a new
    array: one stage of u's side alone.

    u and scratch are work arrays, overwritten and allocated when not
    given: u, the physical velocity of u_hat; scratch, a complex array of
    u_hat's component shape, which u's inverse, self_advect_hat, the
    projection and the viscous term share: at least as many components as
    u_hat and self_advect_width(grid).
    """
    tmp = None if scratch is None else scratch[: len(u_hat)]
    u = ifft(u_hat, grid, out=u, scratch=tmp)
    rhs = self_advect_hat(u, grid, scratch=scratch)
    return _project_viscous(rhs, u_hat, nu, grid, scratch)


def effective_dt(state: FlowState, cfg: SolverConfig) -> float:
    """cfg.dt capped by the CFL condition cfl_safety*h/max|u|."""
    if state.umax == 0.0:
        return cfg.dt
    return min(cfg.dt, cfg.cfl_safety * state.grid.h / state.umax)


def _first_stage(acc, y, h, stage) -> None:
    # stage = y + h*acc
    np.multiply(acc, h, out=stage)
    stage += y


def _next_stage(k, acc, y, h, stage) -> None:
    # stage = y + h*k; acc += 2*k, k overwritten
    np.multiply(k, h, out=stage)
    k *= 2
    acc += k
    stage += y


def _last_stage(acc, k, y, h) -> None:
    # acc = y + h*(acc + k)
    acc += k
    acc *= h
    acc += y


def _rk4(
    f: Callable[[], list[np.ndarray]],
    ys: list[np.ndarray],
    f_ys: list[np.ndarray],
    stages: list[np.ndarray],
    dt: float,
    grid: GridSpec,
) -> list[np.ndarray]:
    """One classical RK4 step of dy/dt = f(y) for each y of ys; ys are only
    read.

    f() returns f at the stage inputs, which are built in the arrays
    stages, one per y; its results are each read before f is called again.
    f_ys are f(ys), the first stage, which the caller gives up.  The stages
    of each y are summed k1 + 2k2 + 2k3 + k4, in that order, into its f_y,
    which becomes its result, so only one stage is alive besides those two.
    The updates run through spectral.on_slabs.
    """
    for acc, y, stage in zip(f_ys, ys, stages):
        on_slabs(grid, _first_stage, acc, y, 0.5 * dt, stage)
    for c in (0.5 * dt, dt):
        ks = f()
        for k, acc, y, stage in zip(ks, f_ys, ys, stages):
            on_slabs(grid, _next_stage, k, acc, y, c, stage)
        del ks, k  # not alive through the next stage
    for acc, k, y in zip(f_ys, f(), ys):
        on_slabs(grid, _last_stage, acc, k, y, dt / 6.0)
    return f_ys


def _dt(state: FlowState, cfg: SolverConfig, dt: float | None) -> float:
    # the step's dt: cfg's CFL-capped one when not given; positive, finite
    dt = effective_dt(state, cfg) if dt is None else dt
    check_rules(positive("dt", dt))
    return dt


def _new_state(state, u_hat, dt, scratch) -> FlowState:
    # the projected RK4 result as the state at t + dt
    grid = state.grid
    project_hat(u_hat, grid, scratch=scratch)
    u_new = RealField(grid, ifft(u_hat, grid, scratch=scratch[: grid.dim]), u_hat)
    return FlowState(state.t + dt, u_new, state.params)


def _new_model(state, p_hat, dt) -> RealField:
    # the model pressure's RK4 result; finite exactly when its samples are
    if not np.all(np.isfinite(p_hat)):
        raise DivergenceError(state.t + dt)
    return RealField.from_half_spectrum(state.grid, p_hat)


def step(state: FlowState, cfg: SolverConfig, dt: float | None = None) -> FlowState:
    """One RK4 step of the projected momentum equation; solves no pressure.

    u's side of advance, on its own.  The RK4 starts from the state's kept
    spectrum, its first stage from the state's self-advection (the one its
    P solve left, or one made from the physical u the state holds), and
    the new state takes the projected spectrum with it, so each velocity is
    transformed once.  The viscosity is the state's params.nu, mu/rho.
    dt, cfg's CFL-capped step when not given, must be positive and finite.
    Returns the new FlowState, which raises DivergenceError at the new time
    when its max |u| is NaN, Inf or above flow.MAX_SPEED.
    """
    grid = state.grid
    nu = state.params.nu
    dt = _dt(state, cfg, dt)
    u0_hat = state.u.half_spectrum()
    k1 = state.take_self_advection()
    if k1 is None:
        k1 = self_advect_hat(state.u.data, grid)
    k1 = _project_viscous(k1, u0_hat, nu, grid)
    # stages 2-4 share one physical velocity and one scratch, made once per
    # step: made per stage, these multi-MB arrays of a 3D n=64 step were
    # trimmed from the heap and faulted back in at every stage
    u_stage = np.empty(state.u.data.shape)
    width = max(grid.dim, self_advect_width(grid))
    scratch = np.empty((width,) + u0_hat.shape[1:], np.complex128)
    stage = np.empty_like(k1)

    def f() -> list[np.ndarray]:
        # a result per stage (self_advect_hat's): one kept through the step
        # raised a 3D n=64 run's peak RSS by 6 MB
        return [_momentum_rhs(stage, nu, grid, u=u_stage, scratch=scratch)]

    (u_hat,) = _rk4(f, [u0_hat], [k1], [stage], dt, grid)
    del stage, u_stage  # not alive through the new velocity's inverse
    return _new_state(state, u_hat, dt, scratch)


def evolve_pressure_model(
    state: FlowState, P_model: RealField, cfg: SolverConfig, dt: float | None = None
) -> RealField:
    """One RK4 step of dP/dt = -dealias(u.grad P) + (R/c_v)*(Phi + Q).

    P_model's side of advance, on its own.  P_model is a scalar on the
    state's grid (spectral.check_field).  u is frozen at the current
    solver state for the whole step; the source is pressure_source of the
    state's cached Phi, transformed once per step.  The stages run on the
    Fourier coefficients of P: they start from P_model.half_spectrum(), and
    the result is made from its own: finiteness is checked on the spectrum
    (a sample is non-finite exactly when a coefficient is, overflow aside),
    and the samples are computed only when something reads them.  dt,
    cfg's CFL-capped step when not given, must be positive and finite.
    """
    grid = state.grid
    check_field(grid, 1, P_model)
    dt = _dt(state, cfg, dt)
    s_hat = pressure_source(state.phi, state.params).half_spectrum()
    # the four stages share advect's work arrays, made once per step
    advect = advector(state.u.data, grid)

    def rhs(p_hat: np.ndarray) -> np.ndarray:
        k = advect(p_hat)
        return np.subtract(s_hat, k, out=k)

    p0_hat = P_model.half_spectrum()
    k1 = rhs(p0_hat)
    stage = np.empty_like(k1)

    def f() -> list[np.ndarray]:
        # a result per stage, as in step
        return [rhs(stage)]

    (p_hat,) = _rk4(f, [p0_hat], [k1], [stage], dt, grid)
    return _new_model(state, p_hat, dt)


def _copy(src, dst) -> None:
    np.copyto(dst, src)


class _Advance:
    """advance on one grid below the split size, for one ThermoParams: a
    step of (u, P_model) whose stages run both sides in one _stage.

    A stage of u inverse-transforms its stage spectrum and transforms its
    trace-free products back, and a stage of P_model inverse-transforms
    grad P and transforms u0.grad P back: _stage puts the inverses in one
    ifft call and the products in the batches of one fft where they fit.
    The work arrays are one block, and the product calls are made with it
    once, when the instance is made: simulate makes one per run, and each
    step copies its inputs into the block.  Remade at every step, the calls
    cost about what sharing the transform calls saves at 2D n=64, and a
    block made at every step raised a baseline run's peak RSS by 1.8 MB,
    against 0.8 MB for one kept through the run.

    Stage 1 starts from the state: u's samples are the state's, and its
    self-advection is the one P's solve kept, or is computed beside u0.grad
    P; the source's transform joins that stage's forward batch.  The block
    holds P's and u's stage spectra; grad P's spectrum beside u's, for
    their inverse (one ifft call where both fit in a batch of
    spectral.batches); the inverse's scratch, which then holds the
    products, a term and the projection's scratch; the samples u and
    grad P; the frozen velocity u0 and the source's samples; the stages'
    results; the source's spectrum; and the product spectra.
    """

    def __init__(self, grid: GridSpec, params: ThermoParams):
        dim = grid.dim
        self.grid, self.params = grid, params
        # the largest forward batch: of stage 1's trace-free products,
        # u0.grad P and the source
        width = len(batches(list(range(dim * (dim + 1) // 2 + 1)), grid)[0])
        spectrum = grid.shape[:-1] + (grid.n // 2 + 1,)
        # the inverse's scratch also holds a forward batch's products
        t = max(2 * dim, width)
        block = np.empty((4 + 6 * dim + t + width,) + spectrum, np.complex128)
        self.p_stage, self.k_p, self.s_hat = block[0:1], block[1:2], block[2:3]
        hats = block[3 : 3 + 2 * dim]
        self.u_stage, self.g_hat = hats[:dim], hats[dim:]
        tmp, rest = block[3 + 2 * dim : 3 + 2 * dim + t], block[3 + 2 * dim + t :]
        samples = real_view(rest[: 2 * dim], (2 * dim,) + grid.shape)
        inputs = real_view(rest[2 * dim : 3 * dim + 1], (dim + 1,) + grid.shape)
        self.k_u = rest[3 * dim + 1 : 4 * dim + 1]
        spectra = rest[4 * dim + 1 :]
        self.grad = samples[dim:]
        self.u0, self.source = inputs[:dim], inputs[dim]
        self.tmp = tmp
        # nu*|k|^2, which a stage would otherwise compute again
        w = half_wavenumbers(grid)
        self.ikd, self.nu_ksq = w.ikd, params.nu * w.ksq
        # the inverses of stages 2-4: u's and grad P's spectra, in as few
        # calls as batches allows
        self.inverses = []
        for group in batches([0, 1], grid, width=dim):
            s = slice(group[0] * dim, (group[-1] + 1) * dim)
            self.inverses.append((hats[s], samples[s], tmp[s]))
        # the product calls: a forward batch's products and spectra, and the
        # self-advection's scratch u_d^2 and term
        real = real_view(tmp, (width,) + grid.shape)
        ud_sq, term = real_view(spectra[0], grid.shape), tmp[0]
        source = Product((_copy, self.source), (_copy, self.s_hat[0]))
        model = convection_product(self.u0, self.grad, grid, self.k_p)
        u0_uu = advection_products(self.u0, grid, self.k_u, ud_sq, term)
        uu = advection_products(samples[:dim], grid, self.k_u, ud_sq, term)
        self.first_calls = product_calls([source, *u0_uu, model], grid, real, spectra)
        self.alone_calls = product_calls([source, model], grid, real, spectra)
        self.later_calls = product_calls([*uu, model], grid, real, spectra)

    def _stage(self, products, inverses, momentum=True) -> list[np.ndarray]:
        """f at the stage spectra, [k_u, k_p]: products are the product
        calls of the stage's sides and inverses its ifft calls, (spectrum,
        samples, scratch) each; without momentum only P_model's side runs
        (k_u is not written)."""
        grid = self.grid
        if momentum:
            self.k_u.fill(0.0)
        on_slabs(grid, np.multiply, self.ikd, self.p_stage[0], self.g_hat)
        for h, x, t in inverses:
            ifft(h, grid, out=x, scratch=t)
        for call in products:
            call()
        if momentum:
            nu = self.params.nu
            _project_viscous(self.k_u, self.u_stage, nu, grid, self.tmp, self.nu_ksq)
        np.subtract(self.s_hat, self.k_p, out=self.k_p)
        return [self.k_u, self.k_p]

    def __call__(
        self, state: FlowState, P_model: RealField, dt: float
    ) -> tuple[FlowState, RealField]:
        grid = self.grid
        u0_hat, p0_hat = state.u.half_spectrum(), P_model.half_spectrum()
        np.copyto(self.source, pressure_source(state.phi, state.params).data[0])
        np.copyto(self.u0, state.u.data)
        np.copyto(self.p_stage, p0_hat)
        first = [(self.g_hat, self.grad, self.g_hat)]
        k1_u = state.take_self_advection()
        if k1_u is None:
            np.copyto(self.u_stage, u0_hat)
            k1_u = self._stage(self.first_calls, first)[0].copy()
        else:
            self._stage(self.alone_calls, first, momentum=False)
            _project_viscous(k1_u, u0_hat, self.params.nu, grid, self.tmp, self.nu_ksq)
        k1_p = self.k_p.copy()
        u_hat, p_hat = _rk4(
            partial(self._stage, self.later_calls, self.inverses),
            [u0_hat, p0_hat],
            [k1_u, k1_p],
            [self.u_stage, self.p_stage],
            dt,
            grid,
        )
        P_new = _new_model(state, p_hat, dt)
        return _new_state(state, u_hat, dt, self.tmp), P_new


def advance(
    state: FlowState, P_model: RealField, cfg: SolverConfig, dt: float | None = None
) -> tuple[FlowState, RealField]:
    """One classical RK4 step of (u, P_model): the state and the model
    pressure at t + dt, as step and evolve_pressure_model make them.

    The model pressure's stages read u frozen at the state, so the two
    sides share nothing but their stage loop.  On a grid below
    spectral._SPLIT_MIN_SAMPLES points (spectral.splits) each stage runs
    both sides in one _stage (_Advance): u's inverse and grad P's go in
    one ifft call, and the trace-free products and u0.grad P in the
    batches of one forward, so an unsampled 2D n=64 step makes 4 fft and 7
    ifft calls, against 9 and 10.  On a larger grid every transform
    splits, so there is no call to share, and interleaving would keep P's
    RK4 arrays alive through u's stages: P_model's stages run first, then
    u's, in evolve_pressure_model's and step's own arrays.  Either way
    every result is theirs bit for bit: each side's stages keep their
    order of operations.  dt, cfg's CFL-capped step when not given, must
    be positive and finite.
    """
    grid = state.grid
    check_field(grid, 1, P_model)
    dt = _dt(state, cfg, dt)
    if splits(grid):
        P_new = evolve_pressure_model(state, P_model, cfg, dt)
        return step(state, cfg, dt), P_new
    return _Advance(grid, state.params)(state, P_model, dt)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


@dataclass
class RunSample:
    """One output sample emitted by simulate()."""

    index: int
    state: FlowState
    p_model: RealField
    dtp: RealField
    sample: NormSample


def _diagnose(
    cfg: ScenarioConfig,
    state: FlowState,
    P_prev: RealField | None,
    dt_step: float,
    ke_prev: float | None = None,
) -> tuple[RealField, NormSample]:
    """D_tP and the diagnostics on the Navier-Stokes-consistent pressure.

    ke_prev is the previous sample's kinetic energy: an unforced flow only
    loses energy, so a kinetic energy above ke_prev*(1 + ENERGY_GROWTH_RTOL)
    raises DivergenceError at the state's time, before the pressure is
    solved.

    Without P_prev (model_rhs mode, and the first sample of a
    finite_difference run, which has no snapshot yet) D_tP is the source
    pressure_source (R/c_v)*(Phi + Q) of the state's cached Phi, as
    material_derivative defines it; the gradient energy, integral Phi
    dx/(2*mu), comes from the same Phi.  The source is transformed once,
    for both of its sums, and the sample keeps its samples only.  With
    P_prev (finite_difference mode), the pressure of the state one step
    earlier, D_tP is material_derivative's, made from its spectrum: its
    samples wait for a reader.  Every norm but the kinetic energy is a
    Parseval sum over a half spectrum.
    """
    params = state.params
    ke = kinetic_energy(state.u)
    if ke_prev is not None and ke > ke_prev * (1.0 + ENERGY_GROWTH_RTOL):
        raise DivergenceError(state.t)
    ge = integrate(state.phi) / (2.0 * params.mu)
    h2_norm_P = sobolev_norm(state.P, 2)
    try:
        regime = regime_check(state.P, params, P0=cfg.P0, h2_norm=h2_norm_P)
    except RegimeError as exc:
        raise RegimeError(str(exc), time=state.t) from exc
    # D_tP comes last: with the source's spectrum made before P's sums and
    # the regime check, a 3D n=64 run's peak RSS rose by 4 MB
    if P_prev is None:
        dtp = pressure_source(state.phi, params)
        spectral_dtp = RealField(dtp.grid, dtp.data, dtp.half_spectrum())
    else:
        dtp = spectral_dtp = material_derivative(
            P_prev, state.P, state.u, dt_step, cfg.mode, params
        )
    total, dtp_term, lap_term = norm_E_squared(state.P, spectral_dtp)
    sample = NormSample(
        t=state.t,
        norm_E_sq=total,
        dtP_term=dtp_term,
        lap_term=lap_term,
        grad_energy=ge,
        ratio=ge / total if total > DEGENERATE_NORM else None,
        kinetic_energy=ke,
        h2_norm_P=h2_norm_P,
        hminus1_norm_dtP=sobolev_norm(spectral_dtp, -1),
        regime=regime,
    )
    return dtp, sample


def simulate(cfg: ScenarioConfig) -> Iterator[RunSample]:
    """Yield diagnostics at t=0 and every output_every steps until t_end.

    Raises DivergenceError when a state's max |u| is NaN, Inf or above
    flow.MAX_SPEED (FlowState; the initial state's too, at t = 0), when the
    model pressure turns non-finite, or when a sample's kinetic energy
    grows past the previous sample's (_diagnose), and RegimeError, with
    the sampled state's time, when a sample finds the total pressure
    nonpositive.
    """
    state = make_initial(cfg.ic, cfg.grid, cfg.thermo)
    p_model = state.P
    rs = RunSample(0, state, p_model, *_diagnose(cfg, state, None, cfg.solver.dt))
    ke = rs.sample.kinetic_energy
    yield rs
    del rs  # the sample is not held through the next steps

    # below the split size one _Advance serves every step of the run
    together = None if splits(cfg.grid) else _Advance(cfg.grid, cfg.thermo)
    t_end = cfg.solver.t_end
    # t_end less a tolerance for the rounding of t: the run ends at the
    # first state that reaches it
    t_last = t_end - 1e-12
    step_idx = 0
    while state.t < t_last:
        dt = min(effective_dt(state, cfg.solver), t_end - state.t)
        step_idx += 1
        # the step computes t + dt, this same float
        sampled = step_idx % cfg.output_every == 0 or state.t + dt >= t_last
        # only a finite_difference sample reads the previous pressure,
        # solved before the step so that the step takes that solve's
        # self-advection; the previous state itself is not held
        P_prev = state.P if sampled and cfg.mode != MODEL_RHS else None
        if together is None:
            # advance's order, written out so that the old model pressure
            # is dropped before u's stages: held through them, it raised
            # the 3D n=64 peak RSS by 2.2 MB
            p_model = evolve_pressure_model(state, p_model, cfg.solver, dt=dt)
            state = step(state, cfg.solver, dt=dt)
        else:
            state, p_model = together(state, p_model, dt)
        if sampled:
            rs = RunSample(
                step_idx, state, p_model, *_diagnose(cfg, state, P_prev, dt, ke)
            )
            ke = rs.sample.kinetic_energy
            yield rs
            del rs


def until_end(record, samples: Iterator) -> Iterator:
    """Yield from samples until a DivergenceError or a RegimeError ends
    them, recording its time on record as diverged_at or regime_exit_at.

    The one place where either error becomes an outcome of a run.
    """
    try:
        yield from samples
    except DivergenceError as exc:
        record.diverged_at = exc.time
    except RegimeError as exc:
        record.regime_exit_at = exc.time


def run(
    cfg: ScenarioConfig,
    on_sample: Callable[[RunSample], None] | None = None,
) -> NormSeries:
    """Integrate to t_end, divergence or a regime exit, collecting the series.

    A divergence or a regime exit ends the run through until_end, with its
    time recorded on the series (diverged_at, regime_exit_at) and the
    samples before it kept.
    """
    series = NormSeries(
        scenario=cfg, blowup=BlowupState(threshold=cfg.blowup_threshold)
    )
    # simulate is looked up at call time: perfbench/child.py replaces it
    for rs in until_end(series, simulate(cfg)):
        series.append(rs.sample)
        if on_sample is not None:
            on_sample(rs)
        # the sample's state must not stay alive through the next steps
        del rs
    return series


# ---------------------------------------------------------------------------
# checkpoint format: "PEM1" | dim u32 | n u32 | components u32 | time f64,
# little-endian, then float64 samples in row-major order
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"PEM1"
_HEADER = struct.Struct("<4sIIId")


def save_checkpoint(path, f: RealField, time: float) -> None:
    grid = f.grid
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(CHECKPOINT_MAGIC, grid.dim, grid.n, f.components, time)
        )
        # from the array's own buffer: a tobytes() copy of a 3D n=64 u is 6.3 MB
        fh.write(np.ascontiguousarray(f.data, dtype="<f8"))


def load_checkpoint(path) -> tuple[RealField, float]:
    """The field and time save_checkpoint wrote to path.

    Raises DataError, naming path, for a file that is not one checkpoint: a
    bad magic, a header that names no grid or no component, or samples
    that stop short of the header's count or run past it.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"truncated checkpoint {path}")
        magic, dim, n, components, time = _HEADER.unpack(header)
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"bad checkpoint magic in {path}")
        try:
            grid = GridSpec(dim=dim, n=n)
        except ConfigError as exc:
            raise DataError(f"checkpoint {path} names no grid: {exc}") from exc
        if components == 0:
            raise DataError(f"checkpoint {path} names no component")
        size = components * n**dim * 8
        stored = os.fstat(fh.fileno()).st_size - _HEADER.size
        if stored != size:
            problem = "truncated" if stored < size else "trailing bytes after"
            raise DataError(f"{problem} checkpoint samples in {path}")
        data = np.frombuffer(fh.read(size), dtype="<f8")
    field_data = data.reshape((components,) + grid.shape).astype(np.float64)
    return RealField(grid, field_data), time
