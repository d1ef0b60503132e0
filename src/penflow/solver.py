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

One stage implementation, _stage, serves advance, step and
evolve_pressure_model: a stage of u inverse-transforms its stage spectrum
and transforms its trace-free products back, and a stage of P_model
inverse-transforms grad P and transforms u0.grad P back.  Below
spectral's split size advance runs both sides in each stage of one RK4
(_Advance, made once per run by simulate): u's and grad P's inverses go
in one ifft call, the products and u0.grad P in the batches of one fft
(spectral.batches), and stage 1 also carries the source's transform.
On a larger grid every transform splits, so the sides run one after the
other, P_model's first, in their own arrays.  Either way each side's
stages keep their order of operations, so the bytes do not depend on
which path ran.  A model-pressure step plus a step make 59
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
from typing import Callable, Iterator, NamedTuple

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
    GridSpec,
    Product,
    RealField,
    advection_products,
    batches,
    check_field,
    convection_product,
    fft,
    half_wavenumbers,
    ifft,
    integrate,
    on_slabs,
    product_calls,
    project_hat,
    real_view,
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
    """Divergence-free, band-limited initial state at t = 0 (_band_limited);
    its P is solved on first read."""
    params = params if params is not None else ThermoParams()
    check_rules(_kind_fits_grid(ic, grid))
    if ic.kind in ("taylor_green_2d", "taylor_green_3d"):
        u = _taylor_green(ic.amplitude, grid)
    else:
        u = _random_divfree(ic, grid)
    return FlowState(0.0, _band_limited(u, grid), params)


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


def _random_divfree(ic: InitialCondition, grid: GridSpec) -> np.ndarray:
    """Band-limited Gaussian modes, solenoidally projected, rms = amplitude."""
    rng = np.random.default_rng(ic.seed)
    raw = rng.standard_normal((grid.dim,) + grid.shape)
    w = half_wavenumbers(grid)
    kk = np.sqrt(w.ksq)
    envelope = np.exp(-((kk - ic.spectrum_peak) ** 2))
    envelope[kk == 0] = 0.0
    envelope *= w.mask
    proj = ifft(project_hat(fft(raw, grid) * envelope, grid), grid)
    rms = np.sqrt(np.mean(np.sum(proj * proj, axis=0)))
    if rms > 0:
        proj = proj * (ic.amplitude / rms)
    return proj


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


def effective_dt(state: FlowState, cfg: SolverConfig) -> float:
    """cfg.dt capped by the CFL condition cfl_safety*h/max|u|."""
    if state.umax == 0.0:
        return cfg.dt
    return min(cfg.dt, cfg.cfl_safety * state.grid.h / state.umax)


# ---------------------------------------------------------------------------
# RK4 stages.  A stage of u and one of P_model each make one inverse and
# one forward transform: u's stage spectrum to u and its trace-free
# products back, P's gradient spectrum to grad P and u0.grad P back.
# _stage builds the calls of a stage of one side or of both.
# ---------------------------------------------------------------------------


class _Side(NamedTuple):
    """One side of an RK4 stage, as calls bound to its arrays: prepare runs
    before the stage's inverse transforms, the products' fills read their
    samples, and finish makes result, f at the side's stage spectrum."""

    prepare: list
    products: list[Product]
    finish: list
    result: np.ndarray | None


class _Products(NamedTuple):
    """A stage's forward products: a batch's real and spectra
    (spectral.product_calls), the self-advection's scratch ud_sq and term
    (spectral.advection_products), and scratch, at least two complex
    components for the momentum's projection and viscous term."""

    real: np.ndarray
    spectra: np.ndarray
    ud_sq: np.ndarray | None = None
    term: np.ndarray | None = None
    scratch: np.ndarray | None = None


def _momentum(
    grid, nu, stage, u, k, work: _Products, zero=True, nu_ksq=None
) -> _Side:
    """u's side: f(u_hat) = -project(u.grad u) - nu*|k|^2*u_hat into k.

    u is the samples of the stage spectrum `stage`, written by the stage's
    inverse transform (or the state's own at stage 1); the trace-free
    products of u add their divergence terms into k, which prepare zeroes
    unless zero is false (a new np.zeros array), and finish folds in the
    projection, the viscous term (nu_ksq, as _project_viscous takes it)
    and the sign.
    """
    return _Side(
        [partial(k.fill, 0.0)] if zero else [],
        advection_products(u, grid, k, work.ud_sq, work.term),
        [partial(_project_viscous, k, stage, nu, grid, work.scratch, nu_ksq)],
        k,
    )


def _model(grid, u0, s_hat, stage, g_hat, grad, k) -> _Side:
    """P_model's side: f(p_hat) = s_hat - dealias(fft(u0.grad P)) into k,
    with u0 frozen at the state.

    prepare writes the gradient spectrum of the stage spectrum `stage` into
    g_hat, which the stage's inverse transforms into grad; u0.grad P is
    dealiased into k, and finish subtracts it from the source's spectrum.
    """
    ikd = half_wavenumbers(grid).ikd
    return _Side(
        [partial(on_slabs, grid, np.multiply, ikd, stage[0], g_hat)],
        [convection_product(u0, grad, grid, k)],
        [partial(np.subtract, s_hat, k, out=k)],
        k,
    )


def _stage(
    grid: GridSpec, sides: list[_Side], inverses: list, work: _Products
) -> Callable[[], list[np.ndarray]]:
    """f at the sides' stage spectra, as one function of no argument.

    It runs each side's prepare, the inverse transforms, one ifft call per
    (spectrum, samples, scratch) of inverses, the forward transforms of
    all the sides' products in the batches of spectral.batches, and each
    side's finish, and returns the sides' results (a side whose result is
    None has none).  The one stage of step, evolve_pressure_model and
    advance: the calls are made here, and f only runs them.
    """
    calls = [c for side in sides for c in side.prepare]
    calls += [partial(ifft, h, grid, out=x, scratch=t) for h, x, t in inverses]
    products = [p for side in sides for p in side.products]
    calls += product_calls(products, grid, work.real, work.spectra)
    calls += [c for side in sides for c in side.finish]
    results = [side.result for side in sides if side.result is not None]

    def f() -> list[np.ndarray]:
        for call in calls:
            call()
        return results

    return f


def _advection_width(grid: GridSpec) -> int:
    # u's inverse scratch, then the self-advection's products and spectra
    return max(grid.dim, self_advect_width(grid))


def _momentum_work(grid: GridSpec, scratch: np.ndarray) -> _Products:
    """u's stage alone, in self_advect_hat's layout of scratch."""
    half = self_advect_width(grid) // 2
    return _Products(
        real=real_view(scratch[:half], (half,) + grid.shape),
        spectra=scratch[half : 2 * half],
        ud_sq=real_view(scratch[half], grid.shape),
        term=scratch[0],
        scratch=scratch,
    )


def _momentum_rhs(u_hat: np.ndarray, nu: float, grid: GridSpec) -> np.ndarray:
    """-project(u.grad u) - nu*|k|^2*u_hat of a velocity spectrum, in a new
    array: one stage of u's side alone, in arrays of its own."""
    u = np.empty((grid.dim,) + grid.shape)
    scratch = np.empty((_advection_width(grid),) + u_hat.shape[1:], np.complex128)
    work = _momentum_work(grid, scratch)
    side = _momentum(grid, nu, u_hat, u, np.empty_like(u_hat), work)
    return _stage(grid, [side], [(u_hat, u, scratch[: grid.dim])], work)()[0]


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
    k1 = _project_viscous(state.take_self_advection(), u0_hat, nu, grid)
    # stages 2-4 share one physical velocity and one scratch, made once per
    # step: made per stage, these multi-MB arrays of a 3D n=64 step were
    # trimmed from the heap and faulted back in at every stage
    u_stage = np.empty(state.u.data.shape)
    scratch = np.empty((_advection_width(grid),) + u0_hat.shape[1:], np.complex128)
    stage = np.empty_like(k1)
    work = _momentum_work(grid, scratch)
    inverses = [(stage, u_stage, scratch[: grid.dim])]

    def f() -> list[np.ndarray]:
        # a result per stage: one kept through the step raised a 3D n=64
        # run's peak RSS by 6 MB
        k = np.zeros(k1.shape, np.complex128)
        side = _momentum(grid, nu, stage, u_stage, k, work, zero=False)
        return _stage(grid, [side], inverses, work)()

    (u_hat,) = _rk4(f, [u0_hat], [k1], [stage], dt, grid)
    # the stage arrays are not alive through the new velocity's inverse
    del f, inverses, stage, u_stage
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
    # the stages share the gradient spectrum, its own inverse's scratch,
    # and the physical gradient, made once per step; the product and its
    # spectrum go into the gradient spectrum's memory
    g_hat = np.empty(half_wavenumbers(grid).ikd.shape, np.complex128)
    grad = np.empty((grid.dim,) + grid.shape)
    work = _Products(real_view(g_hat[0], (1,) + grid.shape), g_hat[1:2])
    inverses = [(g_hat, grad, g_hat)]
    u0 = state.u.data
    p0_hat = P_model.half_spectrum()
    k1 = np.empty_like(p0_hat)
    _stage(grid, [_model(grid, u0, s_hat, p0_hat, g_hat, grad, k1)], inverses, work)()
    stage = np.empty_like(k1)

    def f() -> list[np.ndarray]:
        # a result per stage, as in step
        side = _model(grid, u0, s_hat, stage, g_hat, grad, np.empty_like(k1))
        return _stage(grid, [side], inverses, work)()

    (p_hat,) = _rk4(f, [p0_hat], [k1], [stage], dt, grid)
    return _new_model(state, p_hat, dt)


def _copy(src, dst) -> None:
    np.copyto(dst, src)


def _source(samples: np.ndarray, s_hat: np.ndarray) -> _Side:
    """The source's forward transform, as a side with no result: its
    samples are copied into a forward batch and its spectrum into s_hat."""
    return _Side([], [Product((_copy, samples), (_copy, s_hat[0]))], [], None)


class _Advance:
    """advance on one grid below the split size, for one ThermoParams: a
    step of (u, P_model) whose stages run both sides in one _stage.

    The work arrays are one block, and the calls of the stages are made
    with it once, when the instance is made: simulate makes one per run,
    and each step copies its inputs into the block.  Remade at every step,
    the calls cost about what sharing the transform calls saves at 2D
    n=64, and a block made at every step raised a baseline run's peak RSS
    by 1.8 MB, against 0.8 MB for one kept through the run.

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
        nu = params.nu
        # the largest forward batch: of stage 1's trace-free products,
        # u0.grad P and the source
        width = len(batches(list(range(dim * (dim + 1) // 2 + 1)), grid)[0])
        spectrum = grid.shape[:-1] + (grid.n // 2 + 1,)
        # the inverse's scratch also holds a forward batch's products
        t = max(2 * dim, width)
        block = np.empty((4 + 6 * dim + t + width,) + spectrum, np.complex128)
        p_stage, k_p, s_hat = block[0:1], block[1:2], block[2:3]
        hats = block[3 : 3 + 2 * dim]
        u_stage, g_hat = hats[:dim], hats[dim:]
        tmp, rest = block[3 + 2 * dim : 3 + 2 * dim + t], block[3 + 2 * dim + t :]
        samples = real_view(rest[: 2 * dim], (2 * dim,) + grid.shape)
        inputs = real_view(rest[2 * dim : 3 * dim + 1], (dim + 1,) + grid.shape)
        k_u = rest[3 * dim + 1 : 4 * dim + 1]
        spectra = rest[4 * dim + 1 :]
        grad = samples[dim:]
        self.u0, self.source = inputs[:dim], inputs[dim]
        self.stages = [u_stage, p_stage]
        self.k, self.tmp = [k_u, k_p], tmp
        work = _Products(
            real=real_view(tmp, (width,) + grid.shape),
            spectra=spectra,
            ud_sq=real_view(spectra[0], grid.shape),
            term=tmp[0],
            scratch=tmp,
        )
        model = _model(grid, self.u0, s_hat, p_stage, g_hat, grad, k_p)
        source = _source(self.source, s_hat)
        first = [(g_hat, grad, g_hat)]
        self.first_alone = _stage(grid, [source, model], first, work)
        # nu*|k|^2, which a stage would otherwise compute again
        self.nu_ksq = nu * half_wavenumbers(grid).ksq
        u_first = _momentum(grid, nu, u_stage, self.u0, k_u, work, nu_ksq=self.nu_ksq)
        self.first = _stage(grid, [source, u_first, model], first, work)
        inverses = []
        for group in batches([0, 1], grid, width=dim):
            s = slice(group[0] * dim, (group[-1] + 1) * dim)
            inverses.append((hats[s], samples[s], tmp[s]))
        u_side = _momentum(
            grid, nu, u_stage, samples[:dim], k_u, work, nu_ksq=self.nu_ksq
        )
        self.f = _stage(grid, [u_side, model], inverses, work)

    def __call__(
        self, state: FlowState, P_model: RealField, dt: float
    ) -> tuple[FlowState, RealField]:
        grid = self.grid
        u_stage, p_stage = self.stages
        u0_hat, p0_hat = state.u.half_spectrum(), P_model.half_spectrum()
        np.copyto(self.source, pressure_source(state.phi, state.params).data[0])
        np.copyto(self.u0, state.u.data)
        np.copyto(p_stage, p0_hat)
        k1_u = state.take_self_advection(compute=False)
        if k1_u is None:
            np.copyto(u_stage, u0_hat)
            self.first()
            k1_u = self.k[0].copy()
        else:
            self.first_alone()
            _project_viscous(k1_u, u0_hat, self.params.nu, grid, self.tmp, self.nu_ksq)
        k1_p = self.k[1].copy()
        u_hat, p_hat = _rk4(
            self.f, [u0_hat, p0_hat], [k1_u, k1_p], self.stages, dt, grid
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
    batches of one forward, so an unsampled 2D n=64 step makes 5 fft and 7
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
