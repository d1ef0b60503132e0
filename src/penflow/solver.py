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
computes it there, and the two step to the same bytes.  A model-pressure
step plus a step make 59 single-component transforms in 3D and 34 in 2D,
54 and 32 from a sampled state; at n=64 an unsampled state's take 25 fft
and 18 ifft calls in 3D and, with the small independent ones batched
(spectral.batches), 9 and 10 in 2D.  The model pressure is not
band-limited, so its advection stays convective and its RK4 runs on the
Fourier coefficients.  Its physical samples are computed only when read
(a checkpoint), not at every step.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
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
    GridSpec,
    RealField,
    advector,
    check_field,
    fft,
    half_wavenumbers,
    ifft,
    integrate,
    on_slabs,
    project_hat,
    real_view,
    self_advect_hat,
    self_advect_width,
    sobolev_norm,
)

IC_KINDS = ("taylor_green_2d", "taylor_green_3d", "random_divfree")

# long-time accumulator limit of the shipped Taylor-Green baseline (~47.8),
# times ten
DEFAULT_BLOWUP_THRESHOLD = 478.0


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


def _viscous_and_sign(rhs, u_hat, ksq, nu, nu_ksq, term) -> None:
    # rhs = -(rhs + nu*|k|^2*u_hat), one component at a time
    np.multiply(nu, ksq, out=nu_ksq)
    for c in range(len(rhs)):
        rhs[c] += np.multiply(nu_ksq, u_hat[c], out=term)
    np.negative(rhs, out=rhs)


def _momentum_rhs(
    u_hat: np.ndarray,
    nu: float,
    grid: GridSpec,
    advection: np.ndarray | None = None,
    *,
    u: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """-project(u.grad u) - nu*|k|^2*u_hat, in a new array.

    advection is self_advect_hat(ifft(u_hat)) in an array the caller gives
    up; the projection, the viscous term and the sign are folded into it,
    and it is the result.  It is computed when not given.  Its trace-free
    products leave out a gradient that the projection removes anyway.  u
    and scratch are work arrays, overwritten and allocated when not given:
    u, the physical velocity of that computation; scratch, a complex array
    of u_hat's component shape, which that computation, the projection and
    the viscous term share: as many components as u_hat and at least
    self_advect_width(grid), or two when advection is given.
    """
    if advection is None:
        tmp = None if scratch is None else scratch[: len(u_hat)]
        u = ifft(u_hat, grid, out=u, scratch=tmp)
        advection = self_advect_hat(u, grid, scratch=scratch)
    if scratch is None:
        scratch = np.empty((2,) + u_hat.shape[1:], dtype=np.complex128)
    rhs = project_hat(advection, grid, scratch=scratch)
    ksq = half_wavenumbers(grid).ksq
    nu_ksq = real_view(scratch[1], ksq.shape)
    on_slabs(grid, _viscous_and_sign, rhs, u_hat, ksq, nu, nu_ksq, scratch[0])
    return rhs


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
    f: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    f_y: np.ndarray,
    dt: float,
    grid: GridSpec,
) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(y); y is only read.

    f must return a new array, and f_y is f(y), the first stage, which
    the caller gives up.  Each stage input is built in one reused array,
    and the stages are summed k1 + 2k2 + 2k3 + k4, in that order, into f_y,
    which becomes the result, so only one stage is alive besides those two.
    The updates run through spectral.on_slabs.
    """
    stage = np.empty_like(f_y)
    on_slabs(grid, _first_stage, f_y, y, 0.5 * dt, stage)
    for c in (0.5 * dt, dt):
        k = f(stage)
        on_slabs(grid, _next_stage, k, f_y, y, c, stage)
        del k  # not alive through the next stage
    on_slabs(grid, _last_stage, f_y, f(stage), y, dt / 6.0)
    return f_y


def step(state: FlowState, cfg: SolverConfig, dt: float | None = None) -> FlowState:
    """One RK4 step of the projected momentum equation; solves no pressure.

    The RK4 starts from the state's kept spectrum, its first stage from the
    state's self-advection (the one its P solve left, or one made from the
    physical u the state holds), and the new state takes the projected
    spectrum with it, so each velocity is transformed once.  The viscosity
    is the state's params.nu, mu/rho.  dt, cfg's CFL-capped step when not
    given, must be positive and finite.  Returns the new FlowState, which
    raises DivergenceError at the new time when its max |u| is NaN, Inf or
    above flow.MAX_SPEED.
    """
    grid = state.grid
    nu = state.params.nu
    dt = effective_dt(state, cfg) if dt is None else dt
    check_rules(positive("dt", dt))
    u0_hat = state.u.half_spectrum()
    k1 = _momentum_rhs(u0_hat, nu, grid, advection=state.take_self_advection())
    # stages 2-4 share one physical velocity and one scratch, made once per
    # step: made per stage, these multi-MB arrays of a 3D n=64 step were
    # trimmed from the heap and faulted back in at every stage
    u_stage = np.empty(state.u.data.shape)
    width = max(grid.dim, self_advect_width(grid))
    scratch = np.empty((width,) + u0_hat.shape[1:], dtype=np.complex128)
    u_hat = _rk4(
        lambda uh: _momentum_rhs(uh, nu, grid, u=u_stage, scratch=scratch),
        u0_hat,
        k1,
        dt,
        grid,
    )
    del u_stage  # not alive through the new velocity's inverse
    project_hat(u_hat, grid, scratch=scratch)
    u_new = RealField(grid, ifft(u_hat, grid, scratch=scratch[: grid.dim]), u_hat)
    return FlowState(state.t + dt, u_new, state.params)


def evolve_pressure_model(
    state: FlowState, P_model: RealField, cfg: SolverConfig, dt: float | None = None
) -> RealField:
    """One RK4 step of dP/dt = -dealias(u.grad P) + (R/c_v)*(Phi + Q).

    P_model is a scalar on the state's grid (spectral.check_field).  u is
    frozen at the current solver state for the whole step; the source
    is pressure_source of the state's cached Phi, transformed once per
    step.  The stages run on the Fourier coefficients of P:
    they start from P_model.half_spectrum(), and the result is made from
    its own: finiteness is checked on the spectrum (a sample is non-finite
    exactly when a coefficient is, overflow aside), and the samples are
    computed only when something reads them.  dt, cfg's CFL-capped step
    when not given, must be positive and finite.
    """
    grid = state.grid
    check_field(grid, 1, P_model)
    dt = effective_dt(state, cfg) if dt is None else dt
    check_rules(positive("dt", dt))
    s_hat = pressure_source(state.phi, state.params).half_spectrum()
    # the four stages share advect's work arrays, made once per step
    advect = advector(state.u.data, grid)

    def rhs(ph: np.ndarray) -> np.ndarray:
        k = advect(ph)
        return np.subtract(s_hat, k, out=k)

    p0_hat = P_model.half_spectrum()
    p_hat = _rk4(rhs, p0_hat, rhs(p0_hat), dt, grid)
    if not np.all(np.isfinite(p_hat)):
        raise DivergenceError(state.t + dt)
    return RealField.from_half_spectrum(grid, p_hat)


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
    cfg: ScenarioConfig, state: FlowState, P_prev: RealField | None, dt_step: float
) -> tuple[RealField, NormSample]:
    """D_tP and the diagnostics on the Navier-Stokes-consistent pressure.

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
    ge = integrate(state.phi) / (2.0 * params.mu)
    h2_norm_P = sobolev_norm(state.P, 2)
    ke = kinetic_energy(state.u)
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
    flow.MAX_SPEED (FlowState; the initial state's too, at t = 0) or the
    model pressure turns non-finite, and RegimeError, with the sampled
    state's time, when a sample finds the total pressure nonpositive.
    """
    state = make_initial(cfg.ic, cfg.grid, cfg.thermo)
    p_model = state.P
    yield RunSample(0, state, p_model, *_diagnose(cfg, state, None, cfg.solver.dt))

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
        p_model = evolve_pressure_model(state, p_model, cfg.solver, dt=dt)
        state = step(state, cfg.solver, dt=dt)
        if sampled:
            yield RunSample(
                step_idx, state, p_model, *_diagnose(cfg, state, P_prev, dt)
            )


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
