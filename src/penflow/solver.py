"""RK4 pseudo-spectral time integration on the periodic box.

Advances the incompressible momentum equation with Leray projection at
every substage and, through the same RK4 routine, the model pressure driven
by the energy equation dP/dt + u.grad P = (R/c_v)*(Phi + Q).  One function,
flow.pressure_source, holds that source; it is also D_tP, Q included, in
model_rhs diagnostics and at the first sample of a finite_difference run,
where the sample transforms it once and hands it, spectrum and all, to the
next model-pressure step.
The Navier-Stokes pressure is FlowState.P, solved only where a sample (or,
in finite_difference mode, the step before one) reads it.  Velocity
self-advection is in divergence form (spectral.self_advect_hat); the model
pressure is not band-limited, so its advection stays convective and its RK4
runs on the Fourier coefficients, one inverse transform per step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .energy import (
    MATERIAL_DERIVATIVE_MODES,
    MODEL_RHS,
    BlowupState,
    NormSample,
    NormSeries,
    material_derivative,
    norm_E_squared,
)
from .errors import ArityError, DataError, DivergenceError, check_rules, check_types
from .flow import (
    FlowState,
    ThermoParams,
    kinetic_energy,
    leray_project,
    pressure_poisson,  # re-exported as penflow.solver.pressure_poisson
    pressure_source,
    regime_check,
)
from .spectral import (
    GridSpec,
    RealField,
    advect_hat,
    fft,
    half_wavenumbers,
    ifft,
    integrate,
    project_hat,
    self_advect_hat,
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
    nu: float = 0.1
    cfl_safety: float = 0.5

    def __post_init__(self):
        check_types(self)
        check_rules(
            ("dt", 0 < self.dt < math.inf, "dt must be positive and finite"),
            (
                "t_end",
                0 <= self.t_end < math.inf,
                "t_end must be nonnegative and finite",
            ),
            ("nu", 0 <= self.nu < math.inf, "nu must be nonnegative and finite"),
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
            ("kind", self.kind in IC_KINDS, f"kind must be one of {IC_KINDS}"),
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

    The solver viscosity must be the thermo mu/rho that Phi and the
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
        nu = self.solver.nu
        modes = MATERIAL_DERIVATIVE_MODES
        check_rules(
            ("P0", 0 < self.P0 < math.inf, "P0 must be positive and finite"),
            ("mode", self.mode in modes, f"mode must be one of {modes}"),
            (
                "blowup_threshold",
                0 <= self.blowup_threshold < math.inf,
                "blowup_threshold must be nonnegative and finite",
            ),
            ("output_every", self.output_every >= 1, "output_every must be >= 1"),
            (
                "nu",
                abs(nu - self.thermo.nu) <= 1e-12 * max(1.0, abs(nu)),
                f"nu must equal mu/rho = {self.thermo.nu!r}",
            ),
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

    @property
    def seed(self) -> int:
        return self.ic.seed


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def make_initial(
    ic: InitialCondition, grid: GridSpec, params: ThermoParams | None = None
) -> FlowState:
    """Divergence-free initial state at t = 0; its P is solved on first read."""
    params = params if params is not None else ThermoParams()
    check_rules(_kind_fits_grid(ic, grid))
    if ic.kind == "taylor_green_2d":
        x, y = grid.coordinates()
        u = np.stack(
            [
                ic.amplitude * np.sin(x) * np.cos(y),
                -ic.amplitude * np.cos(x) * np.sin(y),
            ]
        )
    elif ic.kind == "taylor_green_3d":
        x, y, z = grid.coordinates()
        u = np.stack(
            [
                ic.amplitude * np.sin(x) * np.cos(y) * np.cos(z),
                -ic.amplitude * np.cos(x) * np.sin(y) * np.cos(z),
                np.zeros(grid.shape),
            ]
        )
    else:
        u = _random_divfree(ic, grid)
    return FlowState(0.0, leray_project(RealField(grid, u)), params)


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


def _momentum_rhs(
    u_hat: np.ndarray, nu: float, grid: GridSpec, u: np.ndarray | None = None
) -> np.ndarray:
    """-project(u.grad u) - nu*|k|^2*u_hat, in a new array.

    u is ifft(u_hat); pass it when it is already at hand.  The viscous term
    and the sign are folded into the projected advection array.
    """
    if u is None:
        u = ifft(u_hat, grid)
    rhs = project_hat(self_advect_hat(u, grid), grid)
    nu_ksq = nu * half_wavenumbers(grid).ksq
    for c in range(grid.dim):
        rhs[c] += nu_ksq * u_hat[c]
    return np.negative(rhs, out=rhs)


def effective_dt(state: FlowState, cfg: SolverConfig) -> float:
    """cfg.dt capped by the CFL condition cfl_safety*h/max|u|."""
    umax = float(np.max(np.abs(state.u.data)))
    if umax == 0.0:
        return cfg.dt
    return min(cfg.dt, cfg.cfl_safety * state.grid.h / umax)


def _rk4(
    f: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    dt: float,
    f_y: np.ndarray | None = None,
) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(y); y is only read.

    f must return a new array.  f_y is f(y) when the caller already holds
    it.  Each stage input is built in one reused array, and the stages are
    summed k1 + 2k2 + 2k3 + k4, in that order, into one running array that
    becomes the result, so only one stage is alive besides those two.
    """
    acc = f(y) if f_y is None else f_y
    stage = np.multiply(acc, 0.5 * dt)
    for c in (0.5 * dt, dt):
        stage += y
        k = f(stage)
        np.multiply(k, c, out=stage)
        k *= 2
        acc += k
        del k  # not alive through the next stage
    stage += y
    acc += f(stage)
    acc *= dt / 6.0
    acc += y
    return acc


def step(state: FlowState, cfg: SolverConfig, dt: float | None = None) -> FlowState:
    """One RK4 step of the projected momentum equation; solves no pressure.

    The RK4 starts from the state's kept spectrum, its first stage from the
    physical u the state holds, and the new state takes the projected
    spectrum with it, so each velocity is transformed once.
    """
    grid = state.grid
    dt = effective_dt(state, cfg) if dt is None else dt
    u0_hat = state.u.half_spectrum()
    u_hat = _rk4(
        lambda uh: _momentum_rhs(uh, cfg.nu, grid),
        u0_hat,
        dt,
        f_y=_momentum_rhs(u0_hat, cfg.nu, grid, u=state.u.data),
    )
    project_hat(u_hat, grid)
    u_new = ifft(u_hat, grid)
    t_new = state.t + dt
    if not np.all(np.isfinite(u_new)) or np.max(np.abs(u_new)) > 1e100:
        raise DivergenceError(t_new)
    return FlowState(t_new, RealField(grid, u_new, u_hat), state.params)


def evolve_pressure_model(
    state: FlowState,
    P_model: RealField,
    cfg: SolverConfig,
    dt: float | None = None,
    source: RealField | None = None,
) -> RealField:
    """One RK4 step of dP/dt = -dealias(u.grad P) + (R/c_v)*(Phi + Q).

    u is frozen at the current solver state for the whole step; the source
    is pressure_source of the state's cached Phi.  Pass it as ``source``
    when it is already at hand (a model_rhs sample's D_tP): its
    half_spectrum() is used, so one that carries its spectrum is not
    transformed again.  The stages run on the Fourier coefficients of P:
    they start from P_model.half_spectrum(), and the result keeps its own.
    """
    grid = state.grid
    if not P_model.is_scalar:
        raise ArityError("P_model must be a scalar field")
    dt = effective_dt(state, cfg) if dt is None else dt
    if source is None:
        source = pressure_source(state.phi, state.params)
    s_hat = source.half_spectrum()
    p_hat = _rk4(
        lambda ph: s_hat - advect_hat(state.u.data, ph, grid),
        P_model.half_spectrum(),
        dt,
    )
    p_new = ifft(p_hat, grid)
    if not np.all(np.isfinite(p_new)):
        raise DivergenceError(state.t + dt)
    return RealField(grid, p_new, p_hat)


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


def _dtp_is_source(cfg: ScenarioConfig, prev: FlowState | None) -> bool:
    """Whether a sample's D_tP is pressure_source of its state.

    So it is in model_rhs mode, and at the first sample of a
    finite_difference run, which has no snapshot yet.
    """
    return cfg.mode == MODEL_RHS or prev is None


def _diagnose(
    cfg: ScenarioConfig,
    state: FlowState,
    prev: FlowState | None,
    dt_step: float,
) -> tuple[NormSample, RealField]:
    """Diagnostics on the Navier-Stokes-consistent pressure state.P.

    D_tP in model_rhs mode and the gradient energy both come from the
    state's cached Phi, as material_derivative and gradient_energy define
    them: pressure_source (R/c_v)*(Phi + Q) and integral Phi dx/(2*mu).
    That D_tP carries its half spectrum, which its H^-1 norm reads and the
    next model-pressure step may reuse.  Only finite_difference mode reads
    prev.P, the pressure of the state one step earlier.
    """
    params = state.params
    is_source = _dtp_is_source(cfg, prev)
    if is_source:
        dtp = pressure_source(state.phi, params)
    else:
        dtp = material_derivative(
            prev.P, state.P, state.u, dt_step, cfg.mode, params
        )
    total, dtp_term, lap_term = norm_E_squared(state.P, dtp)
    ge = integrate(state.phi) / (2.0 * params.mu)
    if is_source:
        # made after P's solve and the norms above: made before them, the
        # kept spectrum raised a 3D n=64 run's peak RSS by 4 MB (heap layout)
        dtp = RealField(state.grid, dtp.data, fft(dtp.data, state.grid))
    sample = NormSample(
        t=state.t,
        norm_E_sq=total,
        dtP_term=dtp_term,
        lap_term=lap_term,
        grad_energy=ge,
        ratio=ge / total if total > 1e-14 else None,
        kinetic_energy=kinetic_energy(state.u),
        h2_norm_P=sobolev_norm(state.P, 2),
        hminus1_norm_dtP=sobolev_norm(dtp, -1),
        regime=regime_check(state.P, params, cfg.T0),
    )
    return sample, dtp


def simulate(cfg: ScenarioConfig) -> Iterator[RunSample]:
    """Yield diagnostics at t=0 and every output_every steps until t_end.

    Raises DivergenceError on NaN/Inf.
    """
    state = make_initial(cfg.ic, cfg.grid, cfg.thermo)
    p_model = state.P

    sample, dtp = _diagnose(cfg, state, None, cfg.solver.dt)
    yield RunSample(0, state, p_model, dtp, sample)
    # a D_tP that is the source goes on to the next model-pressure step;
    # nothing else of a sample stays alive through the steps after it
    source = dtp
    del dtp

    t_end = cfg.solver.t_end
    step_idx = 0
    while state.t < t_end - 1e-12:
        dt = min(effective_dt(state, cfg.solver), t_end - state.t)
        # only finite_difference reads the previous state; holding it in
        # model_rhs mode would keep its arrays alive through the sample
        prev = None if cfg.mode == MODEL_RHS else state
        p_model = evolve_pressure_model(
            state, p_model, cfg.solver, dt=dt, source=source
        )
        source = None
        state = step(state, cfg.solver, dt=dt)
        step_idx += 1
        if step_idx % cfg.output_every == 0 or state.t >= t_end - 1e-12:
            sample, dtp = _diagnose(cfg, state, prev, dt)
            yield RunSample(step_idx, state, p_model, dtp, sample)
            source = dtp if _dtp_is_source(cfg, prev) else None
            del dtp


def run(
    cfg: ScenarioConfig,
    on_sample: Callable[[RunSample], None] | None = None,
) -> NormSeries:
    """Integrate to t_end (or divergence) and collect the diagnostic series."""
    series = NormSeries(
        scenario=cfg, blowup=BlowupState(threshold=cfg.blowup_threshold)
    )
    try:
        for rs in simulate(cfg):
            series.append(rs.sample)
            if on_sample is not None:
                on_sample(rs)
            # the sample's state must not stay alive through the next steps
            del rs
    except DivergenceError as exc:
        series.diverged_at = exc.time
    series.finalize()
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
        fh.write(np.ascontiguousarray(f.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[RealField, float]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"truncated checkpoint {path}")
        magic, dim, n, components, time = _HEADER.unpack(header)
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"bad checkpoint magic in {path}")
        grid = GridSpec(dim=dim, n=n)
        count = components * n**dim
        data = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
        field_data = data.reshape((components,) + grid.shape).astype(np.float64)
    return RealField(grid, field_data), time
