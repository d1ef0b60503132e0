"""Pressure-energy functional diagnostics.

The squared pressure-energy norm

    ||P||_E^2 = integral ( [dP/dt + u.grad P]^2 + (lap P)^2 ) dx,

its inner product, the Sobolev building blocks for the Banach-space norm,
the dissipation-bound fit, the blow-up accumulator, and the variational
residual against static Fourier test modes.

The norm, the inner product and the residual are one Parseval form: the
bilinear sum (integral DtP1*DtP2 dx, integral lapP1*lapP2 dx) over half
spectra (_e_terms).  ||P||_E^2 is its diagonal, <.,.>_E the sum of its
two terms, and the residual that sum against each test pair (phi,
u.grad phi); none of them reads a sample of P or DtP.

Each function checks its field arguments by the one rule on fields,
spectral.check_field: P, DtP and the test fields are scalars, and u has
one component per dimension, all on P's grid.  Its scalar arguments (a
time step, a mode) obey the configuration's rules, errors.positive and
errors.one_of, with the same messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DataError, check_rules, one_of, positive
from .flow import (
    RegimeReport,
    ThermoParams,
    dissipation_phi,
    pressure_source,
)
from .spectral import (
    GridSpec,
    RealField,
    advector,
    check_field,
    fft,
    half_wavenumbers,
    parseval_sum,
    sobolev_norm,
)

FINITE_DIFFERENCE = "finite_difference"
MODEL_RHS = "model_rhs"
MATERIAL_DERIVATIVE_MODES = (FINITE_DIFFERENCE, MODEL_RHS)

# a sample with ||P||_E^2 at or below this has no ratio (solver._diagnose),
# so bound_check leaves it out
DEGENERATE_NORM = 1e-14


@dataclass(frozen=True)
class NormSample:
    """All diagnostics recorded at one output time."""

    t: float
    norm_E_sq: float
    dtP_term: float
    lap_term: float
    grad_energy: float
    ratio: float | None
    kinetic_energy: float
    h2_norm_P: float
    hminus1_norm_dtP: float
    regime: RegimeReport


@dataclass(frozen=True)
class BlowupState:
    """Running time-integral of ||P||_E^2 with a latching threshold trip."""

    threshold: float
    accumulator: float = 0.0
    tripped: bool = False


@dataclass(frozen=True)
class BoundFit:
    """Empirical dissipation-bound constant: grad_energy <= C * ||P||_E^2."""

    c_fit: float | None
    c_max: float | None
    samples_used: int


class NormSeries:
    """Time-ordered diagnostic record of one run."""

    def __init__(self, scenario=None, blowup: BlowupState | None = None):
        self.scenario = scenario
        self.samples: list[NormSample] = []
        self.blowup = blowup if blowup is not None else BlowupState(threshold=math.inf)
        self.blowup_history: list[BlowupState] = []
        self.diverged_at: float | None = None
        self.regime_exit_at: float | None = None

    def append(self, sample: NormSample) -> None:
        if self.samples and sample.t <= self.samples[-1].t:
            raise DataError("sample timestamps must be strictly increasing")
        if self.samples:
            dt = sample.t - self.samples[-1].t
            self.blowup = blowup_update(self.blowup, sample, dt)
        self.samples.append(sample)
        self.blowup_history.append(self.blowup)

    @property
    def bound(self) -> BoundFit | None:
        """bound_check of the samples so far; a series without one has none."""
        return bound_check(self) if self.samples else None

    @property
    def tripped(self) -> bool:
        return self.blowup.tripped

    def __len__(self) -> int:
        return len(self.samples)


def material_derivative(
    P_prev: RealField | None,
    P_curr: RealField,
    u: RealField,
    dt: float,
    mode: str,
    params: ThermoParams,
) -> RealField:
    """D_t P = dP/dt + u.grad P.

    finite_difference: the dealiased convective term plus the backward
    difference between snapshots, formed on their half spectra; the field
    is made from that spectrum alone, so its samples are computed only when
    something reads them.  model_rhs: substitutes the energy equation,
    pressure_source (R/c_v) * (Phi(u) + Q).  mode must be one of
    MATERIAL_DERIVATIVE_MODES, and in finite_difference dt positive and
    finite (errors.one_of, errors.positive), as in a configuration.
    """
    check_rules(one_of("mode", mode, MATERIAL_DERIVATIVE_MODES))
    check_field(P_curr.grid, P_curr.grid.dim, u)
    if mode == MODEL_RHS:
        return pressure_source(dissipation_phi(u, params), params)
    if P_prev is None:
        raise DataError("finite_difference mode needs the previous snapshot")
    check_rules(positive("dt", dt))
    check_field(P_curr.grid, 1, P_prev, P_curr)
    dtp_hat = np.subtract(P_curr.half_spectrum(), P_prev.half_spectrum())
    dtp_hat /= dt
    dtp_hat += convective_term(P_curr, u).half_spectrum()
    return RealField.from_half_spectrum(P_curr.grid, dtp_hat)


def convective_term(P: RealField, u: RealField) -> RealField:
    """dealias(u.grad P), derivatives taken spectrally.

    Made from its spectrum alone: its samples wait for a read.
    """
    grid = P.grid
    check_field(grid, 1, P)
    check_field(grid, grid.dim, u)
    return RealField.from_half_spectrum(grid, advector(u.data, grid)(P.half_spectrum()))


def _e_terms(
    grid: GridSpec, p1: np.ndarray, dtp1: np.ndarray, p2: np.ndarray, dtp2: np.ndarray
) -> tuple[float, float]:
    """(integral DtP1*DtP2 dx, integral lapP1*lapP2 dx) from the half spectra
    of P1, DtP1, P2 and DtP2: Parseval sums, the second weighted by |k|^4."""
    ksq = half_wavenumbers(grid).ksq
    return parseval_sum(dtp1, dtp2, grid), parseval_sum(p1, p2, grid, ksq * ksq)


def norm_E_squared(P: RealField, DtP: RealField) -> tuple[float, float, float]:
    """(total, integral (DtP)^2 dx, integral (lap P)^2 dx), the diagonal of
    the E-form; neither field's samples are read."""
    check_field(P.grid, 1, P, DtP)
    p_hat, dtp_hat = P.half_spectrum(), DtP.half_spectrum()
    dtp_term, lap_term = _e_terms(P.grid, p_hat, dtp_hat, p_hat, dtp_hat)
    return dtp_term + lap_term, dtp_term, lap_term


def inner_product_E(
    P1: RealField, DtP1: RealField, P2: RealField, DtP2: RealField
) -> float:
    """integral (DtP1*DtP2 + lapP1*lapP2) dx; symmetric and bilinear.

    The sum of the E-form's two terms; no field's samples are read.
    """
    check_field(P1.grid, 1, P1, DtP1, P2, DtP2)
    spectra = [f.half_spectrum() for f in (P1, DtP1, P2, DtP2)]
    return sum(_e_terms(P1.grid, *spectra))


def norm_B(samples: Sequence[tuple[RealField, RealField]], dt: float) -> float:
    """Time-aggregated Banach norm: L2(0,T;H2) of P plus L2(0,T;H-1) of dtP.

    Both time integrals use the trapezoidal rule on uniformly spaced
    samples, dt apart: dt must be positive and finite (errors.positive).
    """
    if len(samples) < 2:
        raise DataError("norm_B needs at least two samples")
    check_rules(positive("dt", dt))
    h2_sq = [sobolev_norm(p, 2) ** 2 for p, _ in samples]
    hm1_sq = [sobolev_norm(dtp, -1) ** 2 for _, dtp in samples]
    return float(
        np.sqrt(np.trapezoid(h2_sq, dx=dt)) + np.sqrt(np.trapezoid(hm1_sq, dx=dt))
    )


def bound_check(series: NormSeries) -> BoundFit:
    """Fit grad_energy <= C * ||P||_E^2 over a run.

    c_max is the worst pointwise ratio, c_fit the least-squares slope
    through the origin; a degenerate sample, whose ratio is None (its
    ||P||_E^2 at most DEGENERATE_NORM), is excluded.
    """
    if not series.samples:
        raise DataError("bound_check needs a nonempty series")
    used = [s for s in series.samples if s.ratio is not None]
    if not used:
        return BoundFit(c_fit=None, c_max=None, samples_used=0)
    xs = np.array([s.norm_E_sq for s in used])
    ys = np.array([s.grad_energy for s in used])
    c_max = float(max(s.ratio for s in used))
    c_fit = float(np.dot(xs, ys) / np.dot(xs, xs))
    return BoundFit(c_fit=c_fit, c_max=c_max, samples_used=len(used))


def blowup_update(state: BlowupState, sample: NormSample, dt: float) -> BlowupState:
    """accumulator += ||P||_E^2 * dt; the trip latches and never unlatches.

    dt must be positive and finite (errors.positive): a NaN accumulator
    could never trip.
    """
    check_rules(positive("dt", dt))
    acc = state.accumulator + sample.norm_E_sq * dt
    return replace(state, accumulator=acc, tripped=state.tripped or acc > state.threshold)


def variational_residual(
    P: RealField,
    DtP: RealField,
    u: RealField,
    test_modes: Sequence[Sequence[int]],
) -> list[float]:
    """Residual of the weak form against static test modes phi = cos(k.x).

    The test function is advected with the flow, D_t phi = u.grad phi, and
    each residual is inner_product_E(P, DtP, phi, D_t phi), P's and DtP's
    spectra taken once for all modes and their samples not read.  Each mode
    must have grid.dim integer entries inside the dealiased band |k_j| <=
    n/3; one ConfigError names every mode that breaks one of these rules.
    """
    grid = P.grid
    check_field(grid, 1, P, DtP)
    check_field(grid, grid.dim, u)
    check_rules(
        *(
            ("test_modes", passed, f"test mode {tuple(kvec)} {problem}")
            for kvec in test_modes
            for passed, problem in [
                (all(float(k).is_integer() for k in kvec), "has a non-integer entry"),
                (len(kvec) == grid.dim, "has wrong dimension"),
                (all(abs(k) <= grid.n / 3 for k in kvec), "outside the resolved band"),
            ]
        )
    )
    p_hat, dtp_hat = P.half_spectrum(), DtP.half_spectrum()
    coords = grid.coordinates()
    out = []
    for kvec in test_modes:
        phase = sum(k * x for k, x in zip(kvec, coords))[np.newaxis]
        sin_phase = np.sin(phase)
        dt_phi = sum(-k * u.data[j] * sin_phase for j, k in enumerate(kvec))
        phi_hat, dt_phi_hat = fft(np.cos(phase), grid), fft(dt_phi, grid)
        out.append(sum(_e_terms(grid, p_hat, dtp_hat, phi_hat, dt_phi_hat)))
    return out
