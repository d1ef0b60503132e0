"""Pressure-energy norm, inner product, blow-up accumulator, bound fit."""

from itertools import product

import numpy as np
import pytest

from penflow import (
    ArityError,
    BlowupState,
    ConfigError,
    DataError,
    FlowState,
    GridSpec,
    NormSample,
    NormSeries,
    RealField,
    RegimeReport,
    SolverConfig,
    ThermoParams,
    blowup_update,
    bound_check,
    dissipation_phi,
    evolve_pressure_model,
    gradient_energy,
    inner_product_E,
    integrate,
    kinetic_energy,
    l2_norm_sq,
    leray_project,
    material_derivative,
    norm_B,
    norm_E_squared,
    pressure_poisson,
    sobolev_norm,
    variational_residual,
)
from penflow.energy import FINITE_DIFFERENCE, MODEL_RHS, convective_term
from penflow.flow import pressure_source, velocity_gradients
from penflow.spectral import forward, half_wavenumbers, ifft, ksq

from conftest import smooth_scalar, smooth_vector
from test_flow import taylor_green

OK_REGIME = RegimeReport(0.0, True, 0.0)


def make_sample(t, norm_sq, grad=0.0):
    return NormSample(
        t=t,
        norm_E_sq=norm_sq,
        dtP_term=norm_sq,
        lap_term=0.0,
        grad_energy=grad,
        ratio=grad / norm_sq if norm_sq > 1e-14 else None,
        kinetic_energy=0.0,
        h2_norm_P=0.0,
        hminus1_norm_dtP=0.0,
        regime=OK_REGIME,
    )


class TestMaterialDerivative:
    def test_static_pressure(self, rng):
        g = GridSpec(2, 32)
        P = RealField(g, np.full(g.shape, 0.0))
        u = smooth_vector(g, rng)
        out = material_derivative(P, P, u, 0.1, FINITE_DIFFERENCE, ThermoParams())
        assert np.max(np.abs(out.data)) < 1e-12

    def test_pure_time_derivative(self, rng):
        g = GridSpec(2, 32)
        gfield = smooth_scalar(g, rng)
        dt = 0.05
        P_prev = RealField.zeros(g)
        P_curr = RealField(g, dt * gfield.data)
        u = RealField.zeros(g, 2)
        out = material_derivative(
            P_prev, P_curr, u, dt, FINITE_DIFFERENCE, ThermoParams()
        )
        assert np.max(np.abs(out.data - gfield.data)) < 1e-12

    def test_model_rhs_taylor_green(self):
        g = GridSpec(2, 64)
        params = ThermoParams(mu=1.0)  # R/c_v = 0.4
        u = taylor_green(g)
        out = material_derivative(None, RealField.zeros(g), u, 0.0, MODEL_RHS, params)
        assert integrate(out) == pytest.approx(0.4 * 8 * np.pi**2, rel=1e-10)

    def test_missing_snapshot(self):
        g = GridSpec(2, 16)
        with pytest.raises(DataError):
            material_derivative(
                None,
                RealField.zeros(g),
                RealField.zeros(g, 2),
                0.1,
                FINITE_DIFFERENCE,
                ThermoParams(),
            )

    def test_unknown_mode(self):
        g = GridSpec(2, 16)
        with pytest.raises(ConfigError):
            material_derivative(
                None,
                RealField.zeros(g),
                RealField.zeros(g, 2),
                0.1,
                "spectral",
                ThermoParams(),
            )

    def test_model_rhs_self_consistency(self, rng):
        # integral (DtP)^2 = (R/c_v)^2 integral Phi^2, by construction
        g = GridSpec(2, 32)
        params = ThermoParams()
        u = smooth_vector(g, rng)
        dtp = material_derivative(None, RealField.zeros(g), u, 0.0, MODEL_RHS, params)
        phi = dissipation_phi(u, params)
        ratio = (params.R / params.c_v) ** 2
        assert l2_norm_sq(dtp) == pytest.approx(ratio * l2_norm_sq(phi), rel=1e-13)


class TestNormESquared:
    def test_constant_pressure(self):
        g = GridSpec(2, 32)
        total, dtp, lap = norm_E_squared(RealField.zeros(g), RealField.zeros(g))
        assert (total, dtp, lap) == (0.0, 0.0, 0.0)

    def test_cosine_analytic(self):
        g = GridSpec(2, 64)
        x, _ = g.coordinates()
        total, dtp, lap = norm_E_squared(
            RealField(g, np.cos(x)), RealField.zeros(g)
        )
        assert dtp == 0
        assert lap == pytest.approx(2 * np.pi**2, rel=1e-10)
        assert total == dtp + lap

    def test_spectral_oracle(self, rng):
        g = GridSpec(2, 32)
        P = smooth_scalar(g, rng)
        dtp = smooth_scalar(g, rng)
        total, _, _ = norm_E_squared(P, dtp)
        cP = forward(P).coeffs[0]
        cD = forward(dtp).coeffs[0]
        expected = (2 * np.pi) ** 2 * (
            np.sum(ksq(g) ** 2 * np.abs(cP) ** 2) + np.sum(np.abs(cD) ** 2)
        )
        assert total == pytest.approx(expected, rel=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(ArityError):
            norm_E_squared(
                RealField.zeros(GridSpec(2, 16)), RealField.zeros(GridSpec(2, 32))
            )


class TestInnerProduct:
    def test_matches_norm(self):
        g = GridSpec(2, 64)
        x, _ = g.coordinates()
        P = RealField(g, np.cos(x))
        z = RealField.zeros(g)
        assert inner_product_E(P, z, P, z) == pytest.approx(2 * np.pi**2, rel=1e-10)

    def test_orthogonal_modes(self):
        g = GridSpec(2, 32)
        x, y = g.coordinates()
        z = RealField.zeros(g)
        ip = inner_product_E(RealField(g, np.cos(x)), z, RealField(g, np.cos(y)), z)
        assert abs(ip) < 1e-12

    def test_symmetry(self, rng):
        g = GridSpec(2, 32)
        P1, D1 = smooth_scalar(g, rng), smooth_scalar(g, rng)
        P2, D2 = smooth_scalar(g, rng), smooth_scalar(g, rng)
        assert inner_product_E(P1, D1, P2, D2) == pytest.approx(
            inner_product_E(P2, D2, P1, D1), rel=1e-13
        )

    def test_bilinearity(self, rng):
        g = GridSpec(2, 32)
        fields = [(smooth_scalar(g, rng), smooth_scalar(g, rng)) for _ in range(3)]
        (P1, D1), (P2, D2), (P3, D3) = fields
        a, b = 2.0, -0.5
        combo_P = RealField(g, a * P1.data + b * P2.data)
        combo_D = RealField(g, a * D1.data + b * D2.data)
        lhs = inner_product_E(combo_P, combo_D, P3, D3)
        rhs = a * inner_product_E(P1, D1, P3, D3) + b * inner_product_E(P2, D2, P3, D3)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_positive_semidefinite_and_cauchy_schwarz(self, rng):
        g = GridSpec(2, 32)
        for _ in range(20):
            P1, D1 = smooth_scalar(g, rng), smooth_scalar(g, rng)
            P2, D2 = smooth_scalar(g, rng), smooth_scalar(g, rng)
            n1 = inner_product_E(P1, D1, P1, D1)
            n2 = inner_product_E(P2, D2, P2, D2)
            assert n1 >= 0 and n2 >= 0
            assert n1 == pytest.approx(norm_E_squared(P1, D1)[0], rel=1e-12)
            ip = inner_product_E(P1, D1, P2, D2)
            assert abs(ip) <= np.sqrt(n1 * n2) + 1e-10


class TestNormB:
    def test_zero_series(self):
        g = GridSpec(2, 16)
        z = RealField.zeros(g)
        assert norm_B([(z, z), (z, z)], 0.5) == 0

    def test_static_pressure(self):
        g = GridSpec(2, 64)
        x, _ = g.coordinates()
        P = RealField(g, np.cos(x))
        z = RealField.zeros(g)
        samples = [(P, z)] * 11
        assert norm_B(samples, 0.1) == pytest.approx(sobolev_norm(P, 2), rel=1e-12)

    def test_homogeneity(self, rng):
        g = GridSpec(2, 32)
        samples = [
            (smooth_scalar(g, rng), smooth_scalar(g, rng)) for _ in range(4)
        ]
        doubled = [
            (RealField(g, 2 * p.data), RealField(g, 2 * d.data)) for p, d in samples
        ]
        assert norm_B(doubled, 0.1) == pytest.approx(
            2 * norm_B(samples, 0.1), rel=1e-12
        )

    def test_too_few_samples(self):
        g = GridSpec(2, 16)
        with pytest.raises(DataError):
            norm_B([(RealField.zeros(g), RealField.zeros(g))], 0.1)


class TestBoundCheck:
    def test_exact_proportionality(self):
        series = NormSeries()
        for i in range(1, 6):
            series.append(make_sample(float(i), float(i), grad=2.0 * i))
        fit = bound_check(series)
        assert fit.c_fit == pytest.approx(2.0, rel=1e-13)
        assert fit.c_max == pytest.approx(2.0, rel=1e-13)
        assert fit.samples_used == 5

    def test_degenerate_series(self):
        series = NormSeries()
        for i in range(1, 4):
            series.append(make_sample(float(i), 0.0))
        fit = bound_check(series)
        assert fit.samples_used == 0
        assert fit.c_fit is None and fit.c_max is None

    def test_c_max_dominates_c_fit(self, rng):
        series = NormSeries()
        for i in range(1, 30):
            series.append(make_sample(float(i), rng.uniform(0.1, 2), rng.uniform(0, 5)))
        fit = bound_check(series)
        assert fit.c_max >= fit.c_fit >= 0

    def test_empty_series(self):
        with pytest.raises(DataError):
            bound_check(NormSeries())


class TestBlowupAccumulator:
    def test_zero_sample(self):
        state = BlowupState(threshold=10.0)
        out = blowup_update(state, make_sample(1.0, 0.0), 1.0)
        assert out.accumulator == 0.0 and not out.tripped

    def test_trips_after_fourth_update(self):
        state = BlowupState(threshold=10.0)
        for i in range(1, 5):
            state = blowup_update(state, make_sample(float(i), 3.0), 1.0)
            if i < 4:
                assert not state.tripped
        assert state.accumulator == pytest.approx(12.0)
        assert state.tripped

    def test_latch_is_monotone(self):
        state = BlowupState(threshold=1.0, accumulator=2.0, tripped=True)
        out = blowup_update(state, make_sample(0.0, 0.0), 1.0)
        assert out.tripped  # never unlatches

    def test_nondecreasing(self, rng):
        state = BlowupState(threshold=np.inf)
        prev = 0.0
        for i in range(50):
            state = blowup_update(
                state, make_sample(float(i), rng.uniform(0, 3)), rng.uniform(0.01, 1)
            )
            assert state.accumulator >= prev
            prev = state.accumulator


class TestVariationalResidual:
    def test_zero_everything(self):
        g = GridSpec(2, 32)
        z = RealField.zeros(g)
        res = variational_residual(z, z, RealField.zeros(g, 2), [(1, 0), (0, 1)])
        assert all(abs(r) < 1e-14 for r in res)

    def test_orthogonal_mode(self):
        g = GridSpec(2, 64)
        x, _ = g.coordinates()
        P = RealField(g, np.cos(x))
        z = RealField.zeros(g)
        (res,) = variational_residual(P, z, RealField.zeros(g, 2), [(0, 1)])
        assert abs(res) < 1e-10

    def test_matching_mode(self):
        g = GridSpec(2, 64)
        x, _ = g.coordinates()
        P = RealField(g, np.cos(x))
        z = RealField.zeros(g)
        (res,) = variational_residual(P, z, RealField.zeros(g, 2), [(1, 0)])
        assert res == pytest.approx(2 * np.pi**2, rel=1e-10)

    def test_out_of_band_mode(self):
        g = GridSpec(2, 32)
        z = RealField.zeros(g)
        with pytest.raises(ConfigError):
            variational_residual(z, z, RealField.zeros(g, 2), [(12, 0)])


class TestOneForm:
    """<.,.>_E and the weak-form residual are Parseval sums over the half
    spectra, as ||.||_E^2 is: no sample of P or DtP is read."""

    @staticmethod
    def _spectral(g, rng):
        return RealField.from_half_spectrum(g, smooth_scalar(g, rng).half_spectrum())

    @staticmethod
    def _physical(g, P1, D1, P2, D2):
        # integral (D1*D2 + lapP1*lapP2) dx as the equispaced sum
        lap = [ifft(-half_wavenumbers(g).ksq * P.half_spectrum(), g) for P in (P1, P2)]
        value = np.sum(D1.data * D2.data) + np.sum(lap[0] * lap[1])
        return float(value) * g.cell_volume

    def test_inner_product_reads_no_sample(self, transform_counter, rng):
        g = GridSpec(2, 32)
        fields = [self._spectral(g, rng) for _ in range(4)]
        count = transform_counter(g)
        value = inner_product_E(*fields)
        # the rule on fields reads their arity and grid, not their samples
        norm_E_squared(*fields[:2])
        assert count["ifft"] == 0
        assert value == pytest.approx(self._physical(g, *fields), rel=1e-12)

    def test_residual_reads_no_sample(self, transform_counter, rng):
        g = GridSpec(2, 32)
        P, DtP = self._spectral(g, rng), self._spectral(g, rng)
        u = smooth_vector(g, rng)
        modes = [(1, 0), (2, -3), (0, 5)]
        count = transform_counter(g)
        got = variational_residual(P, DtP, u, modes)
        assert count["ifft"] == 0
        # each residual is <(P, DtP), (phi, u.grad phi)>_E, phi = cos(k.x)
        x, y = g.coordinates()
        for (kx, ky), value in zip(modes, got):
            phase = kx * x + ky * y
            phi = RealField(g, np.cos(phase))
            dt_phi = RealField(g, -np.sin(phase) * (kx * u.data[0] + ky * u.data[1]))
            want = self._physical(g, P, DtP, phi, dt_phi)
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12)


def _pressure(g):
    x, y = g.coordinates()
    return RealField(g, np.cos(x) + np.sin(2 * y))


# a (P, u) pair on the grid g with one argument that breaks the one rule on
# fields, spectral.check_field: one component for a pressure and one per
# dimension for a velocity, each on the grid of the fields it acts with
_MALFORMED_U = {
    "one_component": lambda g: (_pressure(g), RealField(g, np.sin(g.coordinates()[1]))),
    "three_components": lambda g: (_pressure(g), RealField.zeros(g, 3)),
    "other_grid": lambda g: (
        _pressure(g),
        RealField.zeros(GridSpec(g.dim, 2 * g.n), g.dim),
    ),
    "two_component_P": lambda g: (
        RealField(g, np.concatenate([_pressure(g).data] * 2)),
        RealField.zeros(g, g.dim),
    ),
    "P_other_grid": lambda g: (
        _pressure(GridSpec(g.dim, 2 * g.n)),
        RealField.zeros(g, g.dim),
    ),
}

_TAKES_U = {
    "convective_term": lambda P, u: convective_term(P, u),
    "material_derivative": lambda P, u: material_derivative(
        P, P, u, 0.1, FINITE_DIFFERENCE, ThermoParams()
    ),
    "material_derivative_model_rhs": lambda P, u: material_derivative(
        None, P, u, 0.0, MODEL_RHS, ThermoParams()
    ),
    "variational_residual": lambda P, u: variational_residual(P, P, u, [(1, 0)]),
    "evolve_pressure_model": lambda P, u: evolve_pressure_model(
        FlowState(0.0, u, ThermoParams()), P, SolverConfig()
    ),
    # P as the dissipation, beside a Q on u's grid
    "pressure_source": lambda P, u: pressure_source(
        P, ThermoParams(Q=RealField.zeros(u.grid))
    ),
    # readers of u alone; P is not used
    "dissipation_phi": lambda P, u: dissipation_phi(u, ThermoParams()),
    "gradient_energy": lambda P, u: gradient_energy(u),
    "kinetic_energy": lambda P, u: kinetic_energy(u),
    "velocity_gradients": lambda P, u: velocity_gradients(u),
    "leray_project": lambda P, u: leray_project(u),
    "pressure_poisson": lambda P, u: pressure_poisson(u, ThermoParams()),
}

# a velocity on another grid breaks the rule beside a P only: a reader of u
# alone takes u's grid as its own
_CASES = [
    *product(
        [
            "convective_term",
            "material_derivative",
            "material_derivative_model_rhs",
            "variational_residual",
        ],
        ["one_component", "other_grid"],
    ),
    *product(
        [
            "dissipation_phi",
            "gradient_energy",
            "kinetic_energy",
            "velocity_gradients",
            "leray_project",
            "pressure_poisson",
        ],
        ["one_component", "three_components"],
    ),
    ("convective_term", "two_component_P"),
    ("evolve_pressure_model", "P_other_grid"),
    ("pressure_source", "two_component_P"),
    ("pressure_source", "P_other_grid"),
]


@pytest.mark.parametrize("caller, case", _CASES)
def test_malformed_velocity_raises(caller, case):
    # a one-component u used to broadcast over both derivatives of P, and a
    # three-component one in 2D gave pressure_poisson u[2] as u_d
    P, u = _MALFORMED_U[case](GridSpec(2, 16))
    with pytest.raises(ArityError):
        _TAKES_U[caller](P, u)


class TestNormSeries:
    def test_timestamps_strictly_increasing(self):
        series = NormSeries()
        series.append(make_sample(0.0, 1.0))
        with pytest.raises(DataError):
            series.append(make_sample(0.0, 1.0))
