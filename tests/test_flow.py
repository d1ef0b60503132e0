"""Thermodynamic closures, dissipation, Leray projection, regime check."""

import tracemalloc

import numpy as np
import pytest

from penflow import (
    ArityError,
    ConfigError,
    DivergenceError,
    FlowState,
    GridSpec,
    RealField,
    RegimeError,
    ThermoParams,
    backward,
    dissipation_phi,
    divergence,
    forward,
    gradient_energy,
    integrate,
    kinetic_energy,
    l2_norm_sq,
    leray_project,
    pressure_poisson,
    regime_check,
    sobolev_norm,
    temperature_from_pressure,
)
from penflow.spectral import ksq

from conftest import smooth_scalar, smooth_vector


def taylor_green(grid, amplitude=1.0):
    x, y = grid.coordinates()
    return RealField(
        grid,
        np.stack(
            [amplitude * np.sin(x) * np.cos(y), -amplitude * np.cos(x) * np.sin(y)]
        ),
    )


class TestThermoParams:
    def test_defaults(self):
        p = ThermoParams()
        assert p.nu == pytest.approx(p.mu / p.rho)
        assert p.Q is None

    @pytest.mark.parametrize("kwargs", [{"rho": 0}, {"R": -1}, {"c_v": 0}, {"mu": -2}])
    def test_positivity(self, kwargs):
        with pytest.raises(ConfigError):
            ThermoParams(**kwargs)


class TestTemperature:
    def test_reference_only(self):
        g = GridSpec(2, 16)
        p = ThermoParams(rho=1.0)
        T = temperature_from_pressure(RealField.zeros(g), p, 101325.0)
        assert np.max(np.abs(T.data - 101325.0 / 287.0)) < 1e-10

    def test_constant_shift(self):
        g = GridSpec(2, 16)
        p = ThermoParams(rho=1.0)
        delta = 3.5
        P = RealField(g, np.full(g.shape, p.rho * p.R * delta))
        T0 = 300.0
        T = temperature_from_pressure(P, p, p.rho * p.R * T0)
        assert np.max(np.abs(T.data - (T0 + delta))) < 1e-10

    def test_sinusoid_scaling(self):
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        p = ThermoParams(rho=2.0, R=100.0)
        P = RealField(g, 50.0 * np.cos(x))
        T = temperature_from_pressure(P, p, 1e5)
        expected = 1e5 / 200.0 + 0.25 * np.cos(x)
        assert np.max(np.abs(T.scalar_values() - expected)) < 1e-10

    def test_affine_combination(self, rng):
        g = GridSpec(2, 16)
        p = ThermoParams()
        P1 = smooth_scalar(g, rng)
        P2 = smooth_scalar(g, rng)
        P0 = 1e5
        a, b = 0.3, 0.7  # convex so the reference pressure is preserved
        combo = RealField(g, a * P1.data + b * P2.data)
        T = temperature_from_pressure(combo, p, P0)
        T1 = temperature_from_pressure(P1, p, P0)
        T2 = temperature_from_pressure(P2, p, P0)
        assert np.max(np.abs(T.data - a * T1.data - b * T2.data)) < 1e-10

    def test_nonpositive_pressure(self):
        g = GridSpec(2, 16)
        P = RealField(g, np.full(g.shape, -2.0))
        with pytest.raises(RegimeError):
            temperature_from_pressure(P, ThermoParams(), 1.0)


class TestDissipation:
    def test_zero_velocity(self):
        g = GridSpec(2, 16)
        phi = dissipation_phi(RealField.zeros(g, 2), ThermoParams())
        assert np.max(np.abs(phi.data)) == 0

    def test_rigid_translation(self):
        g = GridSpec(2, 16)
        u = RealField(g, np.stack([np.ones(g.shape), np.ones(g.shape)]))
        phi = dissipation_phi(u, ThermoParams())
        assert np.max(np.abs(phi.data)) < 1e-12

    def test_taylor_green_integral(self):
        g = GridSpec(2, 64)
        phi = dissipation_phi(taylor_green(g), ThermoParams(mu=1.0))
        assert integrate(phi) == pytest.approx(8 * np.pi**2, rel=1e-12)

    def test_nonnegative(self, rng):
        g = GridSpec(2, 32)
        phi = dissipation_phi(smooth_vector(g, rng), ThermoParams())
        assert np.min(phi.data) >= 0

    def test_phi_is_2mu_gradient_energy(self, rng):
        g = GridSpec(2, 32)
        u = smooth_vector(g, rng)
        params = ThermoParams(mu=0.7)
        assert integrate(dissipation_phi(u, params)) == pytest.approx(
            2 * params.mu * gradient_energy(u), rel=1e-13
        )


class TestGradientEnergy:
    def test_zero(self):
        g = GridSpec(2, 16)
        assert gradient_energy(RealField.zeros(g, 2)) == 0

    def test_taylor_green(self):
        g = GridSpec(2, 64)
        assert gradient_energy(taylor_green(g)) == pytest.approx(
            4 * np.pi**2, rel=1e-12
        )

    def test_spectral_identity(self, rng):
        g = GridSpec(2, 32)
        u = smooth_vector(g, rng)
        spectral = 0.0
        for i in range(u.components):
            c = forward(RealField(g, u.data[i])).coeffs[0]
            spectral += np.sum(ksq(g) * np.abs(c) ** 2) * (2 * np.pi) ** 2
        assert gradient_energy(u) == pytest.approx(spectral, rel=1e-10)


class TestLerayProjection:
    def test_divergence_free_unchanged(self):
        g = GridSpec(2, 32)
        u = taylor_green(g)
        out = leray_project(u)
        assert np.max(np.abs(out.data - u.data)) < 1e-12

    def test_kills_gradients(self):
        g = GridSpec(2, 32)
        x, y = g.coordinates()
        v = RealField(g, np.stack([-np.sin(x), np.zeros(g.shape)]))  # grad(cos x)
        out = leray_project(v)
        assert np.max(np.abs(out.data)) < 1e-12

    def test_idempotent(self, rng):
        g = GridSpec(2, 32)
        v = smooth_vector(g, rng)
        once = leray_project(v)
        twice = leray_project(once)
        assert np.max(np.abs(twice.data - once.data)) < 1e-12

    def test_result_divergence_free(self, rng):
        g = GridSpec(3, 16)
        v = smooth_vector(g, rng)
        div = backward(divergence(forward(leray_project(v))))
        assert np.max(np.abs(div.data)) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_white_noise_is_a_valid_flow_state(self, dim):
        # Nyquist content: the projection and the divergence check must use
        # the same Nyquist-zeroed derivative
        g = GridSpec(dim, 16)
        v = RealField(g, np.random.default_rng(7).standard_normal((dim,) + g.shape))
        u = leray_project(v)
        FlowState(0.0, u, ThermoParams())
        div = backward(divergence(forward(u)))
        assert np.max(np.abs(div.data)) < 1e-10

    def test_norm_nonincreasing(self, rng):
        g = GridSpec(2, 32)
        v = smooth_vector(g, rng)
        out = leray_project(v)
        assert l2_norm_sq(out) <= l2_norm_sq(v) + 1e-12
        assert gradient_energy(out) <= gradient_energy(v) + 1e-10

    def test_linear(self, rng):
        g = GridSpec(2, 32)
        v1, v2 = smooth_vector(g, rng), smooth_vector(g, rng)
        combo = RealField(g, 1.5 * v1.data - 2.0 * v2.data)
        direct = leray_project(combo).data
        split = 1.5 * leray_project(v1).data - 2.0 * leray_project(v2).data
        assert np.max(np.abs(direct - split)) < 1e-12


class TestRegimeCheck:
    def test_zero_fluctuation(self):
        g = GridSpec(2, 16)
        report = regime_check(RealField.zeros(g), ThermoParams(), P0=101325.0)
        assert report.delta_T_rel == 0
        assert report.in_regime

    def test_threshold_crossing(self):
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        params = ThermoParams()
        T0 = 300.0
        P0 = params.rho * params.R * T0
        P = RealField(g, 0.025 * P0 * np.cos(x))  # 2.5% fluctuation
        report = regime_check(P, params, P0=P0)
        assert not report.in_regime
        assert report.delta_T_rel == pytest.approx(0.025, rel=1e-10)

    def test_h2_norm_oracle(self):
        g = GridSpec(2, 64)
        x, _ = g.coordinates()
        params = ThermoParams()
        T0 = 300.0
        # T = T0 + cos(x): coefficients T0 at k=0 and 1/2 at k=(+-1,0)
        P = RealField(g, params.rho * params.R * np.cos(x))
        report = regime_check(P, params, P0=params.rho * params.R * T0)
        expected_sq = (2 * np.pi) ** 2 * (T0**2 + 2 * (2**2) * 0.25)
        assert report.T_h2_norm == pytest.approx(np.sqrt(expected_sq), rel=1e-10)

    def test_extremes_give_the_temperature_array_bits(self, rng):
        # delta_T_rel is taken from max P and min P alone: it must be the
        # max |T - T0|/T0 of the T array bit for bit, and a total pressure
        # that reaches zero anywhere must raise as the array check does
        g = GridSpec(2, 16)
        params = ThermoParams(rho=1.3)
        T0 = 300.0
        rho_R = params.rho * params.R
        P0 = rho_R * T0
        lows = [-P0, np.nextafter(-P0, 0.0), np.nextafter(-P0, -np.inf), -0.5 * P0]
        scales = np.geomspace(1e-6, 1.6e5, 25)
        fields = [scale * rng.standard_normal(g.shape) for scale in scales]
        for low in lows:
            f = rng.standard_normal(g.shape)
            fields.append(f - f.min() + low)  # min P is exactly low
        raised = 0
        for f in fields:
            P = RealField(g, f)
            total = P0 + f
            if np.min(total) <= 0:
                raised += 1
                with pytest.raises(RegimeError):
                    temperature_from_pressure(P, params, P0)
                with pytest.raises(RegimeError):
                    regime_check(P, params, P0=P0)
                continue
            T = total / rho_R
            report = regime_check(P, params, P0=P0)
            assert report.delta_T_rel == float(np.max(np.abs(T - T0))) / T0
            assert report.in_regime == (report.delta_T_rel < 0.02)
        assert 0 < raised < len(fields)
        assert np.min(P0 + fields[-3]) > 0  # one ulp above the boundary

    def test_agrees_with_temperature_from_pressure_at_the_boundary(self):
        # both read P0 itself: a reference temperature rebuilt as
        # rho*R*(P0/(rho*R)) is 1 ulp above this P0, and regime_check
        # used to find the total pressure nonpositive where
        # temperature_from_pressure found it positive
        g = GridSpec(2, 16)
        params = ThermoParams()
        P0 = 729496.8314874374
        P = RealField(g, np.full(g.shape, -729496.8314874372))
        assert np.all(temperature_from_pressure(P, params, P0).data > 0)
        report = regime_check(P, params, P0=P0)
        assert report.delta_T_rel == pytest.approx(1.0)
        with pytest.raises(RegimeError):
            regime_check(P, params, P0=np.nextafter(-P.data.min(), 0.0))

    def test_reference_pressure_is_keyword_only(self):
        # a positional 300 K would otherwise be read as 300 Pa
        with pytest.raises(TypeError):
            regime_check(RealField.zeros(GridSpec(2, 16)), ThermoParams(), 300.0)

    def test_given_h2_norm_is_the_one_computed(self, rng):
        g = GridSpec(2, 32)
        params = ThermoParams()
        P = pressure_poisson(leray_project(smooth_vector(g, rng)), params)
        given = regime_check(P, params, P0=101325.0, h2_norm=sobolev_norm(P, 2))
        assert given == regime_check(P, params, P0=101325.0)

    def test_kept_spectrum_gives_the_transformed_norm(self, rng):
        # T's spectrum is derived from the one P keeps from its Poisson
        # solve; it must match T transformed from scratch
        g = GridSpec(2, 32)
        params = ThermoParams()
        P = pressure_poisson(leray_project(smooth_vector(g, rng)), params)
        bare = RealField(g, P.data.copy())
        kept = regime_check(P, params, P0=101325.0)
        fresh = regime_check(bare, params, P0=101325.0)
        assert kept.delta_T_rel == fresh.delta_T_rel
        assert kept.T_h2_norm == pytest.approx(fresh.T_h2_norm, rel=1e-13)


class TestFlowState:
    def test_rejects_divergent_velocity(self):
        g = GridSpec(2, 32)
        x, _ = g.coordinates()
        u = RealField(g, np.stack([np.sin(x), np.zeros(g.shape)]))
        with pytest.raises(ArityError):
            FlowState(0.0, u, ThermoParams())

    def test_rejects_one_component_velocity(self):
        g = GridSpec(2, 32)
        _, y = g.coordinates()
        with pytest.raises(ArityError):
            FlowState(0.0, RealField(g, np.sin(y)), ThermoParams())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_velocity(self, bad):
        # max(1.0, nan) is 1.0 and a NaN compares false, so the divergence
        # check alone would let a NaN sample through
        g = GridSpec(2, 16)
        u = taylor_green(g).data.copy()
        u[1, 2, 7] = bad
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            FlowState(0.25, RealField(g, u), ThermoParams())
        assert info.value.time == 0.25

    def test_kinetic_energy_taylor_green(self):
        g = GridSpec(2, 64)
        assert kinetic_energy(taylor_green(g)) == pytest.approx(np.pi**2, rel=1e-12)

    def test_phi_computed_once_and_kept(self):
        g = GridSpec(2, 32)
        params = ThermoParams(mu=0.3)
        u = taylor_green(g)
        state = FlowState(0.0, u, params)
        assert state.phi is state.phi
        assert state.phi.data.tobytes() == dissipation_phi(u, params).data.tobytes()

    def test_phi_holds_no_gradient_tensor(self):
        # Phi is accumulated from the kept spectrum one batch of derivatives
        # at a time (spectral.batches): one derivative where a transform
        # splits (3D n=64, peak ~1.0x u), three at 3D n=32 (~2.5x u).  The
        # (dim, dim, n...) gradient tensor and its square would be 6x u in
        # 3D.  At 2D n=64 one batch holds all four derivative spectra and
        # their samples (~4.7x u, 0.3 MB).
        for dim, n, bound in [(3, 64, 2), (3, 32, 4), (2, 64, 5)]:
            g = GridSpec(dim, n)
            u = leray_project(smooth_vector(g, np.random.default_rng(2)))
            state = FlowState(0.0, u, ThermoParams())
            tracemalloc.start()
            try:
                state.phi
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * state.u.data.nbytes, (dim, n)

    def test_pressure_solved_once_and_kept(self):
        g = GridSpec(2, 32)
        params = ThermoParams(rho=1.3)
        u = taylor_green(g)
        state = FlowState(0.0, u, params)
        assert state.P is state.P
        assert state.P.data.tobytes() == pressure_poisson(u, params).data.tobytes()
