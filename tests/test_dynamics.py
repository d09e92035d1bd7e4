import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from carnotlab.core import (BathSpec, FrequencyProtocol, ObservableVector,
                            thermal_observable_vector)
from carnotlab.dynamics import (free_propagator, gen5_factory, generator,
                                name_rates, propagate_dephasing, propagate_open,
                                propagate_ste_beta, propagate_unitary)
from carnotlab.errors import DomainError
from carnotlab.protocols import (build_constant_mu_protocol, build_sta_protocol,
                                 build_ste_protocol)


class TestNameRates:
    def test_static_drive(self):
        r = name_rates(5.0, 0.0, BathSpec(5.0, 0.05))
        n = 1.0 / (math.e - 1.0)
        assert r.alpha == 5.0
        assert r.k_down == pytest.approx((5.0 * 0.05 / 2.0) * (1.0 + n), rel=1e-14)
        assert r.k_down == pytest.approx(0.19775, abs=5e-6)

    @given(st.floats(1.0, 15.0), st.floats(-1.5, 1.5), st.floats(1.0, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_detailed_balance(self, omega, mu, temp):
        r = name_rates(omega, mu * omega**2, BathSpec(temp, 0.05))
        assert r.k_down / r.k_up == pytest.approx(math.exp(r.alpha / temp),
                                                  rel=1e-12)
        assert r.k_down > r.k_up > 0
        assert r.alpha <= omega * (1 + 1e-15)

    def test_modified_frequency(self):
        r = name_rates(10.0, 0.5 * 10.0**2, BathSpec(8.0, 0.05))
        assert r.alpha == pytest.approx(10.0 * math.sqrt(1 - 0.25 / 4), rel=1e-14)

    def test_fast_drive_rejected(self):
        with pytest.raises(DomainError):
            name_rates(5.0, 2.0 * 25.0, BathSpec(5.0, 0.05))
        with pytest.raises(DomainError):
            generator(5.0, 2.0 * 25.0, BathSpec(5.0, 0.05))

    def test_cold_bath_finite(self):
        # hbar alpha / k_B T = 1000: far beyond where exp(x) overflows
        r = name_rates(10.0, 0.0, BathSpec(0.01))
        assert math.isfinite(r.k_down) and math.isfinite(r.k_up)
        assert r.k_up >= 0.0
        assert r.k_down == pytest.approx(0.5 * 10.0 * 0.05, rel=1e-15)


class TestFreePropagator:
    def test_identity_at_zero(self):
        assert np.allclose(free_propagator(8.0, -0.3, 0.0), np.eye(4), atol=1e-15)

    def test_mu_zero_rotation(self):
        w, t = 5.0, 0.37
        u = free_propagator(w, 0.0, t)
        th = 2.0 * w * t
        expect = np.eye(4)
        expect[1, 1] = expect[2, 2] = math.cos(th)
        expect[1, 2] = -math.sin(th)
        expect[2, 1] = math.sin(th)
        assert np.allclose(u, expect, atol=1e-14)

    @given(st.floats(-1.8, 1.8), st.floats(0.05, 0.6))
    @settings(max_examples=60, deadline=None)
    def test_block_determinant(self, mu, t):
        # the moment block is a scaled rotation: det = (w(t)/w0)^3
        if abs(mu) < 1e-3:
            mu = 1e-3
        w0 = 6.0
        if mu * w0 * t >= 0.95:
            t = 0.9 / (mu * w0)
        u = free_propagator(w0, mu, t)
        ratio = 1.0 / (1.0 - mu * w0 * t)
        assert np.linalg.det(u[:3, :3]) == pytest.approx(ratio**3, rel=1e-9)

    def test_matches_generator_exponential(self):
        # at constant mu the map is exp(theta * G/omega) with theta = int w dt
        for mu in (-0.7, -0.05, 0.3, 1.2):
            w0, t = 7.0, 0.11
            theta = -math.log1p(-mu * w0 * t) / mu
            g = generator(1.0, mu)[:4, :4]  # generator per unit phase
            assert np.allclose(free_propagator(w0, mu, t), expm(theta * g),
                               atol=1e-12)

    def test_derivative_at_zero_is_generator(self):
        mu, w0 = -0.4, 6.0
        eps = 1e-7
        du = (free_propagator(w0, mu, eps) - np.eye(4)) / eps
        assert np.allclose(du, generator(w0, mu * w0**2)[:4, :4], atol=1e-5)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            free_propagator(5.0, 0.5, 1.0)


class TestPropagateUnitary:
    def test_stationary_at_constant_omega(self):
        prot = FrequencyProtocol.constant(5.0, 4.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        traj = propagate_unitary(v0, prot)
        assert np.max(np.abs(traj.vectors - v0.as_array())) < 1e-10

    def test_constant_mu_matches_free_propagator(self):
        prot = build_constant_mu_protocol(9.6875, 7.75, -0.02)
        v0 = ObservableVector(h=9.0, l=0.6, c=-0.4)
        traj = propagate_unitary(v0, prot)
        expect = np.array([free_propagator(9.6875, -0.02, t) @ v0.as_array()
                           for t in traj.times])
        err = np.max(np.abs(traj.vectors - expect))
        assert err <= 1e-9 * np.max(np.abs(traj.vectors))

    def test_casimir_conserved_on_sta(self):
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        traj = propagate_unitary(v0, prot)
        cas = traj.casimirs()
        assert np.max(np.abs(cas / cas[0] - 1.0)) < 1e-8

    def test_unitary_work_equals_energy_change(self):
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        traj = propagate_unitary(v0, prot)
        assert traj.work == pytest.approx(traj.energy_change, rel=1e-9)
        assert abs(traj.heat) < 1e-8 * abs(traj.work)

    def test_identity_component_preserved(self):
        prot = build_constant_mu_protocol(6.0, 5.0, -0.3)
        v0 = thermal_observable_vector(6.0, 5.0)
        traj = propagate_unitary(v0, prot)
        assert np.max(np.abs(traj.vectors[:, 3] - 1.0)) < 1e-12


class TestOpenGenerator:
    def test_thermal_fixed_point_static(self):
        bath = BathSpec(5.0, 0.05)
        g = generator(5.0, 0.0, bath)
        v = np.append(thermal_observable_vector(5.0, 5.0).as_array(), 0.0)
        assert np.max(np.abs(g @ v)) < 1e-14

    def test_relaxation_rate_is_gamma(self):
        bath = BathSpec(5.0, 0.05)
        r = name_rates(5.0, 0.0, bath)
        g = generator(5.0, 0.0, bath)
        # displacing h only decays at Gamma = k_down - k_up
        assert g[0, 0] == pytest.approx(-r.gamma, rel=1e-14)
        assert g[1, 1] == pytest.approx(-r.gamma, rel=1e-14)
        assert g[2, 2] == pytest.approx(-r.gamma, rel=1e-14)
        # dephasing adds -4 gamma_d w^2 on l and c only, with or without a bath
        for b in (None, bath):
            d = generator(5.0, 0.0, b, gamma_d=1e-3) - generator(5.0, 0.0, b)
            expect = np.zeros((5, 5))
            expect[1, 1] = expect[2, 2] = -4.0 * 1e-3 * 25.0
            assert np.allclose(d, expect, atol=1e-15)

    def test_fast_path_matches_reference(self, hot_bath):
        # closed-form (constant-mu) and grid (STE, Horner spline) protocols
        cases = [(build_constant_mu_protocol(9.0, 6.0, -0.22), BathSpec(6.5, 0.04),
                  (0.0, 0.1, 0.17)),
                 (build_ste_protocol(10.0, 8.0, 20.0, hot_bath)[0], hot_bath,
                  (0.0, 3.3333, 9.87654321, 20.0))]
        for prot, bath, times in cases:
            for gamma_d in (0.0, 2e-3):
                gen5 = gen5_factory(prot, bath=bath, gamma_d=gamma_d)
                for t in times:
                    w, wd = float(prot.omega(t)), float(prot.omega_dot(t))
                    ref = generator(w, wd, bath, gamma_d=gamma_d)
                    assert np.allclose(gen5(t), ref, rtol=1e-12, atol=1e-13)
                    assert gen5(t)[4, 0] == pytest.approx(wd / w)


class TestPropagateOpen:
    def test_relaxes_to_thermal(self):
        bath = BathSpec(5.0, 0.05)
        prot = FrequencyProtocol.constant(5.0, 220.0)  # Gamma * t ~ 27
        v0 = ObservableVector(h=9.0, l=1.3, c=-2.0)
        traj = propagate_open(v0, prot, bath)
        ref = thermal_observable_vector(5.0, 5.0)
        assert traj.final_vector.h == pytest.approx(ref.h, rel=1e-9)
        assert abs(traj.final_vector.l) < 1e-9
        assert abs(traj.final_vector.c) < 1e-9

    def test_relaxation_rate(self):
        bath = BathSpec(5.0, 0.05)
        r = name_rates(5.0, 0.0, bath)
        prot = FrequencyProtocol.constant(5.0, 3.0)
        ref = thermal_observable_vector(5.0, 5.0)
        v0 = ObservableVector(h=ref.h + 1.0, l=0.0, c=0.0)
        traj = propagate_open(v0, prot, bath)
        expected = ref.h + math.exp(-r.gamma * 3.0)
        assert traj.final_vector.h == pytest.approx(expected, rel=1e-9)

    def test_ste_endpoint_contract(self, hot_bath):
        prot, _ = build_ste_protocol(10.0, 8.0, 20.0, hot_bath)
        v0 = thermal_observable_vector(10.0, 8.0)
        vf = propagate_open(v0, prot, hot_bath).final_vector
        tgt = thermal_observable_vector(8.0, 8.0)
        assert vf.h == pytest.approx(tgt.h, rel=1e-3)
        assert abs(vf.l) < 1e-3 * tgt.h
        assert abs(vf.c) < 1e-3 * tgt.h

    def test_entropy_production_non_negative(self, hot_bath):
        from carnotlab.thermo import von_neumann_entropy

        prot, _ = build_ste_protocol(10.0, 8.0, 12.0, hot_bath)
        v0 = thermal_observable_vector(10.0, 8.0)
        traj = propagate_open(v0, prot, hot_bath)
        ds_system = von_neumann_entropy(traj.final_vector, 8.0) - \
            von_neumann_entropy(v0, 10.0)
        sigma = ds_system - traj.heat / hot_bath.temperature
        assert sigma > -1e-10

    def test_coherence_never_grows_undriven(self):
        bath = BathSpec(5.0, 0.05)
        prot = FrequencyProtocol.constant(5.0, 10.0)
        v0 = ObservableVector(h=8.0, l=2.0, c=1.0)
        traj = propagate_open(v0, prot, bath)
        coh = traj.coherences()
        assert np.all(np.diff(coh) <= 1e-12)


class TestPropagateSteBeta:
    def test_fixed_point(self, hot_bath):
        prot, sol = build_ste_protocol(8.0, 8.0, 10.0, hot_bath)
        times, beta = propagate_ste_beta(-1.0, sol, hot_bath)
        assert np.max(np.abs(beta + 1.0)) < 1e-12

    def test_tracks_designed_polynomial(self, hot_bath):
        _, sol = build_ste_protocol(10.0, 8.0, 15.0, hot_bath)
        times, beta = propagate_ste_beta(sol.target_initial, sol, hot_bath)
        assert np.max(np.abs(np.exp(beta) - sol.y(times))) < 1e-6
        assert beta[-1] == pytest.approx(sol.target_final, abs=1e-6)


class TestPropagateDephasing:
    def test_zero_strength_matches_unitary(self):
        prot, _ = build_sta_protocol(5.0, 8.0, 4.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        t1 = propagate_dephasing(v0, prot, 0.0)
        t2 = propagate_unitary(v0, prot)
        assert np.max(np.abs(t1.vectors - t2.vectors)) < 1e-10

    def test_strong_dephasing_kills_coherence_keeps_energy(self):
        prot = FrequencyProtocol.constant(5.0, 6.0)
        v0 = ObservableVector(h=6.0, l=1.5, c=-1.0)
        traj = propagate_dephasing(v0, prot, 0.05)
        assert abs(traj.final_vector.l) < 1e-10
        assert abs(traj.final_vector.c) < 1e-10
        assert traj.final_vector.h == pytest.approx(6.0, abs=1e-10)

    def test_decay_rate_and_rotation(self):
        # radial decay of (l, c) at 4*gamma*w^2 with rotation at 2w is exact
        w, gam, tf = 5.0, 2e-3, 1.3
        prot = FrequencyProtocol.constant(w, tf)
        v0 = ObservableVector(h=6.0, l=1.0, c=0.0)
        traj = propagate_dephasing(v0, prot, gam)
        radius = math.hypot(traj.final_vector.l, traj.final_vector.c)
        assert radius == pytest.approx(math.exp(-4.0 * gam * w**2 * tf), rel=1e-8)
        angle = math.atan2(traj.final_vector.c, traj.final_vector.l)
        assert angle == pytest.approx(math.atan2(math.sin(2 * w * tf),
                                                 math.cos(2 * w * tf)), abs=1e-8)

    def test_negative_strength_rejected(self):
        prot = FrequencyProtocol.constant(5.0, 1.0)
        with pytest.raises(DomainError):
            propagate_dephasing(thermal_observable_vector(5.0, 5.0), prot, -0.1)


class TestTrajectoryExport:
    def test_csv_format(self, tmp_path):
        prot = build_constant_mu_protocol(6.0, 5.0, -0.2)
        traj = propagate_unitary(thermal_observable_vector(6.0, 5.0), prot,
                                 n_samples=5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,omega,h,l,c,coherence"
        assert len(lines) == 6
        # deterministic: re-export is byte-identical
        path2 = tmp_path / "traj2.csv"
        traj.to_csv(path2)
        assert path.read_bytes() == path2.read_bytes()
