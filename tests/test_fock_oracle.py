import gc

import numpy as np
import pytest
from scipy.integrate import DOP853

from carnotlab.core import (BathSpec, FrequencyProtocol, ObservableVector,
                            thermal_observable_vector)
from carnotlab.dynamics import name_rates, propagate_open
from carnotlab.errors import DomainError
from carnotlab.fock_oracle import (FockState, basis_operators,
                                   build_jump_operator, gaussian_fock_state,
                                   integrate_lindblad, ladder,
                                   thermal_fock_state)
from carnotlab.protocols import build_constant_mu_protocol


class TestJumpOperator:
    def test_reduces_to_ladder_at_mu_zero(self):
        b = build_jump_operator(5.0, 0.0, 40)
        assert np.max(np.abs(b - ladder(40))) < 1e-12

    def test_canonical_commutator_bulk(self):
        for mu in (-1.2, -0.4, 0.0, 0.7):
            b = build_jump_operator(6.0, mu, 40)
            comm = b @ b.conj().T - b.conj().T @ b
            bulk = (comm - np.eye(40))[:38, :38]
            assert np.max(np.abs(bulk)) < 1e-12

    def test_vacuum_occupation(self):
        b = build_jump_operator(5.0, 0.0, 20)
        nb = b.conj().T @ b
        assert abs(nb[0, 0]) < 1e-14

    def test_small_dimension_rejected(self):
        with pytest.raises(DomainError):
            build_jump_operator(5.0, 0.0, 3)


class TestStates:
    def test_thermal_moments(self):
        dim = 60
        rho = thermal_fock_state(5.0, 5.0, dim)
        rho.validate()
        ham, lag, corr = basis_operators(dim, 5.0)
        ref = thermal_observable_vector(5.0, 5.0)
        assert np.real(np.trace(rho.matrix @ ham(5.0))) == pytest.approx(
            ref.h, rel=1e-10)
        assert abs(np.trace(rho.matrix @ lag(5.0))) < 1e-12
        assert abs(np.trace(rho.matrix @ corr(5.0))) < 1e-12

    def test_gaussian_state_realizes_moments(self):
        dim = 60
        v = ObservableVector(h=7.0, l=1.2, c=-0.8)
        rho = gaussian_fock_state(v, 6.0, dim)
        rho.validate()
        ham, lag, corr = basis_operators(dim, 6.0)
        assert np.real(np.trace(rho.matrix @ ham(6.0))) == pytest.approx(
            v.h, rel=1e-9)
        assert np.real(np.trace(rho.matrix @ lag(6.0))) == pytest.approx(
            v.l, rel=1e-8)
        assert np.real(np.trace(rho.matrix @ corr(6.0))) == pytest.approx(
            v.c, rel=1e-8)

    def test_state_validation(self):
        bad = np.eye(6, dtype=complex)
        with pytest.raises(Exception):
            FockState(bad).validate()  # trace is 6


class TestIntegration:
    def test_stationary_without_bath(self):
        dim = 40
        rho0 = thermal_fock_state(5.0, 5.0, dim)
        prot = FrequencyProtocol.constant(5.0, 2.0)
        times, h, l, c = integrate_lindblad(rho0, prot, n_samples=21)
        ref = thermal_observable_vector(5.0, 5.0)
        assert np.max(np.abs(h - ref.h)) < 1e-8
        assert np.max(np.abs(l)) < 1e-8
        assert np.max(np.abs(c)) < 1e-8

    def test_relaxation_to_bath(self):
        # analytic: h(t) - h_eq = (h0 - h_eq) exp(-Gamma t) at fixed frequency
        dim = 50
        bath = BathSpec(5.0, 0.05)
        rho0 = thermal_fock_state(5.0, 7.5, dim)
        prot = FrequencyProtocol.constant(5.0, 4.0)
        times, h, l, c = integrate_lindblad(rho0, prot, bath=bath, n_samples=9)
        gamma = name_rates(5.0, 0.0, bath).gamma
        h_eq = thermal_observable_vector(5.0, 5.0).h
        h0 = thermal_observable_vector(5.0, 7.5).h
        expected = h_eq + (h0 - h_eq) * np.exp(-gamma * times)
        assert np.max(np.abs(h - expected)) < 1e-7

    def test_open_stroke_matches_moment_propagation(self):
        bath = BathSpec(5.0, 0.05)
        prot = build_constant_mu_protocol(6.0, 5.0, -0.25)
        v0 = thermal_observable_vector(6.0, 5.0)
        rho0 = gaussian_fock_state(v0, 6.0, 60)
        times, h, l, c = integrate_lindblad(rho0, prot, bath=bath, n_samples=41)
        traj = propagate_open(v0, prot, bath, n_samples=41)
        scale = np.max(h)
        assert np.max(np.abs(traj.vectors[:, 0] - h)) < 1e-4 * scale
        assert np.max(np.abs(traj.vectors[:, 1] - l)) < 1e-4 * scale
        assert np.max(np.abs(traj.vectors[:, 2] - c)) < 1e-4 * scale

    def test_dimension_doubling_converges(self):
        bath = BathSpec(5.0, 0.05)
        prot = build_constant_mu_protocol(6.0, 5.0, -0.3)
        v0 = thermal_observable_vector(6.0, 5.0)
        results = []
        for dim in (40, 80):
            rho0 = gaussian_fock_state(v0, 6.0, dim)
            _, h, l, c = integrate_lindblad(rho0, prot, bath=bath, n_samples=5)
            results.append(h)
        assert np.max(np.abs(results[0] - results[1])) < 1e-6 * np.max(results[1])

    def test_solver_freed_after_stroke(self):
        # the solver sits in a reference cycle with its right-hand side and
        # holds the integrator stages of the whole state: it must not wait
        # for the cyclic collector
        bath = BathSpec(5.0, 0.05)
        rho0 = thermal_fock_state(5.0, 1.0, 8)
        prot = FrequencyProtocol.constant(5.0, 0.2)
        gc.collect()
        gc.disable()
        try:
            integrate_lindblad(rho0, prot, bath=bath, n_samples=3)
            left = [o for o in gc.get_objects() if isinstance(o, DOP853)]
        finally:
            gc.enable()
        assert not left
