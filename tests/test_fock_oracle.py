import gc

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from carnotlab import fock_oracle
from carnotlab.core import (HBAR, BathSpec, FrequencyProtocol, ObservableVector,
                            dressed_rates, thermal_observable_vector)
from carnotlab.dynamics import propagate_dephasing, propagate_open
from carnotlab.errors import DomainError
from carnotlab.fock_oracle import (COHERENT_STEP_RADIUS, OPEN_STEP_RADIUS,
                                   FockState, basis_operators,
                                   build_jump_operator, gaussian_fock_state,
                                   integrate_lindblad, ladder,
                                   thermal_fock_state)
from carnotlab.protocols import build_constant_mu_protocol


def joint_reference(rho0, protocol, bath, gamma_d, n_samples=41):
    """Moments from one DOP853 solve of (U, rho_int) in the interaction picture.

    The propagator U = T-exp(-(i/hbar) int H dt') is carried beside rho_int;
    it dresses the dephasing double commutator, H_int = U^dag H U, and gives
    rho_s = U rho_int U^dag.  Slow, because U's fastest phase sets every
    step, but a direct transcription of the master equation.
    """
    dim = rho0.dimension
    omega_ref = float(protocol.omega(0.0))
    ham, lag, corr = basis_operators(dim, omega_ref)
    if bath is not None:
        b = build_jump_operator(omega_ref, float(protocol.mu(0.0)), dim)
        bd = b.conj().T
        bdb = bd @ b
        bbd = b @ bd
    nmat = dim * dim

    def rhs(t, y):
        u = y[:nmat].reshape(dim, dim)
        rho = y[nmat:].reshape(dim, dim)
        w = float(protocol.omega(t))
        h_t = ham(w)
        du = (-1j / HBAR) * (h_t @ u)
        drho = np.zeros_like(rho)
        if bath is not None:
            k_down, k_up, _ = dressed_rates(
                w, float(protocol.omega_dot(t)) / w**2, bath)
            drho = drho + k_down * (b @ rho @ bd - 0.5 * (bdb @ rho + rho @ bdb))
            drho = drho + k_up * (bd @ rho @ b - 0.5 * (bbd @ rho + rho @ bbd))
        if gamma_d:
            h_int = u.conj().T @ h_t @ u
            comm = h_int @ rho - rho @ h_int
            drho = drho - gamma_d * (h_int @ comm - comm @ h_int)
        return np.concatenate([du.ravel(), drho.ravel()])

    y0 = np.concatenate([np.eye(dim, dtype=complex).ravel(),
                         rho0.matrix.astype(complex).ravel()])
    times = np.linspace(0.0, protocol.duration, n_samples)
    sol = solve_ivp(rhs, (0.0, protocol.duration), y0, method="DOP853",
                    rtol=1e-8, atol=1e-10, t_eval=times)
    assert sol.success
    moments = np.empty((3, n_samples))
    for i, t in enumerate(times):
        u = sol.y[:nmat, i].reshape(dim, dim)
        rho_s = u @ sol.y[nmat:, i].reshape(dim, dim) @ u.conj().T
        w = float(protocol.omega(t))
        moments[:, i] = [np.real(np.trace(rho_s @ op(w)))
                         for op in (ham, lag, corr)]
    return moments


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
        k_down, k_up, _ = dressed_rates(5.0, 0.0, bath)
        gamma = k_down - k_up
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

    def test_long_static_open_stroke(self):
        # criterion 7's hottest static open stroke: the dissipator's rounding
        # must not leave an anti-Hermitian part that grows over the stroke
        bath = BathSpec(9.0, 0.08)
        prot = FrequencyProtocol.constant(10.34, 2.7)
        v0 = ObservableVector(h=10.58, l=2.8, c=0.15)
        rho0 = gaussian_fock_state(v0, 10.34, 60)
        times, h, l, c = integrate_lindblad(rho0, prot, bath=bath, n_samples=9)
        traj = propagate_open(v0, prot, bath, n_samples=9)
        assert np.max(np.abs(traj.vectors[:, :3].T - [h, l, c])) < 1e-9 * np.max(h)

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

    @pytest.mark.parametrize("medium", [
        {"bath": BathSpec(5.0, 0.05)},  # two solves: rho_int and W
        {"gamma_d": 0.01},              # one solve of rho_s
    ], ids=["open", "dephasing"])
    def test_solver_freed_after_stroke(self, medium):
        # the solver sits in a reference cycle with its right-hand side and
        # holds the integrator stages of the whole state: it must not wait
        # for the cyclic collector
        rho0 = thermal_fock_state(5.0, 1.0, 8)
        prot = build_constant_mu_protocol(5.0, 4.5, -0.3)
        gc.collect()
        gc.disable()
        try:
            integrate_lindblad(rho0, prot, n_samples=3, **medium)
            left = [o for o in gc.get_objects() if isinstance(o, DOP853)]
        finally:
            gc.enable()
        assert not left

    @pytest.mark.parametrize("medium", [
        {"bath": BathSpec(5.0, 0.05)},
        {"gamma_d": 0.01},
    ], ids=["open", "dephasing"])
    def test_solver_freed_with_collector_running(self, medium):
        # the same with the collector at its most eager threshold: generation
        # 0 is collected at every net allocation and generation 1 at every
        # 11th collection, which would carry a live solver into the oldest
        # generation, out of reach of a young-generation collection.  A solve
        # allocates almost nothing that outlives a step, so a longer stroke
        # would not bring more collections; the threshold does.
        rho0 = thermal_fock_state(5.0, 1.0, 8)
        prot = build_constant_mu_protocol(5.0, 4.5, -0.3)
        young = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 0:
                young.append(info)

        gc.collect()
        threshold = gc.get_threshold()
        gc.set_threshold(1)
        gc.callbacks.append(count)
        try:
            integrate_lindblad(rho0, prot, n_samples=3, **medium)
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
        assert gc.isenabled()
        gc.disable()
        try:
            left = [o for o in gc.get_objects() if isinstance(o, DOP853)]
        finally:
            gc.enable()
        assert len(young) > 3
        assert not left


class TestStaticStrokes:
    """Static dephasing and closed strokes are exact in the energy eigenbasis."""

    @pytest.fixture
    def no_solver(self, monkeypatch):
        def solve_ivp(*args, **kwargs):
            raise AssertionError("fock_oracle.solve_ivp was called")

        monkeypatch.setattr(fock_oracle, "solve_ivp", solve_ivp)

    @pytest.mark.parametrize("gamma_d", [0.02, None], ids=["dephasing", "closed"])
    def test_static_stroke_takes_no_solve(self, no_solver, gamma_d):
        rho0 = thermal_fock_state(5.0, 1.0, 8)
        integrate_lindblad(rho0, FrequencyProtocol.constant(5.0, 1.0),
                           gamma_d=gamma_d, n_samples=5)

    def test_driven_stroke_still_solves(self, no_solver):
        rho0 = thermal_fock_state(5.0, 1.0, 8)
        with pytest.raises(AssertionError, match="solve_ivp was called"):
            integrate_lindblad(rho0, build_constant_mu_protocol(5.0, 4.5, -0.3),
                               gamma_d=0.02, n_samples=5)

    def test_recognised_from_samples_not_family(self, no_solver):
        # a constant omega given as plain callables has no "family" in meta
        rho0 = gaussian_fock_state(ObservableVector(h=7.0, l=1.2, c=-0.8), 6.0, 40)
        plain = FrequencyProtocol.from_callables(
            2.0, lambda t: np.full_like(t, 6.0), lambda t: np.zeros_like(t))
        ref = FrequencyProtocol.constant(6.0, 2.0)
        got = integrate_lindblad(rho0, plain, gamma_d=0.01, n_samples=9)
        want = integrate_lindblad(rho0, ref, gamma_d=0.01, n_samples=9)
        assert np.array_equal(np.array(got), np.array(want))

    @pytest.mark.parametrize("gamma_d", [0.0, 0.02], ids=["closed", "dephasing"])
    def test_squeezed_stroke_matches_moment_propagation(self, no_solver, gamma_d):
        # a squeezed state has energy-basis coherences, which rotate at the
        # gaps and decay at gamma_d times their squares; a thermal state has
        # none and would not see gamma_d at all
        v0 = ObservableVector(h=7.0, l=1.2, c=-0.8)
        prot = FrequencyProtocol.constant(6.0, 2.0)
        rho0 = gaussian_fock_state(v0, 6.0, 60)
        _, h, l, c = integrate_lindblad(rho0, prot, gamma_d=gamma_d, n_samples=41)
        traj = propagate_dephasing(v0, prot, gamma_d, n_samples=41)
        assert np.max(np.abs(traj.vectors[:, :3].T - [h, l, c])) < 1e-9 * np.max(h)


class TestArguments:
    @pytest.mark.parametrize("bath", [None, BathSpec(5.0, 0.05)],
                             ids=["dephasing", "open"])
    def test_zero_duration_gives_initial_moments(self, bath):
        v0 = ObservableVector(h=7.0, l=1.2, c=-0.8)
        rho0 = gaussian_fock_state(v0, 5.0, 40)
        times, h, l, c = integrate_lindblad(
            rho0, FrequencyProtocol.constant(5.0, 0.0), bath=bath)
        assert times.tolist() == [0.0]
        assert [h.shape, l.shape, c.shape] == [(1,)] * 3
        assert h[0] == pytest.approx(v0.h, rel=1e-9)
        assert l[0] == pytest.approx(v0.l, rel=1e-8)
        assert c[0] == pytest.approx(v0.c, rel=1e-8)

    @pytest.mark.parametrize("n_samples", [0, 1])
    @pytest.mark.parametrize("duration", [0.0, 0.2])
    def test_too_few_samples_rejected(self, n_samples, duration):
        rho0 = thermal_fock_state(5.0, 1.0, 8)
        with pytest.raises(DomainError, match=f"at least 2 samples, got {n_samples}"):
            integrate_lindblad(rho0, FrequencyProtocol.constant(5.0, duration),
                               n_samples=n_samples)

    def test_bath_with_dephasing_rejected(self):
        rho0 = thermal_fock_state(5.0, 1.0, 8)
        with pytest.raises(DomainError, match="not both"):
            integrate_lindblad(rho0, FrequencyProtocol.constant(5.0, 0.2),
                               bath=BathSpec(5.0, 0.05), gamma_d=0.01)

    @pytest.mark.parametrize("gamma_d", [-0.01, float("nan"), float("inf")],
                             ids=["negative", "nan", "inf"])
    def test_negative_dephasing_rejected(self, gamma_d):
        rho0 = thermal_fock_state(5.0, 1.0, 8)
        with pytest.raises(DomainError, match="non-negative"):
            integrate_lindblad(rho0, FrequencyProtocol.constant(5.0, 0.2),
                               gamma_d=gamma_d)


class TestReference:
    """The split solves against one joint (U, rho_int) solve."""

    @pytest.mark.parametrize("protocol, bath, gamma_d, squeezed", [
        # Long static strokes: without the stability bound on the step the
        # open one drifts by about 3e-8.  The dephasing one is exact in the
        # energy eigenbasis; integrated without the bound it drifted by about
        # 1e-3, as its thermal state has no coherences for the error estimate
        # to see (nor for gamma_d to act on: TestStaticStrokes checks those).
        # The open one is as long as criterion 7's shortest.
        (FrequencyProtocol.constant(5.38, 2.26), BathSpec(6.0, 0.06), None, True),
        (build_constant_mu_protocol(9.4, 12.2, 0.6), BathSpec(4.0, 0.05), None,
         True),
        (FrequencyProtocol.constant(5.0, 1.0), None, 0.02, False),
        (build_constant_mu_protocol(7.0, 5.6, -0.4), None, 0.005, True),
    ], ids=["static-open", "driven-open", "static-dephasing", "driven-dephasing"])
    def test_matches_joint_solve(self, protocol, bath, gamma_d, squeezed):
        w0 = float(protocol.omega(0.0))
        v = thermal_observable_vector(w0, 5.0)
        if squeezed:
            v = ObservableVector(h=v.h * 1.02, l=0.15 * v.h, c=-0.1 * v.h)
        rho0 = gaussian_fock_state(v, w0, 60)
        _, h, l, c = integrate_lindblad(rho0, protocol, bath=bath,
                                        gamma_d=gamma_d, n_samples=41)
        ref = joint_reference(rho0, protocol, bath, gamma_d)
        assert np.max(np.abs(np.array([h, l, c]) - ref)) < 1e-9 * np.max(np.abs(h))

    def test_step_bounds_inside_stability_region(self):
        # |R(z)| <= 1 on the left half-disc of the larger step radius, with
        # R the stability function of scipy's DOP853 coefficients
        n = dop853_coefficients.N_STAGES
        a = dop853_coefficients.A[:n, :n]
        b = dop853_coefficients.B
        radius = max(OPEN_STEP_RADIUS, COHERENT_STEP_RADIUS)
        for z in radius * np.linspace(0.02, 1.0, 50)[:, None] \
                * np.exp(1j * np.linspace(np.pi / 2, 3 * np.pi / 2, 181)):
            for zk in z:
                r = 1.0 + zk * b @ np.linalg.solve(np.eye(n) - zk * a, np.ones(n))
                assert abs(r) <= 1.0 + 1e-12
