import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from carnotlab.core import (BathSpec, FrequencyProtocol, ObservableVector,
                            _GridSpline, dressed_rates,
                            thermal_observable_vector)
from carnotlab import dynamics
from carnotlab.cycle_engine import (StrokeDescriptor, assemble_cycle,
                                    run_to_limit_cycle)
from carnotlab.dynamics import (MAGNUS_TARGET, Trajectory, free_propagator,
                                generator, propagate_dephasing,
                                propagate_open, propagate_unitary,
                                stroke_propagators)
from carnotlab.errors import DomainError, NumericalError
from carnotlab.presets import get_preset
from carnotlab.protocols import (build_constant_mu_protocol, build_sta_protocol,
                                 build_ste_protocol)
from carnotlab.thermo import spec_for_sweep_value

from conftest import propagate_ste_beta


class TestNameRates:
    """Rates of the non-adiabatic master equation (NAME): core.dressed_rates,
    with the modified frequency alpha = w kappa / 2."""

    def test_static_drive(self):
        k_down, _, kappa = dressed_rates(5.0, 0.0, BathSpec(5.0, 0.05))
        n = 1.0 / (math.e - 1.0)
        assert 0.5 * 5.0 * kappa == 5.0
        assert k_down == pytest.approx((5.0 * 0.05 / 2.0) * (1.0 + n), rel=1e-14)
        assert k_down == pytest.approx(0.19775, abs=5e-6)

    @given(st.floats(1.0, 15.0), st.floats(-1.5, 1.5), st.floats(1.0, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_detailed_balance(self, omega, mu, temp):
        k_down, k_up, kappa = dressed_rates(omega, mu, BathSpec(temp, 0.05))
        alpha = 0.5 * omega * kappa
        assert k_down / k_up == pytest.approx(math.exp(alpha / temp), rel=1e-12)
        assert k_down > k_up > 0
        assert alpha <= omega * (1 + 1e-15)

    def test_modified_frequency(self):
        _, _, kappa = dressed_rates(10.0, 0.5, BathSpec(8.0, 0.05))
        assert 0.5 * 10.0 * kappa == pytest.approx(
            10.0 * math.sqrt(1 - 0.25 / 4), rel=1e-14)

    def test_fast_drive_rejected(self):
        with pytest.raises(DomainError):
            dressed_rates(5.0, 2.0, BathSpec(5.0, 0.05))
        with pytest.raises(DomainError):
            generator(5.0, 2.0 * 25.0, BathSpec(5.0, 0.05))

    def test_cold_bath_finite(self):
        # hbar alpha / k_B T = 1000: far beyond where exp(x) overflows
        k_down, k_up, _ = dressed_rates(10.0, 0.0, BathSpec(0.01))
        assert math.isfinite(k_down) and math.isfinite(k_up)
        assert k_up >= 0.0
        assert k_down == pytest.approx(0.5 * 10.0 * 0.05, rel=1e-15)


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

    @pytest.mark.parametrize("mu", [2.0, -2.0, 3.0])
    def test_mu_outside_the_domain_rejected(self, mu):
        with pytest.raises(DomainError, match=r"^\|mu\| must be below 2$"):
            free_propagator(5.0, mu, 0.01)


class TestPropagateUnitary:
    def test_stationary_at_constant_omega(self):
        prot = FrequencyProtocol.constant(5.0, 4.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        traj = propagate_unitary(v0, prot)
        assert np.max(np.abs(traj.vectors - v0.as_array())) < 1e-10

    def test_constant_mu_matches_free_propagator(self):
        # every sampled map of both unitary constant-mu strokes, short to long
        for tau in (8.0, 32.0, 250.0):
            strokes = assemble_cycle(get_preset("endo-global", cycle_time=tau))
            for s in strokes[1::2]:
                prop = stroke_propagators(s.protocol)
                expect = np.array([free_propagator(
                    s.protocol.meta["omega_initial"], s.protocol.meta["mu"], t)
                    for t in prop.times])
                assert np.max(np.abs(prop.maps[:, :4, :4] - expect)) <= 1e-12

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
        k_down, k_up, _ = dressed_rates(5.0, 0.0, bath)
        gamma = k_down - k_up
        g = generator(5.0, 0.0, bath)
        # displacing h only decays at Gamma = k_down - k_up
        assert g[0, 0] == pytest.approx(-gamma, rel=1e-14)
        assert g[1, 1] == pytest.approx(-gamma, rel=1e-14)
        assert g[2, 2] == pytest.approx(-gamma, rel=1e-14)
        # dephasing adds -4 gamma_d w^2 on l and c only, with or without a bath
        for b in (None, bath):
            d = generator(5.0, 0.0, b, gamma_d=1e-3) - generator(5.0, 0.0, b)
            expect = np.zeros((5, 5))
            expect[1, 1] = expect[2, 2] = -4.0 * 1e-3 * 25.0
            assert np.allclose(d, expect, atol=1e-15)

    def test_fast_path_matches_reference(self, hot_bath):
        # the batched generator equals the scalar one at every Magnus node of
        # a closed-form (constant-mu) and a grid (STE spline) protocol
        cases = [(build_constant_mu_protocol(9.0, 6.0, -0.22), BathSpec(6.5, 0.04)),
                 (build_ste_protocol(10.0, 8.0, 20.0, hot_bath)[0], hot_bath)]
        for prot, bath in cases:
            h = prot.duration / 8000
            nodes = (np.arange(8000)[:, None]
                     + 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0) * h
            w, wd = prot.omega(nodes), prot.omega_dot(nodes)
            for gamma_d in (0.0, 2e-3):
                batched = generator(w, wd, bath, gamma_d=gamma_d)
                assert batched.shape == nodes.shape + (5, 5)
                ref = np.array([[generator(float(a), float(b), bath, gamma_d=gamma_d)
                                 for a, b in zip(ra, rb)] for ra, rb in zip(w, wd)])
                assert np.allclose(batched, ref, rtol=1e-12, atol=0.0)


def _dop853_transfer_matrix(stroke):
    """Reference transfer matrix: DOP853 on the scalar generator."""
    prot = stroke.protocol

    def rhs(t, y):
        g = generator(float(prot.omega(t)), float(prot.omega_dot(t)),
                      stroke.bath, stroke.gamma_d)
        return (g @ y.reshape(5, 5)).ravel()

    sol = solve_ivp(rhs, (0.0, prot.duration), np.eye(5).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:, -1].reshape(5, 5)


class TestPairedFrequency:
    """FrequencyProtocol.frequency, the one pass behind omega, omega_dot, mu,
    sample and the Magnus nodes, against each curve evaluated alone."""

    @staticmethod
    def _curves_alone(prot, source):
        """omega and omega_dot as separate callables of a clamped time, each
        from its own formula: one spline per curve of a grid, the constant
        ``source`` and zeros, or the closed forms on the scaling-function
        polynomial of the ErmakovSolution ``source``, evaluated by
        ``numpy.polynomial``."""
        if prot.grid_times is not None:
            t = prot.grid_times
            h = (t[-1] - t[0]) / (len(t) - 1)
            splines = [_GridSpline(t[0], h, y[None])
                       for y in (prot.grid_omega, prot.grid_omega_dot)]
            return [lambda x, f=f: f(x, 1)[0] for f in splines]
        if isinstance(source, float):
            return (lambda x: source + 0.0 * np.asarray(x),
                    lambda x: 0.0 * np.asarray(x))
        poly, t_f = Polynomial(source.rho.poly), source.t_f

        def rho(x, k):
            return poly.deriv(k)(np.asarray(x, dtype=float) / t_f) * t_f ** -k

        def omega(x):
            r, r2 = rho(x, 0), rho(x, 2)
            return np.sqrt(1.0 / r**4 - r2 / r)

        def omega_dot(x):
            r, r1, r2, r3 = (rho(x, k) for k in range(4))
            dw2 = -4.0 * r1 / r**5 - (r3 * r - r2 * r1) / r**2
            return dw2 / (2.0 * omega(x))

        return omega, omega_dot

    @pytest.mark.parametrize("kind", ["grid", "closed-form", "constant"])
    def test_bit_identical_to_separate_calls(self, kind):
        source = None
        if kind == "grid":
            t = np.linspace(0.0, 2.0, 41)
            prot = FrequencyProtocol.from_grid(t, 5.0 + np.sin(t), np.cos(t))
        elif kind == "closed-form":
            prot, source = build_sta_protocol(5.0, 10.0, 2.0)
        else:
            source = 4.0
            prot = FrequencyProtocol.constant(source, 2.0)
        omega_alone, omega_dot_alone = self._curves_alone(prot, source)
        times = [-0.5, 0.0, 0.3, 1.0, 2.0, 2.5, math.nan]
        rng = np.random.default_rng(12)
        for t in (*times, np.float64(0.7), np.asarray(0.7), np.array(times),
                  rng.uniform(-0.5, 2.5, (3, 64))):
            clamped = prot._clamp(t)
            w, wd = omega_alone(clamped), omega_dot_alone(clamped)
            pair = prot.frequency(t)
            for got, want in ((pair[0], w), (pair[1], wd), (prot.omega(t), w),
                              (prot.omega_dot(t), wd),
                              (prot.mu(t), wd / w**2)):
                assert np.shape(got) == np.shape(want), t
                assert np.array_equal(got, want, equal_nan=True), t
        _, w, wd, mu = prot.sample(101)
        grid = np.linspace(0.0, 2.0, 101)
        assert np.array_equal(w, omega_alone(grid))
        assert np.array_equal(wd, omega_dot_alone(grid))
        assert np.array_equal(mu, wd / w**2)


def _random_stack(rng, norms):
    """5x5 matrices with the given 1-norms."""
    x = rng.standard_normal((len(norms), 5, 5))
    return x * (np.asarray(norms) / np.abs(x).sum(axis=-2).max(axis=-1))[:, None, None]


def _max_expm_deviation(x, e):
    """Largest per-matrix deviation of ``e`` from scipy's expm, relative to
    max|expm(x_i)|."""
    return max(np.max(np.abs(ei - ref)) / np.max(np.abs(ref))
               for ei, ref in zip(e, (expm(xi) for xi in x)))


class TestStackedExponential:
    def test_matches_expm_without_scaling(self):
        rng = np.random.default_rng(5)
        x = _random_stack(rng, rng.uniform(0.0, 0.5, 300))
        assert _max_expm_deviation(x, dynamics._expm_stack(x)) <= 1e-15

    def test_matches_expm_with_squaring(self):
        rng = np.random.default_rng(6)
        x = _random_stack(rng, rng.uniform(0.5, 4.0, 300))
        assert _max_expm_deviation(x, dynamics._expm_stack(x)) <= 1e-13

    def test_mixed_block(self):
        # one norm sets the scaling of the whole block
        rng = np.random.default_rng(7)
        norms = np.full(64, 1e-3)
        norms[17] = 3.0
        x = _random_stack(rng, norms)
        assert _max_expm_deviation(x, dynamics._expm_stack(x)) <= 1e-13

    def test_zero_is_identity(self):
        e = dynamics._expm_stack(np.zeros((3, 5, 5)))
        assert np.array_equal(e, np.broadcast_to(np.eye(5), (3, 5, 5)))

    @pytest.mark.parametrize("k", range(1, 15))
    def test_every_degree_band(self, k):
        # norms just inside both edges of the band where the rule picks
        # degree k: theta_k = ((k + 1)! 2^-53)^(1 / (k + 1)) is the largest
        # norm of degree k, and degree 14 reaches the scaling bound 0.5.
        # Degrees 1 to 3 take blocks of width p = 1, below the p = 3 of
        # degree 14; degrees 4, 6, 9 and 12 a top block of a single term
        def theta(j):
            return (math.factorial(j + 1) * 2.0**-53) ** (1.0 / (j + 1))

        low = theta(k - 1) * (1.0 + 1e-9) if k > 1 else 1e-12
        high = min(theta(k) * (1.0 - 1e-9), dynamics._EXPM_THETA)
        rng = np.random.default_rng(100 + k)
        for norm in (low, math.sqrt(low * high), high):
            assert dynamics._taylor_degree(norm) == k
            x = _random_stack(rng, np.full(20, norm))
            assert dynamics._taylor_degree(
                float(np.abs(x).sum(axis=-2).max())) == k
            assert _max_expm_deviation(x, dynamics._expm_stack(x)) <= 1e-15
        if k < 14:
            assert dynamics._taylor_degree(theta(k) * (1.0 + 1e-9)) == k + 1

    @pytest.mark.parametrize("norm,bound", [(0.4, 1e-15), (3.0, 1e-13)])
    def test_structured_stack(self, norm, bound):
        # a zero identity row and a zero work column, as every Magnus step
        # has, give an exact identity row and work column
        rng = np.random.default_rng(9)
        x = rng.standard_normal((32, 5, 5))
        x[:, 3, :] = 0.0
        x[:, :, 4] = 0.0
        x *= norm / np.abs(x).sum(axis=-2).max()
        e = dynamics._expm_stack(x)
        assert np.array_equal(e[:, 3, :], np.broadcast_to(np.eye(5)[3], (32, 5)))
        assert np.array_equal(e[:, :, 4], np.broadcast_to(np.eye(5)[4], (32, 5)))
        assert _max_expm_deviation(x, e) <= bound

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        x = np.zeros((4, 5, 5))
        x[2, 1, 3] = bad
        with pytest.raises(NumericalError):
            dynamics._expm_stack(x)

    @pytest.mark.parametrize("preset,tau", [("carnot-shortcut", 250.0),
                                            ("endo-global", 8.0)])
    def test_magnus_steps_match_expm(self, preset, tau, monkeypatch):
        calls = []
        original = dynamics._expm_stack

        def recorded(x):
            calls.append((x, original(x)))
            return calls[-1][1]

        monkeypatch.setattr(dynamics, "_expm_stack", recorded)
        for s in assemble_cycle(get_preset(preset, cycle_time=tau)):
            calls.clear()
            n = stroke_propagators(s.protocol, s.bath, s.gamma_d).steps
            # the rungs of the doubling ladder, 400, 800, ... 400 * 2^(k - 1)
            # steps, then the chosen steps unless they are the last rung's
            total = sum(len(x) for x, _ in calls)
            assert any(total == 400 * (2**k - 1)
                       + (0 if n == 400 * 2**(k - 1) else n)
                       for k in range(2, 9))
            first = 0
            pilot_only, used = [], []
            for x, e in calls:
                kept = first >= total - n
                (used if kept else pilot_only).append((x, e))
                first += len(x)
            # every step of the returned propagator
            assert max(_max_expm_deviation(x, e) for x, e in used) <= 1e-15
            # pilot-only steps of long strokes reach 1-norm 8, where expm
            # itself is 5e-14 off a 34-digit reference (this one is 1.6e-15)
            assert max(_max_expm_deviation(x, e) for x, e in pilot_only) <= 1e-13

    def test_non_finite_protocol_names_time(self):
        prot = FrequencyProtocol.from_callables(
            1.0, lambda t: np.where(t < 0.3, 5.0, np.nan),
            lambda t: np.zeros_like(t))
        for n_samples in (2, dynamics.DEFAULT_SAMPLES):
            with pytest.raises(NumericalError, match="at t = ") as err:
                stroke_propagators(prot, n_samples=n_samples)
            assert err.value.diagnostics["duration"] == 1.0
            assert 0.3 <= err.value.time <= 0.3 + 1.0 / 8000


DOP853_PRESETS = [("carnot-shortcut", 250.0), ("endo-shortcut", 250.0),
                  ("endo-shortcut", 40.0), ("table1-literal", 40.0),
                  ("endo-global", 40.0), ("endo-global", 8.0)]
#: The feasible short cycle times of criteria 2-4 and criterion 6's
#: dephasing strengths at tau = 8.
SWEEP_TAUS = (16.0, 18.0, 20.0, 23.0, 26.0, 30.0, 33.0, 36.0, 40.0, 44.0)
KILL_SWITCH_GAMMAS = tuple(
    float(g) for g in np.logspace(math.log10(3e-5), math.log10(3e-2), 7))


class TestStrokePropagators:
    def test_zero_duration_is_the_identity(self):
        prop = stroke_propagators(FrequencyProtocol.constant(5.0, 0.0),
                                  BathSpec(5.0, 0.05))
        assert np.array_equal(prop.times, [0.0])
        assert np.array_equal(prop.maps, np.eye(5)[None])
        assert prop.steps == 0 and prop.error == 0.0

    @pytest.mark.parametrize("preset,tau", DOP853_PRESETS)
    def test_matches_dop853_reference(self, preset, tau):
        # constant-mu unitary strokes are checked against free_propagator
        for s in assemble_cycle(get_preset(preset, cycle_time=tau)):
            if s.bath is None and s.protocol.meta.get("family") == "constant_mu":
                continue
            ref = _dop853_transfer_matrix(s)
            m = stroke_propagators(s.protocol, s.bath, s.gamma_d).maps[-1]
            assert np.max(np.abs(m - ref)) <= 1e-10 * np.max(np.abs(ref)), s.label

    @pytest.mark.parametrize("preset,n_samples,steps", [
        ("carnot-shortcut", dynamics.DEFAULT_SAMPLES, [3200, 800, 3200, 800]),
        ("carnot-shortcut", 2, [3200, 256, 3200, 344]),
        ("endo-global", dynamics.DEFAULT_SAMPLES, [800, 800, 800, 800]),
        ("endo-global", 2, [800, 800, 800, 800])])
    def test_step_counts_at_tau_250(self, preset, n_samples, steps):
        # a change to the step arithmetic must not shift N unnoticed
        spec = get_preset(preset, cycle_time=250.0)
        assert run_to_limit_cycle(
            spec, n_samples=n_samples).magnus_steps == steps

    def test_sampled_strokes_evaluate_the_fewest_steps(self, monkeypatch):
        # the open strokes read their order on the 800/1600/3200 rungs and
        # reuse the 3200-step rung: 6000 steps each, the adiabats 1200
        rows = []
        original = dynamics._magnus_steps

        def counted(protocol, starts, *args):
            rows.append(len(starts))
            return original(protocol, starts, *args)

        monkeypatch.setattr(dynamics, "_magnus_steps", counted)
        run_to_limit_cycle(get_preset("carnot-shortcut", cycle_time=250.0))
        assert sum(rows) <= 14400

    @pytest.mark.parametrize("preset,tau,gamma_d,steps", [
        ("carnot-shortcut", 16.0, 0.0, [347, 256, 315, 344]),
        ("carnot-shortcut", 18.0, 0.0, [395, 256, 352, 344]),
        ("carnot-shortcut", 20.0, 0.0, [429, 256, 384, 344]),
        ("carnot-shortcut", 23.0, 0.0, [484, 256, 428, 344]),
        ("carnot-shortcut", 26.0, 0.0, [528, 256, 470, 344]),
        ("carnot-shortcut", 30.0, 0.0, [584, 256, 520, 344]),
        ("carnot-shortcut", 33.0, 0.0, [623, 256, 554, 344]),
        ("carnot-shortcut", 36.0, 0.0, [659, 256, 587, 344]),
        ("carnot-shortcut", 40.0, 0.0, [704, 256, 627, 344]),
        ("carnot-shortcut", 44.0, 0.0, [747, 256, 665, 344]),
        *(("endo-global", 8.0, g, [256] * 4)
          for g in (0.0,) + KILL_SWITCH_GAMMAS)])
    def test_sweep_step_counts(self, preset, tau, gamma_d, steps):
        # the two-sample strokes of the short sweeps: an open stroke whose
        # 64-step rung is past the bound (the expansion from tau 24, the
        # compression from tau 30) reads its order on rungs of n0, 2 n0 and
        # 4 n0 steps, n0 = ceil(64 h|G|_1 / 3), and takes N below 800
        spec = get_preset(preset, cycle_time=tau, gamma_dephasing=gamma_d)
        assert [stroke_propagators(s.protocol, s.bath, s.gamma_d, 2).steps
                for s in assemble_cycle(spec)] == steps

    def test_two_samples_past_the_bound_take_fewer_steps(self, monkeypatch):
        # the carnot-shortcut open strokes at tau 26-44 whose 64-step rung
        # is past the bound read their order on rungs inside it and take N
        # below 800.  The rungs of each evaluate fewer steps than the 64-step
        # rung and the 400/800 pilots, and the 11 strokes fewer in all than
        # the pilot rule made them evaluate: 64 + 1200 steps per stroke, plus
        # its N where N > 800 (1264 to 2293 per stroke, 17585 in all)
        pilot_steps = {(26.0, 0): 800, (30.0, 0): 800, (30.0, 2): 800,
                       (33.0, 0): 800, (33.0, 2): 800, (36.0, 0): 851,
                       (36.0, 2): 800, (40.0, 0): 941, (40.0, 2): 800,
                       (44.0, 0): 1029, (44.0, 2): 860}
        rows = []
        original = dynamics._magnus_steps

        def counted(protocol, starts, *args):
            rows.append(len(starts))
            return original(protocol, starts, *args)

        strokes = {
            (tau, i): s for tau in SWEEP_TAUS
            for i, s in enumerate(assemble_cycle(
                get_preset("carnot-shortcut", cycle_time=tau)))
            if dynamics._interval_maps(s.protocol, 64, 1, s.bath,
                                       s.gamma_d)[1] > 3.0}
        assert strokes.keys() == pilot_steps.keys()
        monkeypatch.setattr(dynamics, "_magnus_steps", counted)
        total = 0
        for key, s in strokes.items():
            rows.clear()
            steps = stroke_propagators(s.protocol, s.bath, s.gamma_d, 2).steps
            assert steps < 800, key
            assert sum(rows) - steps < 64 + 1200, key
            total += sum(rows)
        assert total < sum(64 + 1200 + (n if n > 800 else 0)
                           for n in pilot_steps.values())

    def test_far_past_the_bound_takes_the_doubling_rule(self):
        # the dephased adiabats of endo-global@250 at gamma_d 3 would need
        # rungs of more steps than the pilots
        spec = get_preset("endo-global", cycle_time=250.0, gamma_dephasing=3.0)
        for s in assemble_cycle(spec)[1::2]:
            maps_at = functools.partial(dynamics._interval_maps, s.protocol,
                                        bath=s.bath, gamma_d=s.gamma_d)
            assert dynamics._ladder_rule(s.protocol, maps_at, s.gamma_d) is None
            assert stroke_propagators(s.protocol, s.bath, s.gamma_d,
                                      2).steps >= 800

    def test_steps_are_sixth_order(self):
        # doubling the steps of a smooth stroke cuts the error 2^6-fold
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        ref = _dop853_transfer_matrix(StrokeDescriptor("sta", prot))
        err = [np.max(np.abs(dynamics._interval_maps(prot, n, 1, None, 0.0)[0][0]
                             - ref)) for n in (80, 160)]
        assert err[0] / err[1] > 40.0

    def test_needs_two_samples(self):
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        for n in (1, 0):
            with pytest.raises(DomainError):
                stroke_propagators(prot, n_samples=n)
        traj = propagate_unitary(thermal_observable_vector(5.0, 5.0), prot,
                                 n_samples=2)
        assert traj.work == pytest.approx(traj.energy_change, rel=1e-9)
        assert traj.work > 5.0

    def test_inertial_limit_names_time(self):
        # omega = 2 - 2t: |mu| = 2 / (2 - 2t)^2 crosses 2 at t = 0.5
        t = np.linspace(0.0, 0.9, 901)
        prot = FrequencyProtocol.from_grid(t, 2.0 - 2.0 * t, np.full_like(t, -2.0))
        for n_samples in (2, dynamics.DEFAULT_SAMPLES):
            with pytest.raises(DomainError, match="at t = ") as err:
                stroke_propagators(prot, BathSpec(5.0, 0.05),
                                   n_samples=n_samples)
            t_bad = float(str(err.value).rsplit("at t = ", 1)[1])
            assert 0.5 <= t_bad <= 0.5 + 2.0 * 0.9 / 8000

    @staticmethod
    def _assert_error_estimate_is_honest(s, n_samples=2):
        # the chosen product is within twice the target of one 4x finer
        prop = stroke_propagators(s.protocol, s.bath, s.gamma_d, n_samples)
        m = prop.maps[-1]
        finer = dynamics._interval_products(dynamics._interval_maps(
            s.protocol, 4 * prop.steps, 1, s.bath, s.gamma_d)[0][None])[0]
        assert np.max(np.abs(m - finer)) <= \
            2.0 * MAGNUS_TARGET * np.max(np.abs(m)), s.label
        assert prop.error <= MAGNUS_TARGET

    @pytest.mark.parametrize("preset,tau", DOP853_PRESETS)
    def test_error_estimate_is_honest(self, preset, tau):
        for s in assemble_cycle(get_preset(preset, cycle_time=tau)):
            self._assert_error_estimate_is_honest(s)

    @pytest.mark.parametrize("preset,tau", DOP853_PRESETS)
    def test_pilot_error_estimate_is_honest(self, preset, tau):
        # three samples keep the 400/800 pilots that two samples leave
        for s in assemble_cycle(get_preset(preset, cycle_time=tau)):
            self._assert_error_estimate_is_honest(s, n_samples=3)

    @pytest.mark.parametrize("preset,tau", DOP853_PRESETS)
    def test_sampled_error_estimate_is_honest(self, preset, tau):
        # the sampled strokes of a cycle, whose open strokes at tau = 250
        # read their order on the doubling ladder
        for s in assemble_cycle(get_preset(preset, cycle_time=tau)):
            self._assert_error_estimate_is_honest(
                s, n_samples=dynamics.DEFAULT_SAMPLES)

    @pytest.mark.parametrize("ratio,tau", [(1.8, 20.0), (2.5, 20.0),
                                           (2.5, 30.0)])
    def test_error_estimate_is_honest_off_the_presets(self, ratio, tau):
        # STE open strokes of a compression-ratio sweep, read on the ladder
        # as N^-6 (tau 20) or left to the pilots (tau 30), and adiabats
        # whose ladder ratio of 62 reads as N^-4
        spec = spec_for_sweep_value(get_preset("carnot-shortcut",
                                               cycle_time=tau),
                                    "compression_ratio", ratio)
        for s in assemble_cycle(spec):
            self._assert_error_estimate_is_honest(s)

    @pytest.mark.parametrize("preset,tau,gamma_d", [
        *(("carnot-shortcut", tau, 0.0) for tau in SWEEP_TAUS),
        *(("endo-global", 8.0, g) for g in KILL_SWITCH_GAMMAS)])
    def test_error_estimate_is_honest_on_sweep_strokes(self, preset, tau,
                                                       gamma_d):
        # the short strokes of criteria 2-4 and criterion 6's sweeps
        spec = get_preset(preset, cycle_time=tau, gamma_dephasing=gamma_d)
        for s in assemble_cycle(spec):
            self._assert_error_estimate_is_honest(s)

    def test_error_estimate_is_honest_past_the_radius(self):
        # the 800-step pilot's dephased adiabat steps are past the Magnus
        # radius, so the estimate comes from pilots whose steps are inside it
        spec = get_preset("endo-global", cycle_time=250.0, gamma_dephasing=3.0)
        for s in assemble_cycle(spec)[1::2]:
            assert dynamics._interval_maps(s.protocol, 800, 1, None,
                                           s.gamma_d)[1] > 50.0
            self._assert_error_estimate_is_honest(s)

    def test_short_strokes_take_the_least_steps(self):
        # endo-global@8 strokes are at roundoff on the finer pilot's grid
        for s in assemble_cycle(get_preset("endo-global", cycle_time=8.0)):
            assert stroke_propagators(s.protocol, s.bath, s.gamma_d).steps == 800

    def test_least_steps_with_two_samples(self):
        # two samples take the ladder's steps, more keep the pilot rule's
        # floor of 800 rounded up to a multiple of the sample intervals
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        maps_at = functools.partial(dynamics._interval_maps, prot, bath=None,
                                    gamma_d=0.0)
        assert stroke_propagators(prot, n_samples=2).steps == \
            dynamics._ladder_rule(prot, maps_at, 0.0)[0] == 389
        assert stroke_propagators(prot, n_samples=4).steps == 801

    @pytest.mark.parametrize("gamma_d", (0.0,) + KILL_SWITCH_GAMMAS)
    def test_short_transfer_matrices_take_the_ladder_steps(self, gamma_d):
        # endo-global@8 strokes are resolved on the ladder's finest rung
        spec = get_preset("endo-global", cycle_time=8.0, gamma_dephasing=gamma_d)
        for s in assemble_cycle(spec):
            assert stroke_propagators(s.protocol, s.bath, s.gamma_d,
                                      2).steps <= 256, s.label

    def test_unresolvable_stroke_fails(self):
        # modulated at 20 rad per time unit for 50: the pilots differ by 4e-2
        prot = FrequencyProtocol.from_callables(
            50.0, lambda t: 5.0 + np.sin(20.0 * t),
            lambda t: 20.0 * np.cos(20.0 * t))
        for n_samples in (2, dynamics.DEFAULT_SAMPLES):
            with pytest.raises(NumericalError, match="Magnus steps") as err:
                stroke_propagators(prot, n_samples=n_samples)
            assert err.value.diagnostics["steps"] > 80000

    def test_scan_equals_sequential_product(self):
        s = assemble_cycle(get_preset("carnot-shortcut", cycle_time=250.0))[0]
        steps = stroke_propagators(s.protocol, s.bath).steps
        intervals = dynamics._interval_maps(s.protocol, steps, 800, s.bath, 0.0)[0]
        scan = dynamics._prefix_products(intervals)
        phi = np.eye(5)
        sequential = []
        for m in intervals:
            phi = m @ phi
            sequential.append(phi)
        sequential = np.array(sequential)
        assert np.max(np.abs(scan - sequential)) <= \
            1e-14 * np.max(np.abs(sequential))

    def test_last_product_is_the_scans_last_map(self):
        # the pilot's estimate is the transfer matrix its scan would give
        rng = np.random.default_rng(8)
        for n in (*range(1, 130), 800, 801, 1000, 1600, 4800):
            maps = rng.normal(size=(n, 5, 5)) / 2.0
            assert np.array_equal(dynamics._last_product(maps),
                                  dynamics._prefix_products(maps)[-1]), n

    def test_blocked_scan_across_block_edges(self):
        # sizes on both sides of one, two and three levels of blocks: every
        # map of the scan is the last product of the maps up to it, and
        # within roundoff of the sequential product
        rng = np.random.default_rng(11)
        b = dynamics._SCAN_BLOCK
        for n in (b - 1, b, b + 1, b * b - 1, b * b, b * b + 1,
                  b**3 - 1, b**3 + 1, 3 * b * b + 5):
            maps = np.eye(5) + rng.normal(size=(n, 5, 5)) / 10.0
            scan = dynamics._prefix_products(maps)
            phi, sequential = np.eye(5), []
            for m in maps:
                phi = m @ phi
                sequential.append(phi)
            assert np.max(np.abs(scan - sequential)) <= \
                1e-14 * np.max(np.abs(sequential)), n
            for j in {0, b - 1, b, n // 2, n - 2, n - 1} & set(range(n)):
                assert np.array_equal(dynamics._last_product(maps[:j + 1]),
                                      scan[j]), (n, j)

    def test_one_scan_per_stroke(self, monkeypatch):
        # the open strokes take more steps than the finer pilot, whose
        # interval maps are then not scanned
        scans = []
        original = dynamics._prefix_products

        def counted(maps):
            scans.append(len(maps))
            return original(maps)

        monkeypatch.setattr(dynamics, "_prefix_products", counted)
        run_to_limit_cycle(get_preset("carnot-shortcut", cycle_time=250.0))
        assert scans == [800] * 4

    @pytest.mark.parametrize("n_samples", [2, 3, dynamics.DEFAULT_SAMPLES])
    @pytest.mark.parametrize("preset,tau", DOP853_PRESETS)
    def test_each_product_made_once(self, monkeypatch, preset, tau,
                                    n_samples):
        # the rules and the stroke share one table of (steps, parts)
        # products, so the stroke's own product is never made again
        made = []
        original = dynamics._interval_maps

        def counted(protocol, n_steps, intervals, *args, **kwargs):
            made.append((n_steps, intervals))
            return original(protocol, n_steps, intervals, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_interval_maps", counted)
        for s in assemble_cycle(get_preset(preset, cycle_time=tau)):
            made.clear()
            prop = stroke_propagators(s.protocol, s.bath, s.gamma_d,
                                      n_samples)
            assert len(made) == len(set(made)), (s.label, made)
            assert (prop.steps, n_samples - 1) in made, s.label

    @pytest.mark.parametrize("n_samples", [2, dynamics.DEFAULT_SAMPLES])
    @pytest.mark.parametrize("preset", ["endo-global", "carnot-shortcut"])
    def test_far_past_the_radius_refused_by_its_steps(self, preset,
                                                      n_samples):
        # the pilots' squarings overflow; the pair is taken again inside
        # the radius, and the step cap refuses the stroke without a warning
        s = assemble_cycle(get_preset(preset, cycle_time=1e12))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Magnus steps") as err:
                stroke_propagators(s.protocol, s.bath, s.gamma_d, n_samples)
        assert err.value.diagnostics["steps"] > 1e12

    @pytest.mark.parametrize("n_samples", [2, dynamics.DEFAULT_SAMPLES])
    def test_non_finite_inside_the_radius(self, n_samples):
        # omega_dot = 400 at omega = 1 (not its derivative): the 800 steps
        # have h |G|_1 = 1.5025, but the map grows as exp(800) and overflows
        prot = FrequencyProtocol.from_callables(
            1.0, lambda t: np.ones_like(t), lambda t: np.full_like(t, 400.0))
        with np.errstate(over="ignore", invalid="ignore"):
            maps, step_norm = dynamics._interval_maps(prot, 800, 1, None, 0.0)
        assert step_norm == 1.5025 and not np.all(np.isfinite(maps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="^stroke propagator is not finite$"):
                stroke_propagators(prot, n_samples=n_samples)

    @pytest.mark.parametrize("n_samples", [2, dynamics.DEFAULT_SAMPLES])
    @pytest.mark.parametrize("located", ["inertial", "non-finite"])
    def test_located_error_carries_its_time(self, located, n_samples):
        if located == "inertial":
            t = np.linspace(0.0, 0.9, 901)
            prot = FrequencyProtocol.from_grid(t, 2.0 - 2.0 * t,
                                               np.full_like(t, -2.0))
            bath, kind = BathSpec(5.0, 0.05), DomainError
        else:
            prot = FrequencyProtocol.from_callables(
                1.0, lambda t: np.where(t < 0.3, 5.0, np.nan),
                lambda t: np.zeros_like(t))
            bath, kind = None, NumericalError
        with pytest.raises(kind) as err:
            stroke_propagators(prot, bath, n_samples=n_samples)
        assert str(err.value).endswith(f" at t = {err.value.time:.6g}")


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
        k_down, k_up, _ = dressed_rates(5.0, 0.0, bath)
        prot = FrequencyProtocol.constant(5.0, 3.0)
        ref = thermal_observable_vector(5.0, 5.0)
        v0 = ObservableVector(h=ref.h + 1.0, l=0.0, c=0.0)
        traj = propagate_open(v0, prot, bath)
        expected = ref.h + math.exp(-(k_down - k_up) * 3.0)
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
        times, beta = propagate_ste_beta(-1.0, sol.protocol, hot_bath)
        assert np.max(np.abs(beta + 1.0)) < 1e-12

    def test_tracks_designed_polynomial(self, hot_bath):
        _, sol = build_ste_protocol(10.0, 8.0, 15.0, hot_bath)
        times, beta = propagate_ste_beta(sol.target_initial, sol.protocol, hot_bath)
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
    def test_decreasing_times_rejected(self):
        with pytest.raises(DomainError, match="non-decreasing"):
            Trajectory(times=np.array([0.0, 1.0, 0.5]), vectors=np.zeros((3, 4)),
                       omegas=np.ones(3), work=0.0, heat=0.0)

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


class TestNonFiniteDephasing:
    @pytest.mark.parametrize("gamma_d", [-1.0, math.nan])
    def test_stroke_propagators_rejects(self, gamma_d):
        # no node of the stroke fails, so the generator's error stands,
        # with no time
        with pytest.raises(DomainError, match="^dephasing strength must be "
                                              "finite and non-negative") as err:
            stroke_propagators(FrequencyProtocol.constant(5.0, 1.0),
                               gamma_d=gamma_d)
        assert err.value.time is None

    @pytest.mark.parametrize("gamma_d", [math.nan, math.inf])
    def test_generator_rejects(self, gamma_d):
        with pytest.raises(DomainError, match="finite"):
            generator(5.0, 0.0, None, gamma_d)

    @pytest.mark.parametrize("gamma_d", [math.nan, math.inf])
    def test_propagate_dephasing_rejects(self, gamma_d):
        with pytest.raises(DomainError, match="finite"):
            propagate_dephasing(thermal_observable_vector(5.0, 5.0),
                                FrequencyProtocol.constant(5.0, 1.0), gamma_d)
