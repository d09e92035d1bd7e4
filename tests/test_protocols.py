import math
import re
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from carnotlab.core import BathSpec, spline_slopes, thermal_observable_vector
from carnotlab.cycle_engine import assemble_cycle
from carnotlab.dynamics import propagate_open, propagate_unitary
from carnotlab.errors import DomainError, InfeasibleStroke, InvalidProtocol
from carnotlab.presets import get_preset
from carnotlab.protocols import (_PolyEval, _quintic, _scalar_root,
                                 build_constant_mu_protocol,
                                 build_sta_protocol,
                                 build_ste_nonthermal_protocol,
                                 build_ste_protocol, constant_mu_duration,
                                 load_protocol, save_protocol,
                                 sta_expectation_values)

from conftest import propagate_ste_beta

NON_FINITE = [math.nan, math.inf, -math.inf]
#: Each builder with valid arguments.
VALID_BUILDS = {
    "sta": (build_sta_protocol,
            dict(omega_initial=10.0, omega_final=8.0, t_f=5.0)),
    "constmu": (build_constant_mu_protocol,
                dict(omega_initial=10.0, omega_final=8.0, mu=-0.1)),
    "constmu-equal": (build_constant_mu_protocol,
                      dict(omega_initial=8.0, omega_final=8.0, mu=-0.1)),
    "ste": (build_ste_protocol,
            dict(omega_initial=10.0, omega_final=8.0, t_f=12.0,
                 bath=BathSpec(8.0, 0.05))),
    "ste-nonthermal": (build_ste_nonthermal_protocol,
                       dict(omega_initial=10.0, omega_final=8.0, t_f=12.0,
                            internal_temperature=8.0,
                            bath=BathSpec(7.75, 0.05))),
}


@pytest.mark.parametrize("seed", range(4))
def test_quintic_evaluation_matches_numpy_polynomial(seed):
    # the quintics are summed in numpy.polynomial's order of operations, so
    # every value and derivative has its bits
    rng = np.random.default_rng(seed)
    boundary = rng.normal(size=6) * 10.0 ** rng.integers(-6, 6, size=6)
    coef = _quintic(*boundary)
    t_f = 10.0 ** rng.uniform(-2, 3)
    t = np.concatenate([[0.0, t_f], rng.uniform(0.0, t_f, 200)])
    for order in range(4):
        want = Polynomial(coef).deriv(order)
        scale = np.float64(t_f) ** -order if order else 1.0
        got = _PolyEval(coef, t_f, order)
        assert got(t).tobytes() == (want(t / t_f) * scale).tobytes()
        for x in t[:3]:
            assert got(x).tobytes() == \
                (want(np.asarray(x) / t_f) * scale).tobytes()


class TestStaBuilder:
    def test_identity_protocol(self):
        prot, erm = build_sta_protocol(5.0, 5.0, 3.0)
        t = np.linspace(0, 3.0, 50)
        assert np.allclose(prot.omega(t), 5.0, rtol=1e-13)
        assert np.allclose(prot.omega_dot(t), 0.0, atol=1e-12)

    def test_endpoints(self):
        prot, _ = build_sta_protocol(6.25, 5.0, 5.0)
        assert float(prot.omega(0.0)) == pytest.approx(6.25, rel=1e-10)
        assert float(prot.omega(5.0)) == pytest.approx(5.0, rel=1e-10)

    def test_grid_derivative_consistency(self):
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        assert prot.check_consistency(rtol=1e-6) < 1e-6

    def test_repulsive_trap_refused(self):
        with pytest.raises(InvalidProtocol) as err:
            build_sta_protocol(5.0, 10.0, 0.05)
        assert err.value.time is not None

    @pytest.mark.parametrize("t_f", [1e-110, 5e-324])
    def test_overflowing_scale_refused(self, t_f):
        # t_f^-3, and at 5e-324 t_f^-1, overflow: the ramp is refused by
        # the omega^2 > 0 check without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidProtocol, match="trap frequency "
                                                      "squared") as err:
                build_sta_protocol(5.0, 10.0, t_f)
        assert 0.0 <= err.value.time <= t_f

    def test_population_transfer_via_propagation(self):
        # the unitary stroke map must carry a thermal state to the rescaled
        # diagonal state: zero coherence and h scaled by omega_f/omega_i
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        for temp in (3.0, 5.0, 9.0):
            v0 = thermal_observable_vector(5.0, temp)
            vf = propagate_unitary(v0, prot).final_vector
            assert vf.h == pytest.approx(2.0 * v0.h, rel=1e-8)
            assert abs(vf.l) < 1e-6 * vf.h
            assert abs(vf.c) < 1e-6 * vf.h


class TestStaExpectationValues:
    def test_initial_state_thermal(self):
        _, erm = build_sta_protocol(5.0, 10.0, 5.0)
        v = sta_expectation_values(erm, 5.0, 5.0, 0.0)
        ref = thermal_observable_vector(5.0, 5.0)
        assert v.h == pytest.approx(ref.h, rel=1e-12)
        assert abs(v.l) < 1e-12 and abs(v.c) < 1e-12

    def test_final_state_scaled_diagonal(self):
        _, erm = build_sta_protocol(5.0, 10.0, 5.0)
        v = sta_expectation_values(erm, 5.0, 5.0, 5.0)
        ref = thermal_observable_vector(5.0, 5.0)
        assert v.h == pytest.approx(2.0 * ref.h, rel=1e-12)
        assert abs(v.l) < 1e-10 and abs(v.c) < 1e-10

    def test_matches_moment_integration_midstroke(self):
        prot, erm = build_sta_protocol(5.0, 10.0, 5.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        traj = propagate_unitary(v0, prot, n_samples=11)
        for i, t in enumerate(traj.times):
            ref = sta_expectation_values(erm, 5.0, 5.0, float(t))
            assert traj.vectors[i, 0] == pytest.approx(ref.h, rel=1e-8)
            assert traj.vectors[i, 1] == pytest.approx(ref.l, rel=1e-8, abs=1e-8)
            assert traj.vectors[i, 2] == pytest.approx(ref.c, rel=1e-8, abs=1e-8)

    def test_array_times_stack_the_vectors(self):
        _, erm = build_sta_protocol(5.0, 10.0, 5.0)
        t = np.linspace(0.0, 5.0, 7)
        stacked = sta_expectation_values(erm, 5.0, 5.0, t)
        assert stacked.shape == (7, 4)
        assert np.all(stacked[:, 3] == 1.0)
        for row, ti in zip(stacked, t):
            v = sta_expectation_values(erm, 5.0, 5.0, float(ti))
            assert row[:3] == pytest.approx([v.h, v.l, v.c], rel=1e-14,
                                            abs=1e-14)

    def test_outside_stroke_rejected(self):
        _, erm = build_sta_protocol(5.0, 10.0, 5.0)
        with pytest.raises(DomainError):
            sta_expectation_values(erm, 5.0, 5.0, 6.0)


class TestConstantMu:
    def test_closed_form_and_duration(self):
        mu = -0.02
        prot = build_constant_mu_protocol(9.6875, 7.75, mu)
        assert prot.duration == pytest.approx(
            constant_mu_duration(9.6875, 7.75, mu), rel=1e-15)
        assert float(prot.omega(prot.duration)) == pytest.approx(7.75, rel=1e-12)
        # mu(t) constant to 1e-12 relative at 100 points
        t = np.linspace(0, prot.duration, 100)
        assert np.max(np.abs(prot.mu(t) - mu)) < 1e-12 * abs(mu)

    def test_zero_span_is_empty(self):
        prot = build_constant_mu_protocol(5.0, 5.0, -0.1)
        assert prot.duration == 0.0

    def test_zero_span_records_its_mu(self):
        prot = build_constant_mu_protocol(5.0, 5.0, 0.1)
        assert prot.meta == {"family": "constant_mu", "mu": 0.1,
                             "omega_initial": 5.0, "omega_final": 5.0}
        assert prot.frequency(0.0) == (5.0, 0.0)

    def test_wrong_sign_rejected(self):
        with pytest.raises(DomainError):
            build_constant_mu_protocol(10.0, 8.0, +0.05)
        with pytest.raises(DomainError):
            build_constant_mu_protocol(8.0, 10.0, -0.05)

    def test_mu_zero_rejected(self):
        with pytest.raises(DomainError):
            build_constant_mu_protocol(10.0, 8.0, 0.0)


class TestSteBuilder:
    def test_equal_frequencies_constant(self, hot_bath):
        prot, sol = build_ste_protocol(8.0, 8.0, 10.0, hot_bath)
        t = np.linspace(0, 10.0, 64)
        assert np.allclose(prot.omega(t), 8.0, rtol=1e-12)
        assert np.allclose(sol.alpha_grid, 8.0, rtol=1e-12)

    @pytest.mark.parametrize("temperature", [3.0, 8.0])
    @pytest.mark.parametrize("omega", [5.0, 8.0, 10.0])
    def test_equal_frequencies_static_grid(self, omega, temperature):
        # the inversion itself returns a frozen drive
        prot, _ = build_ste_protocol(omega, omega, 10.0,
                                     BathSpec(temperature, 0.05))
        assert np.ptp(prot.grid_omega) == 0.0
        assert not np.any(prot.grid_omega_dot)
        assert abs(prot.grid_omega[0] - omega) <= 4 * np.spacing(omega)

    def test_endpoints_exact(self, hot_bath):
        prot, _ = build_ste_protocol(10.0, 8.0, 15.0, hot_bath)
        assert float(prot.omega(0.0)) == pytest.approx(10.0, rel=1e-12)
        assert float(prot.omega(15.0)) == pytest.approx(8.0, rel=1e-9)

    def test_grid_derivative_consistency(self, hot_bath, cold_bath):
        for wi, wf, bath in ((10.0, 8.0, hot_bath), (5.0, 6.25, cold_bath)):
            prot, _ = build_ste_protocol(wi, wf, 12.0, bath)
            assert prot.check_consistency(rtol=1e-6) < 1e-6

    def test_alpha_below_omega(self, hot_bath):
        prot, sol = build_ste_protocol(10.0, 8.0, 8.0, hot_bath)
        w = prot.grid_omega
        assert np.all(sol.alpha_grid <= w * (1 + 1e-12))

    def test_state_parameter_bounds(self, hot_bath):
        _, sol = build_ste_protocol(10.0, 8.0, 20.0, hot_bath)
        y = sol.y(sol.times)
        assert np.all(y > 0) and np.all(y < 1)

    def test_beta_ode_self_consistency(self, hot_bath, cold_bath):
        # forward integration of the reduced dynamics along the built drive
        # must reproduce the designed polynomial
        for wi, wf, bath in ((10.0, 8.0, hot_bath), (5.0, 6.25, cold_bath)):
            prot, sol = build_ste_protocol(wi, wf, 10.0, bath)
            times, beta = propagate_ste_beta(sol.target_initial, sol.protocol, bath)
            y_err = np.max(np.abs(np.exp(beta) - sol.y(times)))
            assert y_err < 1e-6

    def test_endpoint_thermal_target(self, hot_bath):
        prot, sol = build_ste_protocol(10.0, 8.0, 20.0, hot_bath)
        times, beta = propagate_ste_beta(sol.target_initial, sol.protocol, hot_bath)
        assert beta[-1] == pytest.approx(-8.0 / 8.0, abs=1e-7)

    def test_total_mu_increases_for_shorter_strokes(self, hot_bath):
        # total variation of 1/omega grows as the stroke is squeezed
        costs = []
        for tf in (40.0, 20.0, 10.0, 5.0):
            prot, _ = build_ste_protocol(10.0, 8.0, tf, hot_bath)
            t, w, wd, mu = prot.sample(4001)
            costs.append(np.trapezoid(np.abs(mu), t))
        assert all(costs[i] < costs[i + 1] for i in range(len(costs) - 1))

    def test_too_fast_is_infeasible(self, hot_bath):
        with pytest.raises(InfeasibleStroke):
            build_ste_protocol(10.0, 8.0, 0.4, hot_bath)

    @pytest.mark.parametrize("preset, tau, overrides, message", [
        # hbar w / kT passes 710 on this stroke, where exp(-beta) overflows
        ("carnot-shortcut", 57.2627,
         dict(coupling=1.626, t_hot_bath=0.013935, t_cold_bath=0.0087095),
         "open-expansion: no drive frequency satisfies the rate equation "
         "at t=0"),
        # the demanded occupation is subnormal here, so 1/nstar overflows
        ("table1-literal", 996.5, dict(t_cold_bath=0.00709),
         "open-compression: no drive frequency satisfies the rate equation "
         "at t=545.809"),
    ], ids=["exp-overflow", "occupation-underflow"])
    def test_cold_bath_fails_typed_without_warnings(self, preset, tau,
                                                    overrides, message):
        spec = get_preset(preset, cycle_time=tau, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleStroke, match=f"^{re.escape(message)}$"):
                assemble_cycle(spec)


class TestSteNonThermal:
    def test_reduces_to_thermal_variant(self, hot_bath):
        p1, _ = build_ste_protocol(10.0, 8.0, 12.0, hot_bath)
        p2, _ = build_ste_nonthermal_protocol(10.0, 8.0, 12.0,
                                              hot_bath.temperature, hot_bath)
        t = np.linspace(0, 12.0, 200)
        assert np.max(np.abs(p1.omega(t) - p2.omega(t))) < 1e-8

    def test_boundary_slope_sign(self):
        # internal hotter than bath: the state starts relaxing toward the bath
        bath = BathSpec(7.75, 0.05)
        _, sol = build_ste_nonthermal_protocol(10.0, 8.0, 12.0, 8.0, bath)
        assert float(sol.beta_dot(0.0)) < 0.0

    def test_endo_stroke_builds(self):
        bath = BathSpec(7.75, 0.05)
        prot, sol = build_ste_nonthermal_protocol(10.0, 8.0, 12.0, 8.0, bath)
        assert float(prot.omega(0.0)) == pytest.approx(10.0, rel=1e-12)
        assert float(prot.omega(12.0)) == pytest.approx(8.0, rel=1e-6)
        # endpoint state holds the internal temperature, not the bath's
        assert sol.target_final == pytest.approx(-8.0 / 8.0, rel=1e-12)

    def test_endpoint_state_internal_temperature(self):
        bath = BathSpec(7.75, 0.05)
        prot, sol = build_ste_nonthermal_protocol(10.0, 8.0, 14.0, 8.0, bath)
        v0 = thermal_observable_vector(10.0, 8.0)
        vf = propagate_open(v0, prot, bath).final_vector
        tgt = thermal_observable_vector(8.0, 8.0)
        assert vf.h == pytest.approx(tgt.h, rel=2e-3)
        assert abs(vf.l) < 2e-3 * tgt.h and abs(vf.c) < 2e-3 * tgt.h

    def test_cold_internal_temperature_slope(self):
        # hbar w / k_B T_int = 1000: e^-beta overflows, and k_up underflows
        # against a bath of like temperature, yet the slope stays finite
        from carnotlab.protocols import _static_beta_dot

        bath = BathSpec(0.0105, 0.05)
        x = 10.0 / bath.temperature
        k_down = 10.0 * 0.05 / 2.0 / -math.expm1(-x)
        slope = _static_beta_dot(10.0, -1000.0, bath, 0.0)
        assert slope == pytest.approx(k_down * math.expm1(1000.0 - x),
                                      rel=1e-12)
        with pytest.raises(InfeasibleStroke, match="t=12 ") as err:
            _static_beta_dot(10.0, -1000.0, BathSpec(1.0, 0.05), 12.0)
        assert err.value.time == 12.0


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, hot_bath):
        prot, _ = build_ste_protocol(10.0, 8.0, 6.0, hot_bath)
        p_csv = tmp_path / "p.csv"
        p_json = tmp_path / "p.json"
        save_protocol(prot, p_csv, p_json)
        loaded = load_protocol(p_csv, p_json)
        p2_csv = tmp_path / "p2.csv"
        save_protocol(loaded, p2_csv, tmp_path / "p2.json")
        assert p_csv.read_bytes() == p2_csv.read_bytes()
        assert loaded.meta["family"] == "ste"

    def test_closed_form_serializes(self, tmp_path):
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        p_csv = tmp_path / "sta.csv"
        save_protocol(prot, p_csv, tmp_path / "sta.json")
        loaded = load_protocol(p_csv, tmp_path / "sta.json")
        t = np.linspace(0, 5.0, 97)
        assert np.max(np.abs(loaded.omega(t) - prot.omega(t))) < 1e-9


class TestNonFiniteArguments:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("builder,argument", [
        (name, arg) for name, (_, kwargs) in VALID_BUILDS.items()
        for arg in kwargs if arg != "bath"])
    def test_domain_error_names_the_argument(self, builder, argument, value):
        build, kwargs = VALID_BUILDS[builder]
        build(**kwargs)
        with pytest.raises(DomainError, match=f"^{argument} must be finite"):
            build(**{**kwargs, argument: value})


class TestArgumentCheck:
    """Every builder refuses an argument outside its domain with the same
    check and message."""

    @pytest.mark.parametrize("builder,argument,value,message", [
        *((name, arg, value, "frequencies must be positive")
          for name in VALID_BUILDS
          for arg in ("omega_initial", "omega_final") for value in (0.0, -5.0)),
        *((name, "t_f", value, "stroke duration must be positive")
          for name in ("sta", "ste", "ste-nonthermal") for value in (0.0, -1.0)),
        *(("ste-nonthermal", "internal_temperature", value,
           "internal temperature must be positive") for value in (0.0, -8.0)),
        *((name, "mu", value, "|mu| must be below 2")
          for name in ("constmu", "constmu-equal")
          for value in (2.0, -2.0, 3.5)),
    ])
    def test_domain_error_message(self, builder, argument, value, message):
        build, kwargs = VALID_BUILDS[builder]
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build(**{**kwargs, argument: value})


class TestGridSpline:
    @pytest.mark.parametrize("preset,tau", [("carnot-shortcut", 16.0),
                                            ("carnot-shortcut", 250.0),
                                            ("endo-shortcut", 40.0)])
    def test_matches_scipy_not_a_knot(self, preset, tau):
        from scipy.interpolate import CubicSpline

        grids = [s.protocol for s in assemble_cycle(get_preset(preset,
                                                               cycle_time=tau))
                 if s.protocol.grid_times is not None]
        assert len(grids) == 2
        for p in grids:
            t = p.grid_times
            t_fine = np.linspace(0.0, p.duration, 20011)
            for y, interpolant in ((p.grid_omega, p.omega),
                                   (p.grid_omega_dot, p.omega_dot)):
                ref = CubicSpline(t, y)(t_fine)
                assert np.max(np.abs(interpolant(t_fine) - ref)) \
                    <= 1e-14 * np.max(np.abs(y))
            slopes = spline_slopes(p.grid_omega, (t[-1] - t[0]) / (len(t) - 1))
            ref = CubicSpline(t, p.grid_omega)(t, 1)
            assert np.max(np.abs(slopes - ref)) \
                <= 1e-10 * np.max(np.abs(p.grid_omega_dot))

    def test_float_path_matches_array_path(self):
        # a float time takes the scalar path, an array the vectorized one;
        # times off the stroke are clamped and a NaN time gives NaN
        p = assemble_cycle(get_preset("carnot-shortcut",
                                      cycle_time=250.0))[0].protocol
        t = np.concatenate((np.linspace(-0.5, p.duration + 0.5, 19997),
                            [0.0, p.duration, math.nan]))
        for fn in (p.omega, p.omega_dot):
            scalar = np.array([fn(float(x)) for x in t])
            assert all(type(fn(float(x))) is float for x in t[:3])
            np.testing.assert_array_equal(scalar.view(np.int64),
                                          fn(t).view(np.int64))
        assert math.isnan(p.omega(math.nan))


def test_bisection_fallback_matches_brentq():
    from scipy.optimize import brentq

    # (ck, n_eq, dcoef, temperature, previous iterate, scale, t) of a grid
    # point where the vectorized Newton iteration stalls, from a drawn cycle
    # of the property test
    ck, n_eq, dcoef, temp = 1.0, 0.006136777097072167, -0.04215528700154528, 1.0
    w = _scalar_root(ck, n_eq, dcoef, temp, 5.099573601154482, 7.5,
                     0.9481657426553423)

    def f(x):
        return x * ck - temp * math.log1p(1.0 / (n_eq + dcoef / x))

    ref = brentq(f, 0.99 * w, 1.01 * w, xtol=1e-14, rtol=1e-15)
    assert abs(w - ref) <= 1e-14 * ref
