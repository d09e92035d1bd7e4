import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import simpson

from carnotlab.core import (BathSpec, FrequencyProtocol, ObservableVector,
                            thermal_observable_vector)
from carnotlab.cycle_engine import CornerGeometry, run_to_limit_cycle
from carnotlab.dynamics import (Trajectory, free_propagator, propagate_open,
                                propagate_unitary)
from carnotlab.errors import (CarnotLabError, ConfigError, DomainError,
                              UnphysicalState)
from carnotlab.presets import get_preset
from carnotlab import thermo
from carnotlab.protocols import build_sta_protocol
from carnotlab.thermo import (SWEEP_SAMPLES, CycleLedger, analyze_cycle,
                              carnot_efficiency, coherence,
                              curzon_ahlborn_efficiency, friction_action_fit,
                              ideal_carnot_work, spec_for_sweep_value, sweep,
                              von_neumann_entropy)


def stroke_work_quadrature(traj: Trajectory, protocol) -> float:
    """Simpson quadrature of the work integrand over the stored grid: a
    cross-check of the work the propagators accumulate."""
    integrand = (protocol.omega_dot(traj.times) / traj.omegas) * \
        (traj.vectors[:, 0] - traj.vectors[:, 1])
    return float(simpson(integrand, x=traj.times))


class TestStrokeWorkHeat:
    def test_constant_omega_zero_work(self):
        bath = BathSpec(5.0, 0.05)
        prot = FrequencyProtocol.constant(5.0, 8.0)
        traj = propagate_open(ObservableVector(h=7.0, l=0.5, c=0.0), prot, bath)
        assert traj.work == 0.0

    def test_unitary_first_law(self):
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        traj = propagate_unitary(v0, prot)
        w = traj.work
        assert w == pytest.approx(traj.energy_change, rel=1e-8)
        assert traj.heat == pytest.approx(0.0, abs=1e-8)
        # frictionless doubling from thermal start: W = h_f - h_i = h_i
        assert w == pytest.approx(v0.h, rel=1e-8)
        assert w == pytest.approx(5.4098835, abs=1e-6)

    def test_quadrature_agrees_with_ode_accumulator(self):
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        traj = propagate_unitary(v0, prot, n_samples=4001)
        assert stroke_work_quadrature(traj, prot) == pytest.approx(traj.work,
                                                                   rel=1e-7)

    def test_relaxation_heat_sign(self):
        bath = BathSpec(5.0, 0.05)
        prot = FrequencyProtocol.constant(5.0, 50.0)
        hot_state = thermal_observable_vector(5.0, 9.0)
        traj = propagate_open(hot_state, prot, bath)
        assert traj.heat < 0  # heat flows out to the colder bath


class TestCoherenceEntropy:
    def test_coherence_values(self):
        assert coherence(ObservableVector(h=10.0, l=0.0, c=0.0), 5.0) == 0.0
        assert coherence(ObservableVector(h=10.0, l=3.0, c=4.0), 5.0) == \
            pytest.approx(1.0, rel=1e-15)

    def test_coherence_rotation_invariant_at_mu_zero(self):
        v0 = ObservableVector(h=10.0, l=1.0, c=2.0)
        u = free_propagator(5.0, 0.0, 0.77)
        v1 = ObservableVector.from_array(u @ v0.as_array())
        assert v1.coherence(5.0) == pytest.approx(v0.coherence(5.0), rel=1e-12)

    def test_entropy_ground_state(self):
        assert von_neumann_entropy(ObservableVector(h=2.5, l=0.0, c=0.0), 5.0) == 0.0

    def test_entropy_thermal_value(self):
        v = thermal_observable_vector(5.0, 5.0)
        n = 1.0 / (math.e - 1.0)
        expected = (n + 1) * math.log(n + 1) - n * math.log(n)
        assert von_neumann_entropy(v, 5.0) == pytest.approx(expected, rel=1e-12)
        assert von_neumann_entropy(v, 5.0) == pytest.approx(1.0406513, abs=1e-6)

    def test_entropy_invariant_under_unitary(self):
        prot, _ = build_sta_protocol(5.0, 10.0, 5.0)
        v0 = thermal_observable_vector(5.0, 5.0)
        traj = propagate_unitary(v0, prot, n_samples=9)
        s0 = von_neumann_entropy(v0, 5.0)
        for i, t in enumerate(traj.times):
            v = ObservableVector.from_array(traj.vectors[i])
            w = float(traj.omegas[i])
            assert von_neumann_entropy(v, w) == pytest.approx(s0, rel=1e-8)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalState):
            von_neumann_entropy(ObservableVector(h=1.0, l=0.0, c=0.0), 5.0)

    @pytest.mark.parametrize("function", [coherence, von_neumann_entropy])
    @pytest.mark.parametrize("omega", [math.nan, 0.0, -5.0, -math.inf])
    def test_omega_outside_the_domain(self, function, omega):
        with pytest.raises(DomainError, match="^omega must be positive$"):
            function(thermal_observable_vector(5.0, 5.0), omega)


class TestIdealWork:
    def test_reference_value(self):
        # cross-check against the reversible-cycle identity
        # W = -(T_h - T_c) * (S_2 - S_1) for population-matched corners
        geom = CornerGeometry(10.0, 8.0, 5.0, 6.25)
        w = ideal_carnot_work(geom, 5.0, 8.0)
        s2 = von_neumann_entropy(thermal_observable_vector(8.0, 8.0), 8.0)
        s1 = von_neumann_entropy(thermal_observable_vector(10.0, 8.0), 10.0)
        assert w == pytest.approx(-(8.0 - 5.0) * (s2 - s1), rel=1e-12)
        assert w == pytest.approx(-0.60340017, abs=1e-7)
        assert w < 0

    def test_efficiency_of_reversible_cycle_is_carnot(self):
        geom = CornerGeometry(10.0, 8.0, 5.0, 6.25)
        w = ideal_carnot_work(geom, 5.0, 8.0)
        s2 = von_neumann_entropy(thermal_observable_vector(8.0, 8.0), 8.0)
        s1 = von_neumann_entropy(thermal_observable_vector(10.0, 8.0), 10.0)
        q_hot = 8.0 * (s2 - s1)
        assert -w / q_hot == pytest.approx(carnot_efficiency(5.0, 8.0), rel=1e-12)

    def test_high_temperature_asymptote(self):
        # scaling both temperatures up at fixed geometry approaches
        # -k_B T_h eta_C ln(omega1/omega2); the matched-corner identity
        # omega1/omega2 = C * T_c/T_h relates this to the compression ratio
        geom = CornerGeometry(10.0, 8.0, 5.0, 6.25)
        for s in (100.0, 1000.0):
            w = ideal_carnot_work(geom, 5.0 * s, 8.0 * s)
            ref = -(8.0 * s) * carnot_efficiency(5.0, 8.0) * math.log(10.0 / 8.0)
            assert w == pytest.approx(ref, rel=2.0 / s)

    def test_degenerate_temperatures_warn(self):
        geom = CornerGeometry(10.0, 8.0, 5.0, 6.25)
        with pytest.warns(UserWarning):
            ideal_carnot_work(geom, 8.0, 8.0)


class TestFrictionFit:
    def test_exact_linear_recovery(self):
        taus = [10.0, 20.0, 40.0, 80.0]
        samples = [(t, -2.0 + 7.0 / t) for t in taus]
        w_inf, f, resid = friction_action_fit(samples)
        assert w_inf == pytest.approx(-2.0, abs=1e-12)
        assert f == pytest.approx(7.0, abs=1e-10)
        assert resid < 1e-12

    def test_span_requirement(self):
        with pytest.raises(DomainError):
            friction_action_fit([(10.0, -1.0), (12.0, -1.1), (14.0, -1.2)])

    def test_count_requirement(self):
        with pytest.raises(DomainError):
            friction_action_fit([(10.0, -1.0), (80.0, -1.5)])

    def test_positive_cycle_times(self):
        with pytest.raises(DomainError, match="^cycle times must be positive$"):
            friction_action_fit([(0.0, -1.0), (10.0, -1.2), (80.0, -1.5)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0), (2, 1)])
    def test_non_finite_sample(self, where, value):
        samples = [[10.0, -1.0], [20.0, -1.2], [80.0, -1.5]]
        samples[where[0]][where[1]] = value
        with pytest.raises(DomainError, match="^cycle times and works must "
                                              "be finite$"):
            friction_action_fit(samples)


class TestAnalyzeAndSweep:
    def test_ledger_consistency(self):
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        res = run_to_limit_cycle(spec)
        led = analyze_cycle(res, spec)
        assert led.total_work == pytest.approx(sum(led.work_per_stroke), rel=1e-12)
        assert led.operational_mode == "Engine"
        assert led.q_hot > 0 and led.total_work < 0
        assert led.power == pytest.approx(-led.total_work / led.cycle_time,
                                          rel=1e-12)
        assert led.efficiency == pytest.approx(-led.total_work / led.q_hot,
                                               rel=1e-12)
        assert 0 < led.efficiency < led.eta_carnot
        assert led.bath_entropy_production >= 0
        assert led.energy_closure < 1e-8
        assert led.unitary_heat_residual < 1e-8

    def test_heat_booked_by_stroke_role(self):
        # a hot-bath temperature one ulp off still books the expansion as hot
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        res = run_to_limit_cycle(spec)
        led = analyze_cycle(res, spec)
        shifted = replace(spec, t_hot_bath=float(
            np.nextafter(spec.t_hot_bath, np.inf)))
        led_shifted = analyze_cycle(res, shifted)
        assert led_shifted.q_hot == led.q_hot > 0
        assert led_shifted.q_cold == led.q_cold < 0

    def test_cold_bath_sweep_row(self):
        # hbar w / k_B T reaches ~1900: the bath rates must not overflow
        spec = get_preset("endo-global", cycle_time=40.0, t_hot_bath=0.008,
                          t_cold_bath=0.005)
        table = sweep(spec, "cycle_time", [40.0])
        row = table.rows[0]
        assert row.ok, row.error
        assert row.ledger.operational_mode == "Dissipator"
        scale = max(abs(w) for w in row.ledger.work_per_stroke)
        assert row.ledger.energy_closure < 1e-8 * scale

    def test_cold_internal_temperature_sweep_rows(self):
        # hbar w / k_B T_int reaches ~830 at the corners: the static
        # rate-equation slope must not overflow, and each point ends typed
        spec = get_preset("endo-shortcut", cycle_time=40, t_hot_internal=0.012,
                          t_cold_internal=0.0075, t_hot_bath=0.0125,
                          t_cold_bath=0.007)
        table = sweep(spec, "cycle_time", [40, 60])
        assert [r.ok for r in table.rows] == [False, False]
        assert all(r.error.startswith("InfeasibleStroke: open-expansion: ")
                   for r in table.rows)

    def test_sweep_records_errors_per_point(self):
        spec = get_preset("carnot-shortcut")
        table = sweep(spec, "cycle_time", [8.5, 40.0])
        assert not table.rows[0].ok and "Error" in table.rows[0].error \
            or "Infeasible" in table.rows[0].error
        assert table.rows[1].ok

    def test_sweep_axis_validation(self):
        spec = get_preset("carnot-shortcut")
        with pytest.raises(ConfigError):
            spec_for_sweep_value(spec, "nonsense", 1.0)
        with pytest.raises(ConfigError, match="non-negative"):
            spec_for_sweep_value(spec, "dephasing", -1.0)

    @pytest.mark.parametrize("preset", ["endo-global", "endo-shortcut"])
    def test_compression_ratio_needs_carnot_shortcut(self, preset):
        with pytest.raises(ConfigError, match="^compression-ratio sweeps "
                                              "apply to the carnot-shortcut"):
            spec_for_sweep_value(get_preset(preset), "compression_ratio", 2.5)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_compression_ratio_sweep_refused_before_any_point(
            self, monkeypatch, jobs):
        # a configuration error, not one error row per value
        def no_cycle(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(thermo, "run_to_limit_cycle", no_cycle)
        with pytest.raises(ConfigError, match="^compression-ratio sweeps "
                                              "apply to the carnot-shortcut"):
            sweep(get_preset("endo-global"), "compression_ratio", [2.0, 3.0],
                  jobs=jobs)

    def test_sweep_needs_a_value(self):
        with pytest.raises(ConfigError, match="^sweep needs at least one "
                                              "value$"):
            sweep(get_preset("endo-global"), "cycle_time", [])

    def test_too_short_adiabat_gives_typed_rows(self):
        # the transitionless ramp's third-derivative scale overflows at
        # 1e-110; the builder refuses the ramp and each point records it
        spec = get_preset("carnot-shortcut", cycle_time=40.0,
                          adiabat_duration=1e-110)
        table = sweep(spec, "dephasing", [0.0, 1e-3])
        assert [r.ok for r in table.rows] == [False, False]
        for row in table.rows:
            assert row.error.startswith(
                "InvalidProtocol: adiabatic-expansion: trap frequency squared")

    def test_compression_ratio_axis(self):
        spec = get_preset("carnot-shortcut")
        s2 = spec_for_sweep_value(spec, "compression_ratio", 2.5)
        assert s2.omega1 == pytest.approx(12.5)
        assert s2.omega2 == pytest.approx(8.0)
        assert s2.omega4 == pytest.approx(12.5 * 5.0 / 8.0)

    def test_sweep_export(self, tmp_path):
        spec = get_preset("endo-global")
        table = sweep(spec, "cycle_time", [12.0, 16.0])
        from carnotlab.thermo import export_sweep

        export_sweep(table, tmp_path / "s.csv", tmp_path / "s.meta.json")
        text = (tmp_path / "s.csv").read_text()
        assert text.startswith("value,status,")
        assert text.count("\n") == 3
        import json

        meta = json.loads((tmp_path / "s.meta.json").read_text())
        assert meta["axis"] == "cycle_time"
        assert "config_hash" in meta

    def test_process_pool_sweep_matches_serial(self, tmp_path):
        from carnotlab.thermo import export_sweep

        spec = get_preset("endo-global")
        for jobs in (1, 2):
            export_sweep(sweep(spec, "cycle_time", [10.0, 14.0], jobs=jobs),
                         tmp_path / f"jobs{jobs}.csv")
        serial = (tmp_path / "jobs1.csv").read_bytes()
        assert serial.count(b",ok,") == 2
        assert (tmp_path / "jobs2.csv").read_bytes() == serial

    def test_process_pool_sweep_reuses_legs_per_worker(self, tmp_path):
        # each worker keeps the legs of its own last point
        from carnotlab.thermo import export_sweep

        spec = get_preset("endo-global", cycle_time=8.0)
        for jobs in (1, 2):
            export_sweep(sweep(spec, "dephasing", [0.0, 3e-4, 3e-2], jobs=jobs),
                         tmp_path / f"jobs{jobs}.csv")
        serial = (tmp_path / "jobs1.csv").read_bytes()
        assert serial.count(b",ok,") == 3
        assert (tmp_path / "jobs2.csv").read_bytes() == serial

    @pytest.mark.parametrize("preset,tau", [
        ("carnot-shortcut", 250.0), ("endo-shortcut", 250.0),
        ("endo-shortcut", 40.0), ("table1-literal", 40.0),
        ("endo-global", 40.0), ("endo-global", 8.0), ("carnot-shortcut", 16.0),
        ("carnot-shortcut", 20.0)])
    def test_sweep_row_matches_cycle(self, preset, tau):
        # two-sample transfer matrices against the sampled cycle's
        spec = get_preset(preset, cycle_time=tau)
        row = sweep(spec, "cycle_time", [tau]).rows[0]
        ledger = analyze_cycle(run_to_limit_cycle(spec), spec)
        for name in ("total_work", "q_hot"):
            assert getattr(row.ledger, name) == pytest.approx(
                getattr(ledger, name), rel=1e-9, abs=0.0), name

    def test_negative_entropy_production_raises(self):
        # booked against baths 8 and 7.9, the cycle's heat lowers their entropy
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        res = run_to_limit_cycle(spec)
        with pytest.raises(UnphysicalState, match="second law"):
            analyze_cycle(res, replace(spec, t_cold_bath=7.9))

    def test_corner_below_the_casimir_floor_raises(self):
        # corner 3 pushed below the ground state (hbar w / 2)^2
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        res = run_to_limit_cycle(spec)
        analyze_cycle(res, spec)
        traj = res.trajectories[2]
        vectors = traj.vectors.copy()
        vectors[0, :3] = (0.49 * res.corner_omegas[2], 0.0, 0.0)
        res.trajectories[2] = replace(traj, vectors=vectors)
        with pytest.raises(UnphysicalState,
                           match=r"corner 3 \(start of open-compression\)"
                                 r": Casimir"):
            analyze_cycle(res, spec)

    def test_reference_efficiencies(self):
        assert carnot_efficiency(5.0, 8.0) == pytest.approx(0.375, rel=1e-15)
        assert curzon_ahlborn_efficiency(5.0, 8.0) == pytest.approx(
            1.0 - math.sqrt(0.625), rel=1e-15)


class TestSweepLegMemo:
    """A sweep reuses each leg its axis leaves unchanged between points."""

    @staticmethod
    def _fresh_row(template, axis, value):
        try:
            spec = spec_for_sweep_value(template, axis, value)
            return analyze_cycle(run_to_limit_cycle(
                spec, n_samples=SWEEP_SAMPLES), spec).as_dict()
        except CarnotLabError as err:
            return f"{type(err).__name__}: {err}"

    @pytest.mark.parametrize("name, tau, axis, values", [
        ("carnot-shortcut", 250.0, "cycle_time", [14.0, 16.0, 44.0, 30.0]),
        ("carnot-shortcut", 250.0, "compression_ratio", [1.8, 2.5, 2.0]),
        ("endo-shortcut", 250.0, "cycle_time", [30.0, 18.0]),
        ("endo-shortcut", 30.0, "dephasing", [0.0, 1e-2, 1e-3]),
        ("endo-global", 8.0, "dephasing", [3e-2, 0.0, 3e-5])])
    def test_rows_equal_fresh_cycles(self, name, tau, axis, values):
        template = get_preset(name, cycle_time=tau)
        table = sweep(template, axis, values)
        assert any(r.ok for r in table.rows)
        for row in table.rows:
            got = row.ledger.as_dict() if row.ok else row.error
            assert got == self._fresh_row(template, axis, row.value), row.value

    @staticmethod
    def _count(monkeypatch, name, key=lambda *a, **k: True):
        from carnotlab import cycle_engine

        calls = []
        original = getattr(cycle_engine, name)

        def counted(*args, **kwargs):
            if key(*args, **kwargs):
                calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cycle_engine, name, counted)
        return calls

    def test_cycle_time_sweep_builds_each_adiabat_once(self, monkeypatch):
        builds = self._count(monkeypatch, "build_sta_protocol")
        table = sweep(get_preset("carnot-shortcut"), "cycle_time",
                      [16.0, 30.0, 44.0])
        assert all(r.ok for r in table.rows)
        assert len(builds) == 2

    def test_dephasing_sweep_propagates_each_open_leg_once(self, monkeypatch):
        open_legs = self._count(
            monkeypatch, "stroke_propagators",
            key=lambda protocol, bath=None, *a, **k: bath is not None)
        table = sweep(get_preset("endo-global", cycle_time=8.0), "dephasing",
                      [0.0, 3e-4, 3e-2])
        assert all(r.ok for r in table.rows)
        assert len(open_legs) == 2

    def test_refused_point_keeps_the_open_legs(self, monkeypatch):
        # the adiabats at gamma_d = 1e3 are refused; the next point reuses
        # the open legs of the last completed cycle
        open_legs = self._count(
            monkeypatch, "stroke_propagators",
            key=lambda protocol, bath=None, *a, **k: bath is not None)
        table = sweep(get_preset("endo-global", cycle_time=8.0), "dephasing",
                      [0.0, 1e3, 3e-4])
        assert [r.ok for r in table.rows] == [True, False, True]
        assert table.rows[1].error.startswith(
            "NumericalError: adiabatic-expansion: stroke needs")
        assert len(open_legs) == 2

    def test_legs_do_not_outlive_a_sweep(self, monkeypatch):
        builds = self._count(monkeypatch, "build_sta_protocol")
        for expected in (2, 4):
            sweep(get_preset("carnot-shortcut"), "cycle_time", [16.0, 30.0])
            assert len(builds) == expected


class TestRecordsAndColumns:
    def test_ledger_dict_keys_are_its_fields(self):
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        d = analyze_cycle(run_to_limit_cycle(spec), spec).as_dict()
        assert set(d) == {f.name for f in fields(CycleLedger)}
        assert all(type(d[k]) is list for k in (
            "work_per_stroke", "heat_per_stroke", "corner_coherences"))

    def test_every_sweep_row_fills_the_header(self, tmp_path):
        table = sweep(get_preset("carnot-shortcut"), "cycle_time", [14.0, 30.0])
        assert [r.ok for r in table.rows] == [False, True]
        table.to_csv(tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert len(lines) == 3
        assert {len(line.split(",")) for line in lines} == {13}

    @pytest.mark.parametrize("preset", ["carnot-shortcut", "endo-global"])
    def test_non_finite_cycle_time_is_a_config_error_row(self, preset):
        table = sweep(get_preset(preset), "cycle_time", [math.nan, 30.0])
        assert table.rows[0].error.startswith(
            "ConfigError: cycle_time must be finite")
        assert table.rows[1].ok
