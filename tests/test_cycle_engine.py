import math

import numpy as np
import pytest

from carnotlab.core import thermal_observable_vector, thermal_population
from carnotlab.cycle_engine import (MAX_CYCLES, CornerGeometry,
                                    assemble_cycle, carnot_corner_frequencies,
                                    endo_global_corner_frequencies,
                                    run_to_limit_cycle, stroke_transfer_matrix)
from carnotlab.errors import (ConfigError, InvalidProtocol, NonConvergence,
                              NumericalError)
from carnotlab.presets import get_preset
from carnotlab.thermo import von_neumann_entropy


class TestCornerGeometry:
    def test_matched_corners(self):
        g = carnot_corner_frequencies(5.0, 2.0, 5.0, 8.0)
        assert g.as_tuple() == pytest.approx((10.0, 8.0, 5.0, 6.25), rel=1e-15)
        assert g.compression_ratio == 2.0

    def test_population_equalities(self):
        g = carnot_corner_frequencies(5.0, 2.0, 5.0, 8.0)
        n2 = thermal_population(g.omega2, 8.0)
        n3 = thermal_population(g.omega3, 5.0)
        n1 = thermal_population(g.omega1, 8.0)
        n4 = thermal_population(g.omega4, 5.0)
        assert n2 == pytest.approx(n3, rel=1e-12)
        assert n1 == pytest.approx(n4, rel=1e-12)
        assert n2 == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ConfigError):
            carnot_corner_frequencies(5.0, 1.6, 5.0, 8.0)  # == T_h/T_c
        with pytest.raises(ConfigError):
            carnot_corner_frequencies(5.0, 1.2, 5.0, 8.0)

    def test_endo_global_values(self):
        base = CornerGeometry(10.0, 8.0, 5.0, 6.25)
        g = endo_global_corner_frequencies(base, 5.25, 7.75, 5.0, 8.0)
        assert g.as_tuple() == pytest.approx(
            (9.6875, 7.75, 5.25, 6.5625), rel=1e-15)

    def test_endo_global_identity_substitution(self):
        base = CornerGeometry(10.0, 8.0, 5.0, 6.25)
        g = endo_global_corner_frequencies(base, 5.0, 8.0, 5.0, 8.0)
        assert g.as_tuple() == pytest.approx(base.as_tuple(), rel=1e-15)

    def test_endo_global_ratio_consistency(self):
        base = CornerGeometry(10.0, 8.0, 5.0, 6.25)
        g = endo_global_corner_frequencies(base, 5.25, 7.75, 5.0, 8.0)
        assert g.omega2 / g.omega3 == pytest.approx(7.75 / 5.25, rel=1e-14)


class TestAssembly:
    def test_carnot_shortcut_strokes(self):
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        strokes = assemble_cycle(spec)
        assert [s.kind for s in strokes] == ["open", "unitary", "open", "unitary"]
        assert [s.bath.temperature if s.bath else None for s in strokes] == \
            [8.0, None, 5.0, None]
        # frequency continuity at the four corners
        for a, b in zip(strokes, strokes[1:] + strokes[:1]):
            assert a.omega_end == pytest.approx(b.omega_start, rel=1e-10)

    def test_endo_global_strokes_and_durations(self):
        spec = get_preset("endo-global", cycle_time=32.0)
        strokes = assemble_cycle(spec)
        assert [s.kind for s in strokes] == ["open", "unitary", "open", "unitary"]
        total = sum(s.protocol.duration for s in strokes)
        assert total == pytest.approx(spec.cycle_time_atomic, rel=1e-12)
        # expansion strokes run at -|mu|, compressions at +|mu|
        mus = [float(s.protocol.mu(0.5 * s.protocol.duration)) for s in strokes]
        assert mus[0] < 0 and mus[1] < 0 and mus[2] > 0 and mus[3] > 0

    def test_halving_mu_doubles_durations(self):
        spec = get_preset("endo-global", cycle_time=32.0)
        from dataclasses import replace

        spec2 = replace(spec, mu_magnitude=spec.mu_magnitude / 2.0)
        d1 = [s.protocol.duration for s in assemble_cycle(spec)]
        d2 = [s.protocol.duration for s in assemble_cycle(spec2)]
        assert np.allclose(np.array(d2), 2.0 * np.array(d1), rtol=1e-12)

    def test_endo_shortcut_reduces_to_carnot(self):
        from dataclasses import replace

        endo = get_preset("endo-shortcut", cycle_time=40.0)
        endo = replace(endo, t_hot_bath=8.0, t_cold_bath=5.0)
        carnot = get_preset("carnot-shortcut", cycle_time=40.0)
        s1 = assemble_cycle(endo)
        s2 = assemble_cycle(carnot)
        for a, b in zip(s1, s2):
            t = np.linspace(0, a.protocol.duration, 50)
            assert np.max(np.abs(a.protocol.omega(t) - b.protocol.omega(t))) < 1e-7

    def test_dephasing_flag_changes_stroke_kind(self):
        from dataclasses import replace

        spec = replace(get_preset("endo-global", cycle_time=12.0),
                       gamma_dephasing=1e-3)
        strokes = assemble_cycle(spec)
        assert [s.kind for s in strokes] == ["open", "dephasing", "open",
                                             "dephasing"]


class TestTransferMatrix:
    def test_matches_free_propagator(self):
        from carnotlab.dynamics import free_propagator

        for tau in (8.0, 32.0, 250.0):
            strokes = assemble_cycle(get_preset("endo-global", cycle_time=tau))
            for s in strokes[1::2]:  # unitary constant-mu strokes
                m = stroke_transfer_matrix(s)
                u = free_propagator(s.protocol.meta["omega_initial"],
                                    s.protocol.meta["mu"], s.protocol.duration)
                assert np.max(np.abs(m[:4, :4] - u)) <= 1e-12

    def test_transfer_reproduces_trajectory(self):
        from carnotlab.dynamics import propagate_open

        spec = get_preset("carnot-shortcut", cycle_time=30.0)
        strokes = assemble_cycle(spec)
        s = strokes[0]
        v0 = thermal_observable_vector(10.0, 8.0)
        m = stroke_transfer_matrix(s)
        out = m @ np.append(v0.as_array(), 0.0)
        traj = propagate_open(v0, s.protocol, s.bath)
        assert np.allclose(out[:4], traj.vectors[-1], atol=1e-9)
        assert out[4] == pytest.approx(traj.work, abs=1e-9)


class TestLimitCycle:
    def test_shortcut_converges_immediately_at_loose_tol(self):
        spec = get_preset("carnot-shortcut", cycle_time=60.0)
        res = run_to_limit_cycle(spec, tol=5e-3)
        assert res.iterations == 1

    def test_periodicity(self):
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        res = run_to_limit_cycle(spec, tol=1e-9)
        assert res.periodicity_residual() < 1e-8

    def test_iterate_is_the_affine_fixed_point(self):
        # the composed map is affine on (h, l, c): v* = (I - A)^-1 b is the
        # only fixed point, so the iterate does not depend on its path
        spec = get_preset("endo-global", cycle_time=12.0)
        res = run_to_limit_cycle(spec, tol=1e-10)
        m = np.eye(5)
        for stroke in res.strokes:
            m = stroke_transfer_matrix(stroke) @ m
        fixed = np.linalg.solve(np.eye(3) - m[:3, :3], m[:3, 3])
        a = res.corner_vectors[0].as_array()
        assert np.max(np.abs(a[:3] - fixed)) < 1e-8 * a[0]

    @pytest.mark.parametrize("name, tau, rho", [
        ("endo-global", 8.0, 0.526), ("carnot-shortcut", 20.0, 0.063)])
    def test_contraction(self, name, tau, rho):
        res = run_to_limit_cycle(get_preset(name, cycle_time=tau))
        assert res.contraction == pytest.approx(rho, abs=1e-3)

    def test_reports_magnus_resolution(self):
        from carnotlab.dynamics import MAGNUS_TARGET

        res = run_to_limit_cycle(get_preset("endo-global", cycle_time=8.0))
        assert res.magnus_steps == [800] * 4
        res = run_to_limit_cycle(get_preset("carnot-shortcut", cycle_time=250.0))
        # the long open strokes need more steps than the adiabats
        assert res.magnus_steps[0] > 800 and res.magnus_steps[2] > 800
        assert res.magnus_steps[1] == res.magnus_steps[3] == 800
        assert all(0.0 <= e <= MAGNUS_TARGET for e in res.magnus_errors)

    def test_leg_memo_keeps_sample_counts_apart(self):
        # a leg propagated at 2 samples is not the leg of a default call
        spec = get_preset("endo-global", cycle_time=8.0)
        memo = {}
        run_to_limit_cycle(spec, leg_memo=memo, n_samples=2)
        res = run_to_limit_cycle(spec, leg_memo=memo)
        assert [len(t.times) for t in res.trajectories] == [801] * 4
        assert res.magnus_steps == [800] * 4

    def test_failed_cycle_leaves_the_last_completed_legs(self, monkeypatch):
        # at tau = 9 the hot open leg is new and succeeds, then the dephased
        # adiabat is refused: the memo keeps the four legs of tau = 8
        from carnotlab import cycle_engine

        spec = get_preset("endo-global", cycle_time=8.0)
        memo = {}
        run_to_limit_cycle(spec, leg_memo=memo)
        held = dict(memo)
        assert list(held) == cycle_engine._cycle_legs(spec)
        kinds = []
        original = cycle_engine.stroke_propagators

        def counted(protocol, bath=None, *args):
            kinds.append("open" if bath is not None else "adiabat")
            return original(protocol, bath, *args)

        monkeypatch.setattr(cycle_engine, "stroke_propagators", counted)
        with pytest.raises(NumericalError,
                           match="^adiabatic-expansion: stroke needs"):
            run_to_limit_cycle(get_preset("endo-global", cycle_time=9.0,
                                          gamma_dephasing=1e3), leg_memo=memo)
        assert kinds == ["open", "adiabat"]
        assert list(memo) == list(held)
        assert all(memo[leg] is held[leg] for leg in held)
        kinds.clear()
        run_to_limit_cycle(spec, leg_memo=memo)
        assert kinds == []

    def test_one_integration_per_stroke(self, monkeypatch):
        from carnotlab import cycle_engine, dynamics

        calls = {"propagators": 0, "solve_ivp": 0}

        def counting(key, original):
            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(cycle_engine, "stroke_propagators", counting(
            "propagators", cycle_engine.stroke_propagators))
        for module in (cycle_engine, dynamics):
            monkeypatch.setattr(module, "solve_ivp",
                                counting("solve_ivp", module.solve_ivp))
        res = run_to_limit_cycle(get_preset("endo-global", cycle_time=8))
        assert calls == {"propagators": 4, "solve_ivp": 0}
        assert res.periodicity_residual() <= 1e-9

    def test_stroke_failure_names_stroke(self, monkeypatch):
        from carnotlab import cycle_engine

        original = cycle_engine.stroke_propagators
        calls = []

        def third_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise NumericalError("non-finite Magnus step at t = 1.5",
                                     diagnostics={"time": 1.5, "duration": 9.0})
            return original(*args, **kwargs)

        monkeypatch.setattr(cycle_engine, "stroke_propagators", third_fails)
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        with pytest.raises(NumericalError) as err:
            run_to_limit_cycle(spec)
        assert str(err.value).startswith("open-compression: ")
        assert err.value.diagnostics == {"time": 1.5, "duration": 9.0}
        calls[:] = [(), ()]
        with pytest.raises(NumericalError, match="^adiabatic-expansion: "):
            stroke_transfer_matrix(assemble_cycle(spec)[1])

    def test_adiabat_failure_names_its_stroke(self):
        # the STA ramp 8 -> 5 cannot be done in 0.05 with a confining trap
        spec = get_preset("carnot-shortcut", cycle_time=40.0,
                          adiabat_duration=0.05)
        with pytest.raises(InvalidProtocol) as err:
            assemble_cycle(spec)
        assert str(err.value).startswith("adiabatic-expansion: ")
        assert 0.0 < err.value.time < 0.05

    def test_rewrap_keeps_attributes(self):
        from carnotlab.cycle_engine import _rewrap

        err = _rewrap(NumericalError("x", diagnostics={"a": 1}), "lab")
        assert (str(err), err.diagnostics) == ("lab: x", {"a": 1})
        err = _rewrap(InvalidProtocol("x", time=2.5), "lab")
        assert (type(err), str(err), err.time) == (InvalidProtocol, "lab: x", 2.5)

    @pytest.mark.parametrize("gamma_d", [100.0, 250.0])
    def test_strongly_dephased_adiabat_fails_typed(self, gamma_d):
        # an 800-step Magnus step would span h |G|_1 in the thousands, where
        # both pilots agree on a wrong map whose ledger breaks the second law
        spec = get_preset("endo-global", cycle_time=250.0,
                          gamma_dephasing=gamma_d)
        with pytest.raises(NumericalError, match=(
                f"^adiabatic-expansion: .* at gamma_d = {gamma_d:g}")) as err:
            run_to_limit_cycle(spec)
        assert err.value.diagnostics["step_norm"] > 1000.0

    def test_nonconvergence_raises(self):
        # a nearly uncoupled bath barely contracts: rho(A) = 0.99998
        spec = get_preset("endo-global", cycle_time=12.0, coupling=1e-6)
        with pytest.raises(NonConvergence,
                           match=f"after {MAX_CYCLES} cycles .* = 0.99998"):
            run_to_limit_cycle(spec)

    def test_shortcut_corner_coherence_vanishes_slow(self):
        res = run_to_limit_cycle(get_preset("carnot-shortcut", cycle_time=250.0))
        h_scaled = res.corner_coherences() / np.array(
            [v.h / w for v, w in zip(res.corner_vectors, res.corner_omegas)])
        assert np.max(h_scaled) < 1e-6

    def test_endo_global_long_time_isoentropic_with_matched_corners(self):
        # the rescaled geometry is designed so the slow limit cycle sits on
        # the entropy ladder of the matched-temperature corners; the cold-side
        # lag is the larger one and decays only slowly with cycle time
        res = run_to_limit_cycle(get_preset("endo-global", cycle_time=250.0))
        temps = (7.75, 7.75, 5.25, 5.25)
        devs = []
        for v, w, t in zip(res.corner_vectors, res.corner_omegas, temps):
            s = von_neumann_entropy(v, w)
            s_ref = von_neumann_entropy(thermal_observable_vector(w, t), w)
            devs.append(abs(s - s_ref) / s_ref)
        assert devs[1] < 0.01 and devs[2] < 0.01  # hot-stroke corners
        assert max(devs) < 0.03

    def test_export(self, tmp_path):
        res = run_to_limit_cycle(get_preset("endo-global", cycle_time=12.0))
        from carnotlab.cycle_engine import export_cycle_result

        out = tmp_path / "cyc"
        export_cycle_result(res, out)
        files = sorted(p.name for p in out.iterdir())
        assert "summary.json" in files
        assert sum(1 for f in files if f.endswith(".csv")) == 4


class TestNonFiniteInputs:
    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_compression_ratio_named(self, ratio):
        with pytest.raises(ConfigError, match="compression ratio must be finite"):
            carnot_corner_frequencies(5.0, ratio, 5.0, 8.0)

    @pytest.mark.parametrize("args", [(0.0, 2.0, 5.0, 8.0), (5.0, 2.0, 0.0, 8.0),
                                      (5.0, 2.0, 5.0, -8.0)])
    def test_non_positive_corner_inputs(self, args):
        with pytest.raises(ConfigError, match="^frequencies and temperatures "
                                              "must be positive$"):
            carnot_corner_frequencies(*args)

    @pytest.mark.parametrize("temperatures", [(0.0, 8.0, 5.0, 8.0),
                                              (5.0, -8.0, 5.0, 8.0),
                                              (5.0, 8.0, 5.0, 0.0)])
    def test_non_positive_design_temperatures(self, temperatures):
        base = CornerGeometry(10.0, 8.0, 5.0, 6.25)
        with pytest.raises(ConfigError, match="^temperatures must be positive$"):
            endo_global_corner_frequencies(base, *temperatures)

    def test_nan_tol_rejected(self):
        with pytest.raises(ConfigError, match="^tol must be positive"):
            run_to_limit_cycle(get_preset("endo-global", cycle_time=8.0),
                               tol=math.nan)
