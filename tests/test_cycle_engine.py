import math

import numpy as np
import pytest

from carnotlab.core import (ObservableVector, thermal_observable_vector,
                            thermal_population)
from carnotlab.cycle_engine import (CornerGeometry, assemble_cycle,
                                    carnot_corner_frequencies,
                                    endo_global_corner_frequencies,
                                    run_to_limit_cycle, stroke_transfer_matrix)
from carnotlab.errors import ConfigError, NonConvergence
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
        spec = get_preset("endo-global", cycle_time=32.0)
        strokes = assemble_cycle(spec)
        s = strokes[1]  # unitary constant-mu stroke
        from carnotlab.dynamics import free_propagator

        m = stroke_transfer_matrix(s)
        mu = s.protocol.meta["mu"]
        u = free_propagator(s.protocol.meta["omega_initial"], mu,
                            s.protocol.duration)
        assert np.allclose(m[:4, :4], u, atol=1e-10)

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
        assert res.converged and res.iterations == 1

    def test_periodicity(self):
        spec = get_preset("carnot-shortcut", cycle_time=40.0)
        res = run_to_limit_cycle(spec, tol=1e-9)
        assert res.periodicity_residual() < 1e-8

    def test_uniqueness_from_two_seeds(self):
        spec = get_preset("endo-global", cycle_time=12.0)
        r1 = run_to_limit_cycle(spec, tol=1e-10)
        v0 = ObservableVector(h=14.0, l=3.0, c=-2.0)
        r2 = run_to_limit_cycle(spec, v0=v0, tol=1e-10)
        a = r1.corner_vectors[0].as_array()
        b = r2.corner_vectors[0].as_array()
        assert np.max(np.abs(a - b)) < 1e-8 * a[0]

    def test_one_integration_per_stroke(self, monkeypatch):
        from carnotlab import cycle_engine, dynamics

        calls = []

        def counting(original):
            def solve(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)
            return solve

        for module in (cycle_engine, dynamics):
            monkeypatch.setattr(module, "solve_ivp", counting(module.solve_ivp))
        res = run_to_limit_cycle(get_preset("endo-global", cycle_time=8))
        assert len(calls) == 4
        assert res.periodicity_residual() <= 1e-9

    def test_nonconvergence_raises(self):
        spec = get_preset("endo-global", cycle_time=8.0)
        with pytest.raises(NonConvergence) as err:
            run_to_limit_cycle(spec, tol=1e-14, max_cycles=3)
        assert len(err.value.residuals) == 3

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
