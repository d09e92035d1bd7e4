import ast
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotlab.core import (BathSpec, ConstantMuFrequency, CycleKind,
                            CycleSpec, FrequencyProtocol,
                            GeneralizedGibbsState, ObservableVector,
                            cycle_time_from_atomic, cycle_time_to_atomic,
                            thermal_observable_vector, thermal_population,
                            write_csv)
from carnotlab.errors import ConfigError, DomainError, UnphysicalState
from carnotlab.presets import PRESET_NAMES, PRESETS, get_preset
from carnotlab.protocols import build_sta_protocol

SRC = Path(__file__).resolve().parents[1] / "src" / "carnotlab"
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestThermalPopulation:
    def test_unit_ratio(self):
        # hbar*omega/kT = 1 gives 1/(e - 1)
        assert thermal_population(5.0, 5.0) == pytest.approx(1.0 / (math.e - 1.0),
                                                             rel=1e-14)

    def test_equal_ratio_equal_population(self):
        assert thermal_population(8.0, 8.0) == pytest.approx(
            thermal_population(5.0, 5.0), rel=1e-14)

    def test_frozen_oscillator_limit(self):
        assert thermal_population(5e4, 5.0) < 1e-300 or \
            thermal_population(5e4, 5.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            thermal_population(-1.0, 5.0)
        with pytest.raises(DomainError):
            thermal_population(5.0, 0.0)


class TestThermalVector:
    def test_value_at_unit_ratio(self):
        v = thermal_observable_vector(5.0, 5.0)
        assert v.h == pytest.approx(5.0 * (1.0 / (math.e - 1.0) + 0.5), rel=1e-14)
        assert v.l == 0.0 and v.c == 0.0 and v.id == 1.0

    def test_ground_state_limit(self):
        v = thermal_observable_vector(5.0, 1e-3)
        assert v.h == pytest.approx(2.5, rel=1e-12)

    def test_ratio_10_over_8(self):
        # direct evaluation: n = 1/(e^1.25 - 1) = 0.401553...
        n = 1.0 / math.expm1(1.25)
        v = thermal_observable_vector(10.0, 8.0)
        assert v.h == pytest.approx(10.0 * (n + 0.5), rel=1e-14)
        assert v.h == pytest.approx(9.0155112, abs=1e-6)

    @given(st.floats(0.5, 50.0), st.floats(0.5, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_casimir_bound(self, omega, temp):
        v = thermal_observable_vector(omega, temp)
        v.check_physical(omega)
        assert v.casimir() >= (0.5 * omega) ** 2 * (1 - 1e-12)


class TestObservableVector:
    def test_array_round_trip(self):
        v = ObservableVector(h=3.0, l=0.5, c=-0.25)
        assert ObservableVector.from_array(v.as_array()) == v

    def test_coherence(self):
        assert ObservableVector(h=10.0, l=3.0, c=4.0).coherence(5.0) == \
            pytest.approx(1.0, rel=1e-15)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalState):
            ObservableVector(h=1.0, l=2.0, c=0.0).check_physical()
        with pytest.raises(UnphysicalState):
            ObservableVector(h=1.0, l=0.0, c=0.0, id=0.5).check_physical()
        # below the ground-state Casimir floor at its frequency
        with pytest.raises(UnphysicalState):
            ObservableVector(h=1.0, l=0.0, c=0.0).check_physical(omega=4.0)


class TestGeneralizedGibbs:
    def test_adiabatic_point_matches_thermal_vector(self):
        for omega, temp in ((5.0, 5.0), (10.0, 8.0), (6.25, 5.0)):
            g = GeneralizedGibbsState(beta=-omega / temp, mu=0.0, omega=omega)
            v = g.to_observable_vector()
            ref = thermal_observable_vector(omega, temp)
            assert v.h == pytest.approx(ref.h, rel=1e-14)
            assert v.l == 0.0 and v.c == 0.0

    @given(st.floats(-4.0, -0.05), st.floats(-1.5, 1.5), st.floats(0.5, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, beta, mu, omega):
        g = GeneralizedGibbsState(beta=beta, mu=mu, omega=omega)
        back = GeneralizedGibbsState.from_observable_vector(
            g.to_observable_vector(), omega)
        assert back.beta == pytest.approx(beta, rel=1e-12)
        assert back.mu == pytest.approx(mu, abs=1e-12)

    def test_bounded_state_required(self):
        with pytest.raises(DomainError):
            GeneralizedGibbsState(beta=0.1)

    @pytest.mark.parametrize("field,value,message", [
        ("beta", math.nan, "beta must be negative for a bounded state"),
        ("beta", 0.0, "beta must be negative for a bounded state"),
        ("mu", math.nan, "|mu| must be below 2"),
        ("mu", -2.0, "|mu| must be below 2"),
        ("mu", math.inf, "|mu| must be below 2"),
        ("omega", math.nan, "omega must be positive"),
        ("omega", 0.0, "omega must be positive"),
        ("omega", -math.inf, "omega must be positive"),
    ])
    def test_parameter_outside_the_domain(self, field, value, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            GeneralizedGibbsState(**{"beta": -1.0, "mu": 0.1, "omega": 5.0,
                                     field: value})

    @pytest.mark.parametrize("v,message", [
        (ObservableVector(h=5.0, l=1.0, c=0.0), "not diagonal"),
        (ObservableVector(h=0.1, l=0.0, c=0.0), "at or below the ground state"),
    ])
    def test_from_vector_outside_the_domain(self, v, message):
        with pytest.raises(DomainError, match=message):
            GeneralizedGibbsState.from_observable_vector(v, 5.0)


class TestFrequencyProtocol:
    def test_grid_consistency_check(self):
        t = np.linspace(0.0, 2.0, 400)
        w = 5.0 + np.sin(t)
        wd = np.cos(t)
        p = FrequencyProtocol.from_grid(t, w, wd)
        assert p.check_consistency(rtol=1e-4) < 1e-4

    def test_inconsistent_derivative_rejected(self):
        from carnotlab.errors import InvalidProtocol

        t = np.linspace(0.0, 2.0, 400)
        w = 5.0 + np.sin(t)
        p = FrequencyProtocol.from_grid(t, w, -3.0 * np.cos(t))
        with pytest.raises(InvalidProtocol):
            p.check_consistency(rtol=1e-6)

    def test_grid_at_nan_time_is_nan(self):
        t = np.linspace(0.0, 2.0, 50)
        p = FrequencyProtocol.from_grid(t, 5.0 + np.sin(t), np.cos(t))
        assert np.isnan(p.omega(math.nan)) and np.isnan(p.omega_dot(math.nan))
        assert np.isnan(p.omega(np.array([1.0, math.nan]))[1])

    def test_uniform_grid_required(self):
        t = np.linspace(0.0, 1.0, 50) ** 2
        with pytest.raises(DomainError, match="uniformly spaced"):
            FrequencyProtocol.from_grid(t, 5.0 + t, np.ones(50))

    def test_positive_omega_required(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(DomainError):
            FrequencyProtocol.from_grid(t, np.linspace(1.0, -0.5, 50),
                                        np.full(50, -1.5))

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError, match="^protocol duration must be "
                                              "non-negative$"):
            FrequencyProtocol.from_callables(-1.0, np.ones_like, np.zeros_like)

    def test_grid_needs_four_samples(self):
        t = np.linspace(0.0, 1.0, 3)
        with pytest.raises(DomainError, match="at least 4 samples"):
            FrequencyProtocol.from_grid(t, 5.0 + t, np.ones(3))

    def test_zero_duration_is_consistent(self):
        assert FrequencyProtocol.constant(5.0, 0.0).check_consistency() == 0.0

    def test_consistency_needs_positive_omega(self):
        # omega = 1 - 1.5 t crosses zero at t = 2/3, between samples
        from carnotlab.errors import InvalidProtocol

        p = FrequencyProtocol.from_callables(
            1.0, lambda t: 1.0 - 1.5 * t, lambda t: np.full_like(t, -1.5))
        with pytest.raises(InvalidProtocol, match="omega must stay positive"):
            p.check_consistency()

    def test_mu(self):
        p = FrequencyProtocol.constant(4.0, 3.0)
        assert float(p.mu(1.0)) == 0.0
        assert p.duration == 3.0

    def test_constant_is_constant_mu_at_zero(self):
        p = FrequencyProtocol.constant(4.0, 3.0)
        drive = ConstantMuFrequency(4.0, 0.0)
        rng = np.random.default_rng(3)
        times = [-1.0, 0.0, 1.7, 3.0, 5.0, math.nan]
        for t in (*times, np.asarray(1.7), np.asarray(math.nan),
                  rng.uniform(-1.0, 4.0, (3, 64)), np.array(times)):
            got, want = p.frequency(t), drive(p._clamp(t))
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w) == np.shape(t)
                assert np.array_equal(g, w, equal_nan=True), t
            finite = ~np.isnan(t)
            # the constant exactly and a zero derivative, NaN at a NaN time
            assert np.all(np.where(finite, got[0] == 4.0, np.isnan(got[0])))
            assert np.all(np.where(finite, got[1] == 0.0, np.isnan(got[1])))
        assert p.frequency(1.7, 1) == (4.0,)

    def test_protocols_compare_by_identity(self):
        ramp = build_sta_protocol(5.0, 10.0, 2.0)[0]
        assert ramp == ramp and hash(ramp) == hash(ramp)
        assert ramp != build_sta_protocol(6.0, 12.0, 2.0)[0]
        assert FrequencyProtocol.constant(4.0, 2.0) \
            != FrequencyProtocol.constant(9.0, 2.0)
        assert len({build_sta_protocol(5.0, 10.0, 2.0)[0],
                    build_sta_protocol(5.0, 10.0, 2.0)[0]}) == 2


class TestCycleSpec:
    def test_ordering_enforced(self):
        with pytest.raises(ConfigError):
            CycleSpec(kind=CycleKind.CARNOT_SHORTCUT, omega1=5.0, omega2=8.0,
                      omega3=4.0, omega4=6.0, t_hot_bath=8.0, t_cold_bath=5.0,
                      open_stroke_duration=1.0, adiabat_duration=5.0)

    def test_cycle_time_round_trip(self):
        spec = CycleSpec(kind=CycleKind.CARNOT_SHORTCUT, omega1=10.0, omega2=8.0,
                         omega3=5.0, omega4=6.25, t_hot_bath=8.0, t_cold_bath=5.0,
                         open_stroke_duration=3.0, adiabat_duration=5.0)
        spec2 = spec.with_cycle_time(40.0)
        assert spec2.cycle_time_units == pytest.approx(40.0, rel=1e-14)
        assert cycle_time_from_atomic(cycle_time_to_atomic(40.0)) == \
            pytest.approx(40.0, rel=1e-15)

    def test_adiabat_budget_guard(self):
        spec = CycleSpec(kind=CycleKind.CARNOT_SHORTCUT, omega1=10.0, omega2=8.0,
                         omega3=5.0, omega4=6.25, t_hot_bath=8.0, t_cold_bath=5.0,
                         open_stroke_duration=3.0, adiabat_duration=5.0)
        with pytest.raises(ConfigError):
            spec.with_cycle_time(7.0)  # below the 10 a.u. adiabat budget

    def test_geometry_warnings(self):
        literal = CycleSpec(kind=CycleKind.CARNOT_SHORTCUT, omega1=10.0,
                            omega2=6.25, omega3=5.0, omega4=7.5,
                            t_hot_bath=8.0, t_cold_bath=5.0,
                            open_stroke_duration=1.0, adiabat_duration=5.0)
        assert len(literal.geometry_warnings()) == 2
        matched = CycleSpec(kind=CycleKind.CARNOT_SHORTCUT, omega1=10.0,
                            omega2=8.0, omega3=5.0, omega4=6.25,
                            t_hot_bath=8.0, t_cold_bath=5.0,
                            open_stroke_duration=1.0, adiabat_duration=5.0)
        assert matched.geometry_warnings() == []

    @pytest.mark.parametrize("preset,changes,message", [
        ("carnot-shortcut", {"omega3": -5.0},
         "omega3 must be positive, got -5.0"),
        ("carnot-shortcut", {"omega4": 11.0},
         "need omega1 > omega4 > omega3 (compression ordering)"),
        ("carnot-shortcut", {"t_cold_bath": 0.0},
         "bath temperatures must be positive"),
        ("carnot-shortcut", {"t_cold_bath": 8.0},
         "hot bath must be hotter than cold bath"),
        ("carnot-shortcut", {"coupling": 0.0}, "coupling must be positive"),
        ("endo-global", {"mu_magnitude": None},
         "endo-global cycles need mu_magnitude > 0"),
        ("endo-global", {"mu_magnitude": 0.0},
         "endo-global cycles need mu_magnitude > 0"),
        ("endo-global", {"mu_magnitude": 2.0}, "|mu| must be below 2"),
        ("carnot-shortcut", {"open_stroke_duration": 0.0},
         "carnot-shortcut cycles need open_stroke_duration > 0"),
        ("endo-shortcut", {"adiabat_duration": None},
         "endo-shortcut cycles need adiabat_duration > 0"),
        ("endo-shortcut", {"t_hot_internal": None},
         "endo-shortcut cycles need internal temperatures"),
        ("endo-shortcut", {"t_cold_internal": -5.0},
         "internal temperatures must be positive"),
    ], ids=["omega", "compression", "bath-positive", "bath-order", "coupling",
            "mu-unset", "mu-zero", "mu-bound", "open-duration",
            "adiabat-duration", "internal-unset", "internal-positive"])
    def test_spec_check_message(self, preset, changes, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            replace(PRESETS[preset], **changes)

    @pytest.mark.parametrize("tau", [0.0, -8.0])
    def test_global_cycle_time_must_be_positive(self, tau):
        with pytest.raises(ConfigError, match="^cycle time must be positive$"):
            PRESETS["endo-global"].with_cycle_time(tau)

    def test_endo_geometry_reads_internal_temperatures(self):
        # the corners match the internal temperatures 8 and 5, not the
        # baths at 7.75 and 5.25
        spec = get_preset("endo-shortcut", cycle_time=40.0)
        assert spec.geometry_warnings() == []
        at_baths = replace(spec, t_hot_internal=7.75, t_cold_internal=5.25)
        assert len(at_baths.geometry_warnings()) == 2

    def test_zero_work_geometry_warned(self):
        # omega1/omega3 = 2 = T_hot/T_cold
        spec = replace(PRESETS["carnot-shortcut"], t_cold_bath=4.0)
        warnings = spec.geometry_warnings()
        assert len(warnings) == 3
        assert warnings[-1] == ("compression ratio 2 does not exceed "
                                "T_hot/T_cold = 2: zero-work geometry")

    def test_bath_spec_validation(self):
        with pytest.raises(DomainError):
            BathSpec(temperature=-1.0)
        with pytest.raises(DomainError):
            BathSpec(temperature=5.0, coupling=0.0)


class TestOutputFormat:
    def test_numbers_read_back_bit_exactly(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2,
                  np.float64(1.0) / 3.0, 7]
        path = tmp_path / "n.csv"
        write_csv(path, ["x"], [[v] for v in values])
        lines = path.read_text().splitlines()
        assert lines[0] == "x" and len(lines) == len(values) + 1
        for v, text in zip(values, lines[1:]):
            back = float(text)
            if math.isnan(v):
                assert math.isnan(back)
            else:
                assert back == v and math.copysign(1.0, back) == math.copysign(1.0, v)

    def test_text_cell_stays_one_cell_on_one_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [[1.5, "x, y\nz", ""]])
        lines = path.read_text().splitlines()
        assert lines == ["a,b,c", "1.5,x; y z,"]

    def test_rows_match_the_per_cell_rule(self, tmp_path):
        # a row of numbers is formatted with one string and a row with text
        # cell by cell; both give the bytes of the per-cell rule
        rows = [[1, 2.5, math.nan], [math.inf, -math.inf, -0.0],
                ["bad, value\n", 3, math.nan],
                [np.float64(0.1), np.int64(7), 5e-324],
                np.array([1.0 / 3.0, 2.0, -math.inf]), [4, "", -math.inf]]
        path = tmp_path / "m.csv"
        write_csv(path, ["a", "b", "c"], rows)

        def cell(x):
            if isinstance(x, str):
                return x.replace(",", ";").replace("\n", " ")
            return "%.17g" % x

        want = "a,b,c\n" + "".join(",".join(cell(x) for x in row) + "\n"
                                   for row in rows)
        assert path.read_bytes() == want.encode()

    def test_format_is_set_in_core_alone(self):
        # every number, JSON file and hash format goes through core.write_csv,
        # core.write_json and core.content_hash
        src = Path(__file__).resolve().parents[1] / "src" / "carnotlab"
        offenders = [f"{path.name}: {token}"
                     for path in sorted(src.glob("*.py")) if path.name != "core.py"
                     for token in ("json.dump(", ".17g", "hashlib")
                     if token in path.read_text()]
        assert offenders == []


class TestModuleBoundaries:
    def test_dynamics_imports_no_cycle_layer(self):
        # dynamics propagates protocols; it needs neither their synthesis
        # nor the cycles built from them
        tree = ast.parse((SRC / "dynamics.py").read_text())
        imported = {a.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for a in node.names}
        imported |= {node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert not {m.rsplit(".", 1)[-1] for m in imported} \
            & {"protocols", "cycle_engine"}

    def test_cycles_load_no_scipy(self, tmp_path):
        # scipy serves the oracle's solves and the tests, not the cycle path;
        # PyYAML only reads YAML files, hashlib only hashes and the quintics
        # need no numpy.polynomial, so a cycle command loads none of them
        code = (
            "import sys, carnotlab.cli, carnotlab.fock_oracle\n"
            "from carnotlab.cycle_engine import run_to_limit_cycle\n"
            "from carnotlab.presets import get_preset\n"
            "from carnotlab.thermo import sweep\n"
            "for name in ('carnot-shortcut', 'endo-shortcut', 'endo-global'):\n"
            "    run_to_limit_cycle(get_preset(name, cycle_time=40.0))\n"
            "sweep(get_preset('endo-global'), 'cycle_time', [8.0])\n"
            "assert carnotlab.cli.main(['cycle', '--preset', 'endo-global',\n"
            "                           '--cycle-time', '8', '--out',\n"
            f"                           {str(tmp_path / 'cycle')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')"
            " or m.split('.')[0] in ('yaml', '_hashlib')"
            " or m.startswith('numpy.polynomial')))\n")
        path = os.pathsep.join(p for p in (str(SRC.parent),
                                           os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.splitlines()[-1] == "[]"


class TestSpecRecord:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_to_dict_holds_every_set_field(self, name):
        spec = get_preset(name, cycle_time=40.0, gamma_dephasing=0.01)
        d = spec.to_dict()
        assert set(d) == {f.name for f in fields(spec)
                          if getattr(spec, f.name) is not None}
        assert d["kind"] == spec.kind.value
        assert all(d[k] == getattr(spec, k) for k in d if k != "kind")

    def test_every_field_changes_the_hash(self):
        base = get_preset("endo-shortcut", cycle_time=40.0)
        hashes = {base.config_hash()}
        for f in fields(CycleSpec):
            v = getattr(base, f.name)
            if f.name == "kind":
                v = CycleKind.CARNOT_SHORTCUT
            elif f.name == "name":
                v = "other"
            else:  # a number, zero or unset
                v = v * (1.0 + 1e-12) if v else 1e-3
            hashes.add(replace(base, **{f.name: v}).config_hash())
        assert len(hashes) == len(fields(CycleSpec)) + 1


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("preset,field", [
        ("endo-shortcut", f.name) for f in fields(CycleSpec)
        if f.name not in ("kind", "name", "mu_magnitude")]
        + [("endo-global", "mu_magnitude")])
    def test_spec_field_named(self, preset, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            get_preset(preset, cycle_time=30.0, **{field: value})

    @pytest.mark.parametrize("preset", ["carnot-shortcut", "endo-global"])
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_cycle_time_named(self, preset, value):
        with pytest.raises(ConfigError, match="^cycle_time must be finite"):
            get_preset(preset, cycle_time=value)

    @pytest.mark.parametrize("field", ["temperature", "coupling"])
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_bath_field_named(self, field, value):
        with pytest.raises(ConfigError, match=f"^bath {field} must be finite"):
            BathSpec(**{"temperature": 5.0, field: value})
