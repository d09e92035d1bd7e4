import json

import pytest

from carnotlab import cli, protocols
from carnotlab.cli import main
from carnotlab.config import load_config, parse_config_dict
from carnotlab import thermo
from carnotlab.core import CycleKind, CycleSpec
from carnotlab.errors import CarnotLabError, ConfigError
from carnotlab.presets import PRESET_NAMES, get_preset
from carnotlab.protocols import load_protocol

#: A full spec, with no preset behind it.
FULL_SPEC = {"kind": "carnot-shortcut", "omega1": 10.0, "omega2": 8.0,
             "omega3": 5.0, "omega4": 6.25, "t_hot_bath": 8.0,
             "t_cold_bath": 5.0, "open_stroke_duration": 10.0,
             "adiabat_duration": 5.0}


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"preset": "endo-global", "bogus": 1})
        with pytest.raises(ConfigError):
            parse_config_dict({"spec": {"omega9": 1.0}})
        with pytest.raises(ConfigError, match="max_cycles"):
            parse_config_dict({"preset": "endo-global", "max_cycles": 500})

    def test_to_dict_leaves_out_out(self):
        cfg = parse_config_dict({"preset": "endo-global", "out": "runs",
                                 "spec": {"name": "n"}, "jobs": 2})
        assert cfg.to_dict() == {"preset": "endo-global", "cycle_time": None,
                                 "spec": {"name": "n"}, "axis": None,
                                 "values": None, "jobs": 2, "tol": 1e-9}

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "preset: endo-global\ncycle_time: 32\naxis: cycle_time\n"
            "values: [8, 12]\njobs: 1\n")
        cfg = load_config(str(path))
        assert cfg.preset == "endo-global"
        spec = cfg.build_spec()
        assert spec.kind is CycleKind.ENDO_GLOBAL
        assert spec.cycle_time_units == pytest.approx(32.0)

    def test_json_alternative(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"preset": "carnot-shortcut",
                                    "cycle_time": 40}))
        cfg = load_config(str(path))
        assert cfg.build_spec().cycle_time_units == pytest.approx(40.0)

    def test_full_spec_without_preset(self):
        cfg = parse_config_dict({"spec": FULL_SPEC})
        spec = cfg.build_spec()
        assert spec.omega2 == 8.0

    def test_full_spec_with_cycle_time(self):
        spec = parse_config_dict({"spec": FULL_SPEC,
                                  "cycle_time": 40}).build_spec()
        assert spec == CycleSpec(**FULL_SPEC).with_cycle_time(40.0)
        assert spec.cycle_time_units == pytest.approx(40.0)
        assert spec.omega2 == 8.0

    @pytest.mark.parametrize("raw,message", [
        (["preset", "endo-global"], "configuration root must be a mapping"),
        ({"preset": "endo-global", "spec": [1, 2]}, "'spec' must be a mapping"),
        *(({"preset": "endo-global", "spec": v}, "'spec' must be a mapping")
          for v in (0, False, "", [])),
    ], ids=["root", "spec", "spec-0", "spec-false", "spec-string",
            "spec-empty-list"])
    def test_not_a_mapping(self, raw, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config_dict(raw)

    @pytest.mark.parametrize("text,key", [
        ("preset: carnot-shortcut\njobs: two\n", "jobs"),
        ("preset: carnot-shortcut\ntol: tiny\n", "tol"),
        ("preset: carnot-shortcut\nvalues: 5\n", "values"),
        ("spec: {kind: otto}\n", "spec.kind"),
        ("spec: {kind: carnot-shortcut, omega1: 10.0}\n", "omega2"),
        ("preset: carnot-shortcut\nspec: {coupling: strong}\n", "spec.coupling"),
        ("preset: carnot-shortcut\njobs: 2.5\n", "jobs"),
        ("preset: carnot-shortcut\nspec: {coupling: true}\n", "spec.coupling"),
    ], ids=["jobs", "tol", "values", "kind", "partial-spec", "coupling",
            "fractional-jobs", "boolean-coupling"])
    def test_malformed_value_names_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and key in err

    def test_preset_names(self):
        for name in PRESET_NAMES:
            assert get_preset(name, cycle_time=40.0) is not None
        with pytest.raises(ConfigError):
            get_preset("not-a-preset")

    def test_eq6_alias(self):
        a = get_preset("carnot-shortcut", cycle_time=40.0)
        b = get_preset("eq6-consistent", cycle_time=40.0)
        assert a.omega2 == b.omega2 and a.omega4 == b.omega4


class TestCli:
    def test_protocol_command(self, tmp_path, capsys):
        out = tmp_path / "p"
        rc = main(["protocol", "sta", "5", "10", "5", "--out", str(out)])
        assert rc == 0
        text = (out / "sta_protocol.csv").read_text().splitlines()
        assert text[0] == "t,omega,omega_dot,mu"
        first = [float(x) for x in text[1].split(",")]
        last = [float(x) for x in text[-1].split(",")]
        assert first[1] == pytest.approx(5.0, rel=1e-10)
        assert last[1] == pytest.approx(10.0, rel=1e-10)
        assert (out / "manifest.json").exists()

    def test_protocol_constmu(self, tmp_path):
        out = tmp_path / "p"
        rc = main(["protocol", "constmu", "9.6875", "7.75", "--mu", "-0.02",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "constmu_protocol.csv").exists()

    def test_invalid_geometry_exit_code_2(self, capsys):
        rc = main(["cycle", "--preset", "carnot-shortcut",
                   "--cycle-time", "6"])  # below the adiabat budget
        assert rc == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_builder_error_exit_code_1(self, tmp_path, capsys):
        rc = main(["cycle", "--preset", "carnot-shortcut", "--cycle-time", "9",
                   "--out", str(tmp_path / "cyc")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InfeasibleStroke" in err
        assert not (tmp_path / "cyc").exists()

    def test_failed_run_keeps_an_existing_out(self, tmp_path, capsys):
        # only a directory that the command created is removed
        (tmp_path / "cyc").mkdir()
        (tmp_path / "cyc" / "keep.txt").write_text("x")
        rc = main(["cycle", "--preset", "carnot-shortcut", "--cycle-time", "9",
                   "--out", str(tmp_path / "cyc")])
        assert rc == 1
        assert (tmp_path / "cyc" / "keep.txt").read_text() == "x"

    def test_failed_run_removes_the_parents_it_created(self, tmp_path,
                                                       capsys):
        rc = main(["cycle", "--preset", "carnot-shortcut", "--cycle-time", "9",
                   "--out", str(tmp_path / "nest" / "a" / "b")])
        assert rc == 1
        assert not (tmp_path / "nest").exists()

    def test_failed_run_keeps_an_existing_parent(self, tmp_path, capsys):
        (tmp_path / "nest").mkdir()
        rc = main(["cycle", "--preset", "carnot-shortcut", "--cycle-time", "9",
                   "--out", str(tmp_path / "nest" / "a" / "b")])
        assert rc == 1
        assert (tmp_path / "nest").is_dir()
        assert not (tmp_path / "nest" / "a").exists()

    def test_failed_run_through_dotdot_creates_the_named_path(
            self, tmp_path, capsys, monkeypatch):
        # x/../y names y: x is neither created nor left behind, and a y that
        # existed before is kept
        monkeypatch.chdir(tmp_path)
        argv = ["cycle", "--preset", "carnot-shortcut", "--cycle-time", "9",
                "--out", "x/../y"]
        assert main(argv) == 1
        assert not (tmp_path / "x").exists()
        assert not (tmp_path / "y").exists()
        (tmp_path / "y").mkdir()
        (tmp_path / "y" / "keep.txt").write_text("x")
        assert main(argv) == 1
        assert not (tmp_path / "x").exists()
        assert (tmp_path / "y" / "keep.txt").read_text() == "x"

    def test_validate_warns_on_literal(self, capsys):
        rc = main(["validate", "--preset", "table1-literal"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "adiabats will not match populations" in captured.err

    def test_cycle_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "cyc"
        rc = main(["cycle", "--preset", "endo-global", "--cycle-time", "12",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["code_version"]
        assert manifest["tolerances"]["tol"] == 1e-9
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["contraction"] < 1.0
        assert "converged" not in summary
        # per-stroke Magnus resolution: at least the finer pilot's 800 steps
        assert len(summary["magnus_steps"]) == 4
        assert min(summary["magnus_steps"]) >= 800
        assert max(summary["magnus_errors"]) <= 1e-11

    def test_cold_bath_sweep_exits_0(self, tmp_path):
        cfg = tmp_path / "cold.yaml"
        cfg.write_text("preset: endo-global\ncycle_time: 40\n"
                       "spec: {t_hot_bath: 0.008, t_cold_bath: 0.005}\n")
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(cfg), "--axis", "cycle_time",
                   "--values", "40", "--out", str(out)])
        assert rc == 0
        assert (out / "sweep.csv").read_text().splitlines()[1].split(",")[1] == "ok"

    def test_cold_internal_temperature_sweep_exits_0(self, tmp_path):
        cfg = tmp_path / "cold.yaml"
        cfg.write_text("preset: endo-shortcut\ncycle_time: 40\n"
                       "spec: {t_hot_internal: 0.012, t_cold_internal: 0.0075,"
                       " t_hot_bath: 0.0125, t_cold_bath: 0.007}\n")
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(cfg), "--axis", "cycle_time",
                   "--values", "40,60", "--out", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["error", "error"]

    def test_removed_max_cycles_key_exit_code_2(self, tmp_path, capsys):
        cfg = tmp_path / "old.yaml"
        cfg.write_text("preset: endo-global\nmax_cycles: 500\n")
        assert main(["cycle", "--config", str(cfg)]) == 2
        assert "max_cycles" in capsys.readouterr().err

    def test_sweep_determinism(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            rc = main(["sweep", "--preset", "endo-global", "--axis",
                       "cycle_time", "--values", "10,14", "--out", str(out)])
            assert rc == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "sweep.meta.json").read_bytes() == \
            (out2 / "sweep.meta.json").read_bytes()

    def test_cycle_determinism(self, tmp_path):
        outs = [tmp_path / "c1", tmp_path / "c2"]
        for out in outs:
            assert main(["cycle", "--preset", "endo-global", "--cycle-time",
                         "8", "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 6
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("flags,key", [
        (["--jobs", "0"], "jobs"), (["--jobs", "-3"], "jobs"),
        (["--tol", "0"], "tol"), (["--values", "30,abc"], "values")],
        ids=["jobs-0", "jobs-negative", "tol-0", "values-abc"])
    def test_bad_flag_exit_code_2(self, tmp_path, capsys, flags, key):
        argv = ["sweep", "--preset", "endo-global", "--axis", "cycle_time",
                "--values", "30", "--out", str(tmp_path / "sw")]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and key in err
        assert not (tmp_path / "sw").exists()

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("preset: endo-global\njobs: 2\ntol: 1.0e-6\n")
        out = tmp_path / "cyc"
        assert main(["cycle", "--config", str(path), "--tol", "1e-10",
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["jobs"], config["tol"]) == (2, 1e-10)

    def test_unknown_axis_in_config_exit_code_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("preset: endo-global\naxis: bogus\nvalues: [30]\n")
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "sw")]) == 2
        assert "unknown sweep axis 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_sweep_requires_axis(self, capsys):
        rc = main(["sweep", "--preset", "endo-global", "--values", "10"])
        assert rc == 2

    def test_compare_command(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--presets", "carnot-shortcut,endo-global",
                   "--axis", "cycle_time", "--values", "40", "--out", str(out)])
        assert rc == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("carnot-shortcut,40")
        assert lines[2].startswith("endo-global,40")

    def test_compare_honours_config_spec(self, tmp_path):
        cfg = tmp_path / "hot.yaml"
        cfg.write_text("spec: {t_hot_bath: 9.0}\n")
        args = ["--config", str(cfg), "--axis", "cycle_time", "--values", "40"]
        assert main(["compare", "--presets", "carnot-shortcut", *args,
                     "--out", str(tmp_path / "cmp")]) == 0
        assert main(["sweep", "--preset", "carnot-shortcut", *args,
                     "--out", str(tmp_path / "sw")]) == 0
        compare = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        swept = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        header = swept[0].split(",")
        row = dict(zip(header, swept[1].split(",")))
        assert compare[1] == ",".join(
            ["carnot-shortcut", row["value"], row["status"], row["total_work"],
             row["power"], row["efficiency"], row["operational_mode"], ""])

    def test_compare_error_row_is_one_line(self, tmp_path, monkeypatch):
        run = thermo.run_to_limit_cycle

        def fail_at_8(spec, **kwargs):
            if spec.cycle_time_units == pytest.approx(8.0):
                raise CarnotLabError("first part, second part\nnext line")
            return run(spec, **kwargs)

        monkeypatch.setattr(thermo, "run_to_limit_cycle", fail_at_8)
        out = tmp_path / "cmp"
        assert main(["compare", "--presets", "endo-global", "--axis",
                     "cycle_time", "--values", "8,10", "--jobs", "1",
                     "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == ("endo-global,8,error,,,,,CarnotLabError: "
                            "first part; second part next line")
        assert lines[2].startswith("endo-global,10,ok,")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--preset", "endo-global"],
        ["compare", "--presets", "carnot-shortcut,endo-global"],
    ], ids=["sweep", "compare"])
    def test_compression_ratio_off_carnot_shortcut_exit_code_2(
            self, tmp_path, capsys, monkeypatch, argv):
        # refused before any point runs, the carnot-shortcut ones included
        def no_cycle(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(thermo, "run_to_limit_cycle", no_cycle)
        out = tmp_path / "out"
        assert main([*argv, "--axis", "compression_ratio", "--values", "2,3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("ConfigError: compression-ratio "
                                           "sweeps apply to the "
                                           "carnot-shortcut kind\n")
        assert not out.exists()

    def test_compare_off_cycle_time_needs_values(self, tmp_path, capsys):
        # the cycle time is no value of another axis
        out = tmp_path / "cmp"
        assert main(["compare", "--presets", "endo-global", "--axis",
                     "dephasing", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and "--values" in err
        assert not out.exists()

    def test_compare_needs_a_preset(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--presets", ",", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "ConfigError: compare needs --presets\n"
        assert not out.exists()

    def test_compare_at_the_cycle_time(self, tmp_path):
        # without --values, one point at the cycle time
        out = tmp_path / "cmp"
        assert main(["compare", "--presets", "endo-global", "--cycle-time",
                     "40", "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("endo-global,40,ok,")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["axis"] == "cycle_time"
        assert manifest["values"] == [40.0]

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CARNOTLAB_OUT", str(tmp_path))
        rc = main(["protocol", "constmu", "6", "5", "--mu", "-0.1"])
        assert rc == 0
        assert (tmp_path / "carnotlab-protocol" / "constmu_protocol.csv").exists()


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("argv,key", [
        (["cycle", "--preset", "endo-global", "--cycle-time", "8",
          "--tol", "nan"], "tol"),
        (["cycle", "--preset", "carnot-shortcut", "--cycle-time", "nan"],
         "cycle_time"),
        (["cycle", "--preset", "carnot-shortcut", "--cycle-time", "inf"],
         "cycle_time"),
        (["sweep", "--preset", "carnot-shortcut", "--axis", "cycle_time",
          "--values", "30,nan"], "values"),
        (["protocol", "ste", "10", "8", "5", "--bath-temperature", "nan"],
         "bath_temperature"),
        (["protocol", "sta", "10", "8", "inf"], "t_f"),
    ], ids=["tol", "cycle-time-nan", "cycle-time-inf", "values", "bath",
            "t-f"])
    def test_flag_exit_code_2(self, tmp_path, capsys, argv, key):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,key", [
        ("preset: endo-global\ntol: .nan\n", "tol"),
        ("preset: carnot-shortcut\ncycle_time: .inf\n", "cycle_time"),
        ("preset: carnot-shortcut\nvalues: [30, .nan]\n", "values"),
        ("preset: carnot-shortcut\nspec: {coupling: .nan}\n", "coupling"),
    ], ids=["tol", "cycle-time", "values", "coupling"])
    def test_config_value_names_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and key in err


class TestFrontEndErrors:
    """A bad config file, config value or output path is a ConfigError
    (exit 2) that names it, raised before any cycle runs."""

    @pytest.fixture(autouse=True)
    def no_cycle(self, monkeypatch):
        def ran(*args, **kwargs):
            pytest.fail("a cycle ran")

        monkeypatch.setattr(cli, "run_to_limit_cycle", ran)
        monkeypatch.setattr(thermo, "run_to_limit_cycle", ran)

    @pytest.mark.parametrize("key", ["out", "preset", "axis"])
    def test_non_string_value(self, tmp_path, capsys, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"preset": "endo-global", "cycle_time": 8,
                                    key: 5}))
        out = [] if key == "out" else ["--out", str(tmp_path / "o")]
        assert main(["cycle", "--config", str(path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: {key} must be a string, got 5")
        assert not (tmp_path / "o").exists()

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["cycle", "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and str(tmp_path) in err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"preset: endo-global\n# caf\xe9\n")
        assert main(["cycle", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and str(path) in err
        assert not (tmp_path / "o").exists()

    def test_unknown_compare_preset(self, tmp_path, capsys):
        assert main(["compare", "--presets", "endo-global,bogus", "--values",
                     "8", "--out", str(tmp_path / "o")]) == 2
        assert "unknown preset 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["cycle", "--preset", "endo-global", "--cycle-time", "8"],
        ["sweep", "--preset", "endo-global", "--axis", "cycle_time",
         "--values", "8"],
        ["compare", "--presets", "endo-global", "--values", "8"],
        ["protocol", "constmu", "6", "5", "--mu", "-0.1"],
    ], ids=["cycle", "sweep", "compare", "protocol"])
    def test_out_is_a_file(self, tmp_path, capsys, argv):
        path = tmp_path / "taken"
        path.write_text("")
        assert main([*argv, "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: out") and str(path) in err


class TestConfigFiles:
    @pytest.mark.parametrize("name,text,message", [
        ("bad.yaml", "preset: [endo-global\n", "could not parse"),
        ("bad.json", '{"preset": "endo-global"', "could not parse"),
        ("list.yaml", "- endo-global\n- 8\n",
         "configuration root must be a mapping"),
        ("list.json", '["endo-global", 8]',
         "configuration root must be a mapping"),
        ("spec.yaml", "spec: 0\n", "'spec' must be a mapping"),
        *((name, text, "configuration root must be a mapping")
          for name, text in (("empty-list.yaml", "[]\n"),
                             ("false.yaml", "false\n"), ("zero.yaml", "0\n"),
                             ("string.yaml", '""\n'),
                             ("empty-list.json", "[]"))),
    ], ids=["yaml", "json", "yaml-root", "json-root", "yaml-spec-0",
            "yaml-empty-list", "yaml-false", "yaml-0", "yaml-string",
            "json-empty-list"])
    def test_unreadable_config_exit_code_2(self, tmp_path, capsys, name,
                                           text, message):
        path = tmp_path / name
        path.write_text(text)
        assert main(["cycle", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,text", [
        ("empty.yaml", ""), ("null-spec.yaml", "spec:\n"),
        ("null.json", "null"),
    ], ids=["empty-file", "null-spec", "json-null"])
    def test_empty_config_is_no_keys(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main(["validate", "--preset", "endo-global",
                     "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["spec"] \
            == get_preset("endo-global").to_dict()


class TestProtocolCommand:
    """``carnotlab protocol``: a flag value outside its domain is a
    configuration error (exit 2), a stroke that cannot be built a compute
    error (exit 1); neither leaves an output directory."""

    @pytest.mark.parametrize("argv,message", [
        (["sta", "5", "10", "-1"], "stroke duration must be positive"),
        (["ste", "10", "8", "5", "--bath-temperature", "-1"],
         "bath temperature must be positive, got -1.0"),
        (["constmu", "6", "5", "--mu", "0.1"],
         "mu=0.1 has the wrong sign for 6.0 -> 5.0: the drive runs into its "
         "pole"),
        (["sta", "0", "10", "5"], "frequencies must be positive"),
        (["ste", "10", "-8", "5"], "frequencies must be positive"),
        (["ste", "10", "8", "0"], "stroke duration must be positive"),
        (["ste", "10", "8", "5", "--coupling", "0"],
         "bath coupling must be positive, got 0.0"),
        (["ste", "10", "8", "5", "--internal-temperature", "-2"],
         "internal temperature must be positive"),
        (["constmu", "6", "5", "--mu", "-2.5"], "|mu| must be below 2"),
        (["constmu", "6", "5", "--mu", "0"],
         "mu must be nonzero for a frequency-changing stroke"),
        (["constmu", "5", "5", "--mu", "7"], "|mu| must be below 2"),
    ], ids=["sta-t-f", "ste-bath", "constmu-sign", "sta-omega", "ste-omega",
            "ste-t-f", "ste-coupling", "ste-internal", "constmu-bound",
            "constmu-zero", "constmu-equal-bound"])
    def test_out_of_domain_exit_code_2(self, tmp_path, capsys, argv,
                                       message):
        out = tmp_path / "bad"
        assert main(["protocol", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ConfigError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,error", [
        (["ste", "10", "8", "0.01"], "InfeasibleStroke"),
        (["sta", "5", "10", "0.05"], "InvalidProtocol"),
        (["ste", "10", "8", "20"], "ProtocolInversionFailure"),
    ], ids=["infeasible", "invalid", "inversion"])
    def test_compute_error_exit_code_1(self, tmp_path, capsys, monkeypatch,
                                       argv, error):
        if error == "ProtocolInversionFailure":
            # one fixed-point iteration cannot converge
            monkeypatch.setattr(protocols, "INVERSION_MAX_ITER", 1)
        out = tmp_path / "bad"
        assert main(["protocol", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"{error}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["sta", "5", "10"], "sta protocols need --t-f"),
        (["ste", "10", "8"], "ste protocols need --t-f"),
        (["constmu", "6", "5"], "constmu protocols need --mu"),
    ], ids=["sta", "ste", "constmu"])
    def test_missing_flag_exit_code_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "bad"
        assert main(["protocol", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ConfigError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags,family", [
        ([], "ste"),
        (["--internal-temperature", "8"], "ste-nonthermal"),
    ], ids=["thermal", "internal-temperature"])
    def test_ste(self, tmp_path, capsys, flags, family):
        out = tmp_path / "p"
        assert main(["protocol", "ste", "10", "8", "20", "--bath-temperature",
                     "8", *flags, "--out", str(out)]) == 0
        csv_path = out / "ste_protocol.csv"
        assert capsys.readouterr().out == f"{csv_path}\n"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,omega,omega_dot,mu"
        assert len(lines) == 1 + protocols.DEFAULT_GRID_POINTS
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[:2] == [0.0, 10.0]
        assert last[0] == 20.0
        assert last[1] == pytest.approx(8.0, rel=1e-12)
        header = json.loads((out / "ste_protocol.json").read_text())
        assert header["meta"]["family"] == family
        assert header["samples"] == protocols.DEFAULT_GRID_POINTS
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "ste"
        assert manifest["arguments"]["internal_temperature"] == \
            (8.0 if flags else None)

    def test_zero_duration_constmu_round_trip(self, tmp_path):
        out = tmp_path / "p"
        assert main(["protocol", "constmu", "5", "5", "--mu", "0.1",
                     "--out", str(out)]) == 0
        csv_path = out / "constmu_protocol.csv"
        json_path = out / "constmu_protocol.json"
        assert csv_path.read_text() == "t,omega,omega_dot,mu\n0,5,0,0\n"
        header = json.loads(json_path.read_text())
        assert header["duration"] == 0.0 and header["samples"] == 1
        loaded = load_protocol(csv_path, json_path)
        assert loaded.duration == 0.0
        assert float(loaded.omega(0.0)) == 5.0
        assert float(loaded.omega_dot(0.0)) == 0.0
        assert loaded.meta["family"] == "constant_mu"

    def test_zero_duration_constmu_records_its_mu(self, tmp_path):
        out = tmp_path / "p"
        assert main(["protocol", "constmu", "5", "5", "--mu", "0.1",
                     "--out", str(out)]) == 0
        header = json.loads((out / "constmu_protocol.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert header["meta"]["mu"] == manifest["arguments"]["mu"] == 0.1


class TestCompareTable:
    def test_every_compare_row_fills_the_header(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--presets", "carnot-shortcut,endo-global",
                     "--values", "14,30", "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0].startswith("preset,value,status,")
        assert [line.split(",")[2] for line in lines[1:]] == \
            ["error", "ok", "ok", "ok"]
        assert {len(line.split(",")) for line in lines} == {8}
