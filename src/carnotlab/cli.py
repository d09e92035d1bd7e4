"""Batch command-line front end.

Five subcommands: ``protocol`` (synthesize one stroke), ``cycle`` (one limit
cycle to a result directory), ``sweep`` (one ledger per axis value),
``compare`` (joined sweep across presets), ``validate`` (geometry checks).
All outputs are deterministic CSV/JSON; there is no plotting dependency.

Exit codes: 0 success, 1 compute error (builder/convergence/numerics),
2 configuration error, a ``protocol`` argument outside its domain included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import fields, replace

from . import __version__
from .config import RunConfig, parse_config_dict, read_config
from .core import BathSpec, write_csv, write_json
from .cycle_engine import export_cycle_result, run_to_limit_cycle
from .errors import CarnotLabError, ConfigError, DomainError
from .presets import DEFAULT_CYCLE_TIME, PRESET_NAMES
from .protocols import (build_constant_mu_protocol, build_sta_protocol,
                        build_ste_nonthermal_protocol, build_ste_protocol,
                        save_protocol)
from .thermo import (SWEEP_AXES, analyze_cycle, check_axis, export_sweep,
                     sweep)

OUTPUT_ROOT_ENV = "CARNOTLAB_OUT"
#: Ledger columns of ``compare.csv``, between ``preset, value, status`` and
#: ``error``.
COMPARE_COLUMNS = ("total_work", "power", "efficiency", "operational_mode")


@contextmanager
def _out_dir(out, sub: str):
    """The output directory, created: ``out``, or else ``carnotlab-<sub>``
    under ``$CARNOTLAB_OUT`` (default the working directory), as a
    normalised path, so that ``x/../y`` creates ``y`` alone.  If the command
    then fails, the topmost directory that this call created, parents
    included, is removed again; a directory that existed before is kept."""
    path = os.path.normpath(out or os.path.join(
        os.environ.get(OUTPUT_ROOT_ENV, "."), f"carnotlab-{sub}"))
    created = None
    missing = os.path.abspath(path)
    while not os.path.exists(missing):
        created, missing = missing, os.path.dirname(missing)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"out: cannot create {path}: {err}") from None
    try:
        yield path
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def _write_manifest(outdir: str, payload: dict) -> None:
    write_json(os.path.join(outdir, "manifest.json"),
               {"code_version": __version__, **payload})


def _write_run_manifest(outdir: str, command: str, cfg: RunConfig,
                        spec) -> None:
    """The manifest of a command that runs one spec: its config, the spec
    and the tolerance."""
    _write_manifest(outdir, {"command": command, "config": cfg.to_dict(),
                             "spec": spec.to_dict(),
                             "tolerances": {"tol": cfg.tol}})


def _config_from_args(args) -> RunConfig:
    """The config file, if any, with the given flags laid over its keys and
    validated as one mapping."""
    raw = read_config(args.config) if getattr(args, "config", None) else {}
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if flags["values"] is not None:
        flags["values"] = [v for v in flags["values"].split(",")
                           if v.strip()] or None
    raw.update({k: v for k, v in flags.items() if v is not None})
    return parse_config_dict(raw)


def _cmd_protocol(args) -> int:
    kind = args.kind
    arguments = {k: getattr(args, k) for k in (
        "omega_initial", "omega_final", "t_f", "mu", "bath_temperature",
        "coupling", "internal_temperature")}
    for key, v in arguments.items():
        if v is not None and not math.isfinite(v):
            raise ConfigError(f"{key} must be finite, got {v}")
    if kind != "constmu" and args.t_f is None:
        raise ConfigError(f"{kind} protocols need --t-f")
    if kind == "constmu" and args.mu is None:
        raise ConfigError("constmu protocols need --mu")
    try:
        # the bath's and the builders' argument checks are the only
        # DomainErrors here: a flag value outside its domain
        if kind == "sta":
            protocol, _ = build_sta_protocol(
                args.omega_initial, args.omega_final, args.t_f)
        elif kind == "ste":
            bath = BathSpec(args.bath_temperature, args.coupling)
            if args.internal_temperature is not None:
                protocol, _ = build_ste_nonthermal_protocol(
                    args.omega_initial, args.omega_final, args.t_f,
                    args.internal_temperature, bath)
            else:
                protocol, _ = build_ste_protocol(
                    args.omega_initial, args.omega_final, args.t_f, bath)
        else:
            protocol = build_constant_mu_protocol(
                args.omega_initial, args.omega_final, args.mu)
    except DomainError as err:
        raise ConfigError(str(err)) from None
    with _out_dir(args.out, "protocol") as out:
        csv_path = os.path.join(out, f"{kind}_protocol.csv")
        save_protocol(protocol, csv_path,
                      os.path.join(out, f"{kind}_protocol.json"))
        _write_manifest(out, {"command": "protocol", "kind": kind,
                              "arguments": arguments})
    print(csv_path)
    return 0


def _cmd_cycle(args) -> int:
    cfg = _config_from_args(args)
    spec = cfg.build_spec()
    with _out_dir(cfg.out, "cycle") as out:
        result = run_to_limit_cycle(spec, tol=cfg.tol)
        ledger = analyze_cycle(result, spec)
        export_cycle_result(result, out, ledger)
        _write_run_manifest(out, "cycle", cfg, spec)
    print(json.dumps(ledger.as_dict(), indent=2, sort_keys=True))
    print(out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    if not cfg.axis or not cfg.values:
        raise ConfigError("sweep needs --axis and --values")
    spec = cfg.build_spec()
    with _out_dir(cfg.out, "sweep") as out:
        table = sweep(spec, cfg.axis, cfg.values, tol=cfg.tol, jobs=cfg.jobs)
        csv_path = os.path.join(out, "sweep.csv")
        export_sweep(table, csv_path, os.path.join(out, "sweep.meta.json"))
        _write_run_manifest(out, "sweep", cfg, spec)
    n_bad = sum(1 for r in table.rows if not r.ok)
    print(csv_path)
    if n_bad:
        print(f"{n_bad} point(s) failed; see the status column", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    presets = [p.strip() for p in args.presets.split(",") if p.strip()]
    if not presets:
        raise ConfigError("compare needs --presets")
    axis = cfg.axis or "cycle_time"
    if not cfg.values and axis != "cycle_time":
        raise ConfigError(f"compare along {axis} needs --values")
    values = cfg.values or [DEFAULT_CYCLE_TIME if cfg.cycle_time is None
                            else cfg.cycle_time]
    specs = [replace(cfg, preset=name).build_spec() for name in presets]
    for spec in specs:
        check_axis(axis, spec)
    with _out_dir(cfg.out, "compare") as out:
        rows = []
        for name, spec in zip(presets, specs):
            table = sweep(spec, axis, values, tol=cfg.tol, jobs=cfg.jobs)
            rows += [[name, r.value, *r.cells(COMPARE_COLUMNS)]
                     for r in table.rows]
        csv_path = os.path.join(out, "compare.csv")
        write_csv(csv_path, ("preset", "value", "status", *COMPARE_COLUMNS,
                             "error"), rows)
        _write_manifest(out, {"command": "compare", "presets": presets,
                              "axis": axis, "values": values,
                              "tolerances": {"tol": cfg.tol}})
    print(csv_path)
    return 0


def _cmd_validate(args) -> int:
    cfg = _config_from_args(args)
    spec = cfg.build_spec()
    warnings = spec.geometry_warnings()
    report = {"spec": spec.to_dict(), "warnings": warnings,
              "cycle_time_units": spec.cycle_time_units,
              "config_hash": spec.config_hash()}
    print(json.dumps(report, indent=2, sort_keys=True))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carnotlab",
        description="Finite-time oscillator heat-engine cycles: protocols, "
                    "limit cycles, and thermodynamic sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protocol", help="synthesize one stroke protocol")
    p.add_argument("kind", choices=["sta", "ste", "constmu"])
    p.add_argument("omega_initial", type=float)
    p.add_argument("omega_final", type=float)
    p.add_argument("t_f", type=float, nargs="?", default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--bath-temperature", type=float, default=8.0)
    p.add_argument("--coupling", type=float, default=0.05)
    p.add_argument("--internal-temperature", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_protocol)

    common = dict(preset={"choices": list(PRESET_NAMES)}, config={},
                  cycle_time={"type": float}, out={}, tol={"type": float},
                  jobs={"type": int}, axis={"choices": SWEEP_AXES},
                  values={"help": "comma-separated axis values"})

    def add_common(sp, keys):
        for k in keys:
            sp.add_argument("--" + k.replace("_", "-"), default=None,
                            **common[k])

    p = sub.add_parser("cycle", help="run one cycle to its limit cycle")
    add_common(p, ("preset", "config", "cycle_time", "out", "tol"))
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("sweep", help="one converged ledger per axis value")
    add_common(p, ("preset", "config", "cycle_time", "out", "tol", "jobs",
                   "axis", "values"))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="joined table across presets")
    p.add_argument("--presets", required=True,
                   help=f"comma-separated names from: {', '.join(PRESET_NAMES)}")
    add_common(p, ("config", "cycle_time", "out", "tol", "jobs", "axis",
                   "values"))
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("validate", help="check a configuration's geometry")
    add_common(p, ("preset", "config", "cycle_time", "tol"))
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: the commands look
    up what they run when they are called."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"ConfigError: {err}", file=sys.stderr)
        return 2
    except CarnotLabError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
