"""Run-configuration ingestion: YAML or JSON, strictly validated."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import List, Optional

from .core import CycleKind, CycleSpec
from .cycle_engine import LIMIT_CYCLE_TOL
from .errors import ConfigError
from .presets import DEFAULT_CYCLE_TIME, get_preset
from .thermo import check_axis

_SPEC_KEYS = {f.name for f in fields(CycleSpec)}
_REQUIRED_SPEC_KEYS = [f.name for f in fields(CycleSpec) if f.default is MISSING]


@dataclass
class RunConfig:
    """Validated batch-run configuration: its fields are the configuration
    keys, with their defaults."""

    preset: Optional[str] = None
    cycle_time: Optional[float] = None
    spec: dict = field(default_factory=dict)
    axis: Optional[str] = None
    values: Optional[List[float]] = None
    out: Optional[str] = None
    jobs: int = 1
    tol: float = LIMIT_CYCLE_TOL

    def build_spec(self) -> CycleSpec:
        if self.preset is not None:
            tau = DEFAULT_CYCLE_TIME if self.cycle_time is None \
                else self.cycle_time
            return get_preset(self.preset, cycle_time=tau, **self.spec)
        missing = [k for k in _REQUIRED_SPEC_KEYS if k not in self.spec]
        if missing:
            raise ConfigError("config needs either a preset or a full spec; "
                              f"spec is missing {missing}")
        spec = CycleSpec(**self.spec)
        if self.cycle_time is not None:
            spec = spec.with_cycle_time(self.cycle_time)
        return spec

    def to_dict(self) -> dict:
        """Every field but ``out``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "out"}


def parse_config_dict(raw: dict) -> RunConfig:
    """Validate a configuration mapping; every bad value raises a
    ConfigError that names its key."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    # a ``spec:`` with no value is an empty spec; any other value that is
    # not a mapping, a falsy one included, is refused
    spec_part = {} if raw.get("spec") is None else raw["spec"]
    if not isinstance(spec_part, dict):
        raise ConfigError("'spec' must be a mapping")
    bad = set(spec_part) - _SPEC_KEYS
    if bad:
        raise ConfigError(f"unknown spec keys: {sorted(bad)}")
    spec = {}
    for key, v in spec_part.items():
        if key == "kind":
            v = _convert(CycleKind, v, "spec.kind",
                         f"one of {[k.value for k in CycleKind]}")
        elif key != "name" and (isinstance(v, bool)
                                or not isinstance(v, (int, float))):
            # YAML leaves exponent forms such as 1e-3 as strings
            v = _convert(float, v, f"spec.{key}", "a number")
        spec[key] = v
    for key in ("preset", "axis", "out"):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise ConfigError(f"{key} must be a string, got {raw[key]!r}")
    if raw.get("axis") is not None:
        check_axis(raw["axis"])
    values = raw.get("values")
    if values is not None and not isinstance(values, list):
        raise ConfigError(f"values must be a list of numbers, got {values!r}")
    cycle_time = raw.get("cycle_time")
    cfg = RunConfig(
        preset=raw.get("preset"),
        cycle_time=None if cycle_time is None
        else _convert(float, cycle_time, "cycle_time", "a number"),
        spec=spec,
        axis=raw.get("axis"),
        values=[_convert(float, v, "values", "a list of numbers")
                for v in values] if values else None,
        out=raw.get("out"),
        **{key: _convert(kind, raw[key], key, what) for key, kind, what in
           (("jobs", int, "an integer"), ("tol", float, "a number"))
           if key in raw},
    )
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {cfg.jobs}")
    if cfg.tol <= 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    return cfg


def _convert(kind, v, label, what):
    """``kind(v)``, refusing booleans, the fractions int() would drop and
    floats that are NaN or infinite."""
    bad = ConfigError(f"{label} must be {what}, got {v!r}")
    if isinstance(v, bool) or (kind is int and isinstance(v, float)
                               and not v.is_integer()):
        raise bad
    try:
        out = kind(v)
    except (TypeError, ValueError):
        raise bad from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{label} must be finite, got {v!r}")
    return out


def read_config(path: str) -> dict:
    """The raw mapping of a YAML (or JSON) configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"could not read config file {path}: {err}") from None
    if path.endswith(".json"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"could not parse {path}: {err}") from err
    else:
        import yaml  # only a YAML file needs it, so a run without one skips it

        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as err:
            raise ConfigError(f"could not parse {path}: {err}") from err
    if raw is None:  # an empty file
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    return raw


def load_config(path: str) -> RunConfig:
    """Load and validate a YAML (or JSON) configuration file."""
    return parse_config_dict(read_config(path))
