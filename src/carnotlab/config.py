"""Run-configuration ingestion: YAML or JSON, strictly validated."""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import List, Optional

import yaml

from .core import CycleKind, CycleSpec
from .errors import ConfigError
from .presets import DEFAULT_CYCLE_TIME, get_preset

_SPEC_KEYS = {f.name for f in fields(CycleSpec)}
_REQUIRED_SPEC_KEYS = [f.name for f in fields(CycleSpec) if f.default is MISSING]
_TOP_KEYS = {
    "preset", "cycle_time", "spec", "axis", "values", "out", "jobs", "tol",
}


@dataclass
class RunConfig:
    """Validated batch-run configuration."""

    preset: Optional[str] = None
    cycle_time: Optional[float] = None
    spec_overrides: dict = field(default_factory=dict)
    axis: Optional[str] = None
    values: Optional[List[float]] = None
    out: Optional[str] = None
    jobs: int = 1
    tol: float = 1e-9

    def build_spec(self) -> CycleSpec:
        if self.preset is not None:
            tau = DEFAULT_CYCLE_TIME if self.cycle_time is None \
                else self.cycle_time
            return get_preset(self.preset, cycle_time=tau, **self.spec_overrides)
        missing = [k for k in _REQUIRED_SPEC_KEYS if k not in self.spec_overrides]
        if missing:
            raise ConfigError("config needs either a preset or a full spec; "
                              f"spec is missing {missing}")
        spec = CycleSpec(**self.spec_overrides)
        if self.cycle_time is not None:
            spec = spec.with_cycle_time(self.cycle_time)
        return spec

    def to_dict(self) -> dict:
        """Every field but ``out``, with ``spec_overrides`` as ``spec``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "out"}
        out["spec"] = dict(out.pop("spec_overrides"))
        return out


def parse_config_dict(raw: dict) -> RunConfig:
    """Validate a configuration mapping; every bad value raises a
    ConfigError that names its key."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    spec_part = raw.get("spec", {}) or {}
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
    values = raw.get("values")
    if values is not None and not isinstance(values, list):
        raise ConfigError(f"values must be a list of numbers, got {values!r}")
    cycle_time = raw.get("cycle_time")
    cfg = RunConfig(
        preset=raw.get("preset"),
        cycle_time=None if cycle_time is None
        else _convert(float, cycle_time, "cycle_time", "a number"),
        spec_overrides=spec,
        axis=raw.get("axis"),
        values=[_convert(float, v, "values", "a list of numbers")
                for v in values] if values else None,
        out=raw.get("out"),
        jobs=_convert(int, raw.get("jobs", 1), "jobs", "an integer"),
        tol=_convert(float, raw.get("tol", 1e-9), "tol", "a number"),
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
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        text = fh.read()
    try:
        if path.endswith(".json"):
            raw = json.loads(text)
        else:
            raw = yaml.safe_load(text)
    except (yaml.YAMLError, json.JSONDecodeError) as err:
        raise ConfigError(f"could not parse {path}: {err}") from err
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    return raw


def load_config(path: str) -> RunConfig:
    """Load and validate a YAML (or JSON) configuration file."""
    return parse_config_dict(read_config(path))
