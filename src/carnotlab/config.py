"""Run-configuration ingestion: YAML or JSON, strictly validated."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

import yaml

from .core import CycleKind, CycleSpec
from .errors import ConfigError
from .presets import get_preset

_SPEC_KEYS = {
    "kind", "omega1", "omega2", "omega3", "omega4", "t_hot_bath", "t_cold_bath",
    "coupling", "open_stroke_duration", "adiabat_duration", "mu_magnitude",
    "t_hot_internal", "t_cold_internal", "gamma_dephasing", "name",
}
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
            tau = self.cycle_time if self.cycle_time is not None else 250.0
            return get_preset(self.preset, cycle_time=tau, **self.spec_overrides)
        fields = dict(self.spec_overrides)
        if "kind" not in fields:
            raise ConfigError("config needs either a preset or a full spec with a kind")
        fields["kind"] = CycleKind(fields["kind"])
        spec = CycleSpec(**fields)
        if self.cycle_time is not None:
            spec = spec.with_cycle_time(self.cycle_time)
        return spec

    def to_dict(self) -> dict:
        return {"preset": self.preset, "cycle_time": self.cycle_time,
                "spec": dict(self.spec_overrides), "axis": self.axis,
                "values": self.values, "jobs": self.jobs, "tol": self.tol}


def parse_config_dict(raw: dict) -> RunConfig:
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
    cfg = RunConfig(
        preset=raw.get("preset"),
        cycle_time=_opt_float(raw.get("cycle_time"), "cycle_time"),
        spec_overrides=dict(spec_part),
        axis=raw.get("axis"),
        values=[float(v) for v in raw["values"]] if raw.get("values") else None,
        out=raw.get("out"),
        jobs=int(raw.get("jobs", 1)),
        tol=float(raw.get("tol", 1e-9)),
    )
    if cfg.jobs < 1:
        raise ConfigError("jobs must be at least 1")
    if cfg.tol <= 0:
        raise ConfigError("tol must be positive")
    return cfg


def _opt_float(v, label):
    if v is None:
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{label} must be a number, got {v!r}") from None


def load_config(path: str) -> RunConfig:
    """Load a YAML (or JSON) configuration file."""
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
    return parse_config_dict(raw or {})
