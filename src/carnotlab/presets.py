"""Named engine presets.

``carnot-shortcut`` (alias ``eq6-consistent``) uses the population-matched
corner geometry; ``table1-literal`` keeps the alternative corner values whose
inner frequencies do not match populations across the adiabats and is shipped
for comparison runs.  ``endo-shortcut`` keeps the matched geometry but holds
the corners at internal temperatures against shifted baths; ``endo-global``
drives a rescaled geometry at constant adiabatic speed between the same
baths as the carnot-shortcut cycle.
"""

from __future__ import annotations

from dataclasses import replace

from .core import CycleKind, CycleSpec
from .errors import ConfigError

#: Fixed adiabat duration (atomic units) for the shortcut kinds.
ADIABAT_DURATION = 5.0
#: Dipole coupling constant shared by every preset.
COUPLING = 0.05

DEFAULT_CYCLE_TIME = 250.0  # 2*pi/omega_min units


def _spec(name, **kw):
    return CycleSpec(coupling=COUPLING, name=name, **kw)


def _carnot_shortcut():
    return _spec("carnot-shortcut", kind=CycleKind.CARNOT_SHORTCUT,
                 omega1=10.0, omega2=8.0, omega3=5.0, omega4=6.25,
                 t_hot_bath=8.0, t_cold_bath=5.0,
                 open_stroke_duration=1.0, adiabat_duration=ADIABAT_DURATION)


def _table1_literal():
    return _spec("table1-literal", kind=CycleKind.CARNOT_SHORTCUT,
                 omega1=10.0, omega2=6.25, omega3=5.0, omega4=7.5,
                 t_hot_bath=8.0, t_cold_bath=5.0,
                 open_stroke_duration=1.0, adiabat_duration=ADIABAT_DURATION)


def _endo_shortcut():
    return _spec("endo-shortcut", kind=CycleKind.ENDO_SHORTCUT,
                 omega1=10.0, omega2=8.0, omega3=5.0, omega4=6.25,
                 t_hot_bath=7.75, t_cold_bath=5.25,
                 t_hot_internal=8.0, t_cold_internal=5.0,
                 open_stroke_duration=1.0, adiabat_duration=ADIABAT_DURATION)


def _endo_global():
    return _spec("endo-global", kind=CycleKind.ENDO_GLOBAL,
                 omega1=9.6875, omega2=7.75, omega3=5.25, omega4=6.5625,
                 t_hot_bath=8.0, t_cold_bath=5.0, mu_magnitude=1e-3)


_FACTORIES = {
    "carnot-shortcut": _carnot_shortcut,
    "eq6-consistent": _carnot_shortcut,
    "table1-literal": _table1_literal,
    "endo-shortcut": _endo_shortcut,
    "endo-global": _endo_global,
}

PRESET_NAMES = tuple(_FACTORIES)

PRESET_DESCRIPTIONS = {
    "carnot-shortcut": "population-matched corners (10, 8, 5, 6.25), baths (5, 8)",
    "eq6-consistent": "alias of carnot-shortcut",
    "table1-literal": "alternative corners (10, 6.25, 5, 7.5); adiabats do not "
                      "match populations (kept for comparison)",
    "endo-shortcut": "matched corners at internal (5, 8) against baths (5.25, 7.75)",
    "endo-global": "constant-|mu| cycle on corners (9.6875, 7.75, 5.25, 6.5625), "
                   "baths (5, 8)",
}


def get_preset(name: str, cycle_time: float = DEFAULT_CYCLE_TIME,
               **overrides) -> CycleSpec:
    """Build a preset, retimed to ``cycle_time`` (2*pi/omega_min units).

    Keyword overrides are applied to the spec fields after retiming.
    """
    try:
        factory = _FACTORIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}") from None
    spec = factory().with_cycle_time(cycle_time)
    if overrides:
        spec = replace(spec, **overrides)
    return spec
