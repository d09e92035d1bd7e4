"""Named engine presets.

``carnot-shortcut`` (alias ``eq6-consistent``) uses the population-matched
corner geometry; ``table1-literal`` keeps the alternative corner values whose
inner frequencies do not match populations across the adiabats and is shipped
for comparison runs.  ``endo-shortcut`` keeps the matched geometry but holds
the corners at internal temperatures against shifted baths; ``endo-global``
drives a rescaled geometry at constant adiabatic speed between the same
baths as the carnot-shortcut cycle.  Every preset has the default dipole
coupling of :class:`CycleSpec`.
"""

from __future__ import annotations

from dataclasses import replace

from .core import CycleKind, CycleSpec
from .errors import ConfigError

DEFAULT_CYCLE_TIME = 250.0  # 2*pi/omega_min units

#: The base of the other shortcut presets; its adiabat duration (atomic
#: units) is the one the shortcut kinds keep at every cycle time.
_CARNOT_SHORTCUT = CycleSpec(
    name="carnot-shortcut", kind=CycleKind.CARNOT_SHORTCUT,
    omega1=10.0, omega2=8.0, omega3=5.0, omega4=6.25,
    t_hot_bath=8.0, t_cold_bath=5.0,
    open_stroke_duration=1.0, adiabat_duration=5.0)

#: Every preset by name.  :func:`get_preset` replaces the open-stroke
#: duration or the |mu| of each.
PRESETS = {
    "carnot-shortcut": _CARNOT_SHORTCUT,
    "eq6-consistent": _CARNOT_SHORTCUT,
    "table1-literal": replace(_CARNOT_SHORTCUT, name="table1-literal",
                              omega2=6.25, omega4=7.5),
    "endo-shortcut": replace(
        _CARNOT_SHORTCUT, name="endo-shortcut", kind=CycleKind.ENDO_SHORTCUT,
        t_hot_bath=7.75, t_cold_bath=5.25,
        t_hot_internal=8.0, t_cold_internal=5.0),
    "endo-global": CycleSpec(
        name="endo-global", kind=CycleKind.ENDO_GLOBAL,
        omega1=9.6875, omega2=7.75, omega3=5.25, omega4=6.5625,
        t_hot_bath=8.0, t_cold_bath=5.0, mu_magnitude=1e-3),
}

PRESET_NAMES = tuple(PRESETS)


def get_preset(name: str, cycle_time: float = DEFAULT_CYCLE_TIME,
               **overrides) -> CycleSpec:
    """Build a preset, retimed to ``cycle_time`` (2*pi/omega_min units).

    Keyword overrides are applied to the spec fields after retiming.
    """
    try:
        spec = PRESETS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}") from None
    spec = spec.with_cycle_time(cycle_time)
    if overrides:
        spec = replace(spec, **overrides)
    return spec
