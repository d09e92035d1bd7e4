"""Property test over the CycleSpec domain: every valid spec ends either in a
typed CarnotLabError or in a ledger that keeps the cycle invariants."""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from carnotlab.cycle_engine import (carnot_corner_frequencies,
                                    endo_global_corner_frequencies,
                                    run_to_limit_cycle)
from carnotlab.errors import CarnotLabError
from carnotlab.presets import get_preset
from carnotlab.thermo import analyze_cycle

KINDS = ("carnot-shortcut", "endo-shortcut", "endo-global")


@st.composite
def cycle_draws(draw):
    kind = draw(st.sampled_from(KINDS))
    t_cold = 10.0 ** draw(st.floats(-2.5, 1.2))
    t_hot = t_cold * draw(st.floats(1.1, 3.0))
    dephasing = draw(st.one_of(
        st.just(0.0), st.floats(-5.0, -1.5).map(lambda e: 10.0 ** e)))
    return dict(
        kind=kind, t_cold_bath=t_cold, t_hot_bath=t_hot,
        t_cold_internal=t_cold * draw(st.floats(0.9, 1.1)),
        t_hot_internal=t_hot * draw(st.floats(0.9, 1.1)),
        ratio_excess=draw(st.floats(1.1, 1.5)),
        coupling=draw(st.floats(0.005, 0.2)),
        gamma_dephasing=dephasing,
        cycle_time=draw(st.floats(8.0 if kind == "endo-global" else 14.0,
                                  500.0)))


def build_spec(kind, t_cold_bath, t_hot_bath, t_cold_internal, t_hot_internal,
               ratio_excess, coupling, gamma_dephasing, cycle_time):
    """Population-matched corners (omega3 = 5) whose compression ratio
    exceeds the design temperature ratio by ``ratio_excess``; the endo kinds
    design their corners at the internal temperatures, as the presets do."""
    t_cold, t_hot = ((t_cold_internal, t_hot_internal)
                     if kind == "endo-shortcut" else (t_cold_bath, t_hot_bath))
    geom = carnot_corner_frequencies(5.0, ratio_excess * t_hot / t_cold,
                                     t_cold, t_hot)
    if kind == "endo-global":
        geom = endo_global_corner_frequencies(geom, t_cold_internal,
                                              t_hot_internal, t_cold_bath,
                                              t_hot_bath)
    internal = {}
    if kind == "endo-shortcut":
        internal = dict(t_cold_internal=t_cold_internal,
                        t_hot_internal=t_hot_internal)
    spec = replace(get_preset(kind), omega1=geom.omega1, omega2=geom.omega2,
                   omega3=geom.omega3, omega4=geom.omega4,
                   t_cold_bath=t_cold_bath, t_hot_bath=t_hot_bath,
                   coupling=coupling, gamma_dephasing=gamma_dephasing,
                   **internal)
    return spec.with_cycle_time(cycle_time)


# hbar w / k_B T_int reaches ~830: e^-beta in the static slope overflows
COLD_INTERNAL = dict(kind="endo-shortcut", t_cold_bath=0.007,
                     t_hot_bath=0.0125, t_cold_internal=0.0075,
                     t_hot_internal=0.012, ratio_excess=1.25, coupling=0.05,
                     gamma_dephasing=0.0, cycle_time=40.0)

# slow, non-normal contraction (rho(A) 0.94 and 0.97): a cycle that moves
# corner 1 by less than tol can be followed by one that moves it by more, so
# only stopping on both keeps the periodicity residual below 1e-9
SLOW_CONTRACTION = [
    dict(kind="endo-global", t_cold_bath=1.0, t_hot_bath=3.0,
         t_cold_internal=1.0, t_hot_internal=3.0, ratio_excess=1.25,
         coupling=0.0078125, gamma_dephasing=0.0, cycle_time=8.0),
    dict(kind="endo-global", t_cold_bath=1.0, t_hot_bath=1.4306,
         t_cold_internal=0.9, t_hot_internal=1.2876, ratio_excess=1.1,
         coupling=0.005, gamma_dephasing=0.0, cycle_time=8.0),
]


@given(cycle_draws())
@example(COLD_INTERNAL)
@example(SLOW_CONTRACTION[0])
@example(SLOW_CONTRACTION[1])
@settings(max_examples=40, derandomize=True, deadline=None)
def test_cycle_ends_typed_or_keeps_invariants(draw):
    try:
        spec = build_spec(**draw)
        result = run_to_limit_cycle(spec)
        led = analyze_cycle(result, spec)
    except CarnotLabError:
        return
    scale = max(abs(w) + abs(q) for w, q in
                zip(led.work_per_stroke, led.heat_per_stroke))
    assert led.energy_closure <= 1e-8 * scale
    assert led.bath_entropy_production >= -1e-10
    assert result.periodicity_residual() <= 1e-9
    assert result.contraction < 1.0
    if led.operational_mode == "Engine":
        assert led.efficiency <= led.eta_carnot
