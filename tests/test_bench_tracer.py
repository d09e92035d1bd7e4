"""The benchmark tracer wraps module attributes by name; a rename in src/
must fail here, not only in bench/selftest.py."""

import importlib.util
import os

from carnotlab import cli, cycle_engine, dynamics, fock_oracle, thermo
from carnotlab.core import BathSpec
from carnotlab.presets import get_preset
from carnotlab.protocols import build_constant_mu_protocol

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    modules = (cli, cycle_engine, dynamics, fock_oracle, thermo)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cycle_engine.stroke_transfer_matrix is not \
            before[1]["stroke_transfer_matrix"]
    finally:
        tracer.uninstall()
    for module, attrs in zip(modules, before):
        assert all(getattr(module, k) is v for k, v in attrs.items())


def test_traced_sweep_reports_iterations_and_builds():
    # the tracer reads CycleResult.iterations and counts protocol builds
    spec = get_preset("endo-global", cycle_time=8.0)
    untraced = cycle_engine.run_to_limit_cycle(spec)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        table = thermo.sweep(spec, "cycle_time", [8.0])
    finally:
        tracer.uninstall()
    assert table.rows[0].ok
    layers = tracer.per_layer(1, 0.0)
    assert layers["cycle_engine.iterations"] == untraced.iterations == 28
    assert layers["protocols.calls"] == 4


def test_traced_oracle_counts_rhs_evals():
    # the tracer counts right-hand-side evaluations through the solve_ivp
    # binding of fock_oracle, which every solve of the oracle must look up
    rho0 = fock_oracle.thermal_fock_state(5.0, 1.0, 8)
    prot = build_constant_mu_protocol(5.0, 4.5, -0.3)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        for medium in ({"bath": BathSpec(5.0, 0.05)}, {"gamma_d": 0.01}):
            fock_oracle.integrate_lindblad(rho0, prot, n_samples=3, **medium)
    finally:
        tracer.uninstall()
    layers = tracer.per_layer(1, 0.0)
    assert layers["fock_oracle.rhs_evals"] > 0
    assert layers["fock_oracle.lindblad_s.driven_open"] > 0
    assert layers["fock_oracle.lindblad_s.driven_dephasing"] > 0


def test_traced_transfer_matrix_tags_each_stroke_kind():
    # the tracer files stroke_transfer_matrix under StrokeDescriptor.kind
    plain = cycle_engine.assemble_cycle(get_preset("endo-global", cycle_time=12.0))
    dephased = cycle_engine.assemble_cycle(
        get_preset("endo-global", cycle_time=12.0, gamma_dephasing=0.01))
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        for stroke in (plain[0], plain[1], dephased[1]):
            cycle_engine.stroke_transfer_matrix(stroke)
    finally:
        tracer.uninstall()
    layers = tracer.per_layer(1, 0.0)
    for kind in ("open", "unitary", "dephasing"):
        assert layers[f"cycle_engine.transfer_matrix_s.{kind}"] > 0
