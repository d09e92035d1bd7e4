"""The benchmark tracer wraps module attributes by name; a rename in src/
must fail here, not only in bench/selftest.py."""

import importlib.util
import os

from carnotlab import cli, cycle_engine, dynamics, fock_oracle, thermo

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
