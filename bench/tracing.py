"""In-memory span tracer that instruments carnotlab from the outside.

The tracer replaces module attributes with timing wrappers: each wrapper sits
at the name the caller looks up (``cycle_engine.stroke_transfer_matrix`` is
looked up by ``run_to_limit_cycle``; ``thermo.run_to_limit_cycle`` by the
sweep workers; ``cli.run_to_limit_cycle`` by the ``cycle`` command), so no
file under ``src/`` changes.  The ``solve_ivp`` binding of each integrating
module is wrapped to count right-hand-side evaluations.

Spans live in memory as flat records with a parent id; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from carnotlab import cli, cycle_engine, dynamics, fock_oracle, thermo

#: Per-layer metrics of the traced run, with their units.
PER_LAYER_UNITS = {
    "cycle_engine.transfer_matrix_s.open": "s",
    "cycle_engine.transfer_matrix_s.unitary": "s",
    "cycle_engine.transfer_matrix_s.dephasing": "s",
    "cycle_engine.rhs_evals": "count",
    "dynamics.trajectory_s.open": "s",
    "dynamics.trajectory_s.unitary": "s",
    "dynamics.trajectory_s.dephasing": "s",
    "dynamics.rhs_evals": "count",
    "cycle_engine.limit_cycle_self_s": "s",
    "cycle_engine.iterations": "count",
    "protocols.build_s": "s",
    "protocols.calls": "count",
    "thermo.analyze_s": "s",
    "thermo.sweep_overhead_s": "s",
    "cycle_engine.export_s": "s",
    "cycle_engine.export_bytes": "bytes",
    "cli.self_s": "s",
    "fock_oracle.lindblad_s.static_open": "s",
    "fock_oracle.lindblad_s.driven_open": "s",
    "fock_oracle.lindblad_s.static_dephasing": "s",
    "fock_oracle.lindblad_s.driven_dephasing": "s",
    "fock_oracle.rhs_evals": "count",
    "fock_oracle.state_prep_s": "s",
    "trace.overhead_s": "s",
}

_PROTOCOL_BUILDERS = ("build_sta_protocol", "build_ste_protocol",
                      "build_ste_nonthermal_protocol",
                      "build_constant_mu_protocol")


def _oracle_category(protocol, bath) -> str:
    """static/driven x open/dephasing label of one oracle stroke."""
    driven = protocol.meta.get("family") == "constant_mu"
    medium = "open" if bath is not None else "dephasing"
    return f"{'driven' if driven else 'static'}_{medium}"


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []      # dicts: id, parent, name, start, end, tags
        self.counts = Counter()
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name, **tags):
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": time.perf_counter(), "end": None,
                  "tags": tags}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["tags"]
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    # -- instrumentation ---------------------------------------------------

    def _patch(self, module, attr, wrapper):
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def _timed(self, name, tag_fn=None, result_fn=None):
        def wrapper(original):
            def timed(*args, **kwargs):
                tags = tag_fn(*args, **kwargs) if tag_fn else {}
                with self.span(name, **tags) as live:
                    out = original(*args, **kwargs)
                if result_fn:
                    live.update(result_fn(out, *args, **kwargs))
                return out
            return timed
        return wrapper

    def _rhs_counter(self, key):
        def wrapper(original):
            def counted_solve_ivp(fun, *args, **kwargs):
                def rhs(t, y, *extra):
                    if self._stack:
                        self.counts[key] += 1
                    return fun(t, y, *extra)
                return original(rhs, *args, **kwargs)
            return counted_solve_ivp
        return wrapper

    def install(self):
        limit_cycle = self._timed(
            "cycle_engine.run_to_limit_cycle",
            result_fn=lambda res, *a, **k: {"iterations": res.iterations})
        self._patch(thermo, "run_to_limit_cycle", limit_cycle)
        self._patch(cli, "run_to_limit_cycle", limit_cycle)
        self._patch(cycle_engine, "stroke_transfer_matrix", self._timed(
            "cycle_engine.stroke_transfer_matrix",
            tag_fn=lambda stroke, *a, **k: {"kind": stroke.kind}))
        for kind in ("open", "unitary", "dephasing"):
            self._patch(cycle_engine, f"propagate_{kind}", self._timed(
                "dynamics.propagate",
                tag_fn=lambda *a, _kind=kind, **k: {"kind": _kind}))
        for name in _PROTOCOL_BUILDERS:
            self._patch(cycle_engine, name, self._timed("protocols.build"))
        self._patch(thermo, "analyze_cycle", self._timed("thermo.analyze_cycle"))
        self._patch(cli, "analyze_cycle", self._timed("thermo.analyze_cycle"))
        self._patch(thermo, "sweep", self._timed("thermo.sweep"))
        self._patch(cli, "export_cycle_result", self._timed(
            "cycle_engine.export_cycle_result",
            result_fn=lambda _, result, outdir, *a, **k:
                {"bytes": _dir_bytes(outdir)}))
        self._patch(cli, "main", self._timed("cli.main"))
        self._patch(fock_oracle, "gaussian_fock_state",
                    self._timed("fock_oracle.gaussian_fock_state"))
        self._patch(fock_oracle, "integrate_lindblad", self._timed(
            "fock_oracle.integrate_lindblad",
            tag_fn=lambda rho0, protocol, bath=None, gamma_d=None, **k:
                {"kind": _oracle_category(protocol, bath)}))
        for module, key in ((cycle_engine, "cycle_engine.rhs_evals"),
                            (dynamics, "dynamics.rhs_evals"),
                            (fock_oracle, "fock_oracle.rhs_evals")):
            self._patch(module, "solve_ivp", self._rhs_counter(key))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the durations of its direct children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def per_layer(self, passes: int, overhead_s: float) -> dict:
        """Per-layer totals divided by the number of traced passes."""
        own = self.self_times()
        total = defaultdict(float)
        for s in self.spans:
            dur = s["end"] - s["start"]
            name, tags = s["name"], s["tags"]
            if name == "cycle_engine.stroke_transfer_matrix":
                total[f"cycle_engine.transfer_matrix_s.{tags['kind']}"] += dur
            elif name == "dynamics.propagate":
                total[f"dynamics.trajectory_s.{tags['kind']}"] += dur
            elif name == "cycle_engine.run_to_limit_cycle":
                total["cycle_engine.limit_cycle_self_s"] += own[s["id"]]
                total["cycle_engine.iterations"] += tags.get("iterations", 0)
            elif name == "protocols.build":
                total["protocols.build_s"] += dur
                total["protocols.calls"] += 1
            elif name == "thermo.analyze_cycle":
                total["thermo.analyze_s"] += dur
            elif name == "thermo.sweep":
                total["thermo.sweep_overhead_s"] += own[s["id"]]
            elif name == "cycle_engine.export_cycle_result":
                total["cycle_engine.export_s"] += dur
                total["cycle_engine.export_bytes"] += tags.get("bytes", 0)
            elif name == "cli.main":
                total["cli.self_s"] += own[s["id"]]
            elif name == "fock_oracle.integrate_lindblad":
                total[f"fock_oracle.lindblad_s.{tags['kind']}"] += dur
            elif name == "fock_oracle.gaussian_fock_state":
                total["fock_oracle.state_prep_s"] += dur
        for key, n in self.counts.items():
            total[key] += n
        out = {k: total[k] / passes for k in PER_LAYER_UNITS}
        out["trace.overhead_s"] = overhead_s
        return out

    def dump(self) -> list:
        """Spans with times relative to the first span, for the run record."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                for s in self.spans]
