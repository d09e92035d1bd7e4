"""The benchmark's workloads: their inputs, their operations and their checks.

Each workload is a list of operations.  An operation calls one public entry
point of carnotlab through its module attribute (so the tracer can wrap it)
and is checked afterwards, outside the timed region.  Every random input is
drawn from the seed; the other inputs are fixed grids whose results are
stored in ``reference.json``.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from carnotlab import cli, cycle_engine, fock_oracle, thermo
from carnotlab.core import BathSpec, FrequencyProtocol, ObservableVector, \
    thermal_observable_vector
from carnotlab.dynamics import propagate_dephasing, propagate_open
from carnotlab.presets import get_preset
from carnotlab.protocols import build_constant_mu_protocol

WORKLOADS = ("long-cycle", "fast-sweep", "oracle")
#: Known-defect probes: run on request, not part of the timed benchmark.
PROBES = ("cold-bath",)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: Single-cycle user path: (preset, cycle time) per ``carnotlab cycle`` call.
LONG_CYCLES = (("carnot-shortcut", 250.0), ("endo-global", 250.0))
#: Short-tau part of the criterion 2-4 cycle-time grid; tau=14 is infeasible.
SWEEP_TAUS = (14.0, 16.0, 18.0, 20.0, 23.0, 26.0, 30.0, 33.0, 36.0, 40.0, 44.0)
INFEASIBLE_TAU = 14.0
#: No dephasing plus criterion 6's seven dephasing strengths, at tau=8.
KILL_SWITCH_TAU = 8.0
KILL_SWITCH_GAMMAS = (0.0,) + tuple(
    float(g) for g in np.logspace(math.log10(3e-5), math.log10(3e-2), 7))

ORACLE_DIMENSION = 60
#: Every pass draws four fresh strokes, so a run averages over several draws.
#: Static strokes run at a fixed frequency for a fixed duration.  Their cost
#: is proportional to omega * duration, and rounding in the truncated-basis
#: Hamiltonian leaves far off-diagonal propagator entries that, for some
#: frequencies, reach subnormal numbers and slow the oracle down by up to 2x.
#: Both effects depend on omega, so omega is the middle of criterion 7's range
#: instead of a draw; there the propagator stays normal (thermal initial
#: states still cost about 10% more than squeezed ones).  A quarter of the
#: unit duration keeps a pass short enough for several passes per run.
STATIC_OMEGA = 7.75
STATIC_DURATION = 0.25
#: Free phase (integral of omega dt) of each driven stroke, which sets its
#: cost the same way: |mu| = |ln ratio| / DRIVEN_PHASE.
DRIVEN_PHASE = 1.0
#: gamma_d * omega0 of the dephasing strokes.  Coherence between levels n and
#: m decays as exp(-gamma_d (n - m)^2 omega^2 t), and past about e^-700 into
#: subnormal numbers.  0.01 keeps every exponent below 100; gamma_d then lies
#: in 9e-4 to 2.2e-3, the low end of criterion 7's range.
DEPHASING_SCALE = 0.01

CLOSURE_BOUND = 1e-8
PERIODICITY_BOUND = 1e-9
REFERENCE_RTOL = 1e-8
ORACLE_BOUND = 1e-4


@dataclass
class Op:
    """One timed call; ``check(output)`` returns (failure messages, accuracy)."""

    label: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], tuple]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(value, ref, scale=None) -> bool:
    return abs(value - ref) <= REFERENCE_RTOL * abs(scale if scale else ref)


def _ledger_failures(tag, ledger, ref=None, corner1=None,
                     periodicity=None) -> list:
    """Invariant checks of one converged cycle, and reference checks if
    ``ref`` is given."""
    bad = []
    scale = max(abs(w) for w in ledger["work_per_stroke"]) + abs(ledger["q_hot"])
    if ledger["energy_closure"] / scale > CLOSURE_BOUND:
        bad.append(f"{tag}: closure {ledger['energy_closure']:.3e}")
    if periodicity is not None and periodicity > PERIODICITY_BOUND:
        bad.append(f"{tag}: periodicity {periodicity:.3e}")
    for key in ("total_work", "q_hot") if ref else ():
        if not _close(ledger[key], ref[key]):
            bad.append(f"{tag}: {key} {ledger[key]!r} != reference {ref[key]!r}")
    if corner1 is not None:
        h = abs(ref["corner1"][0])
        if not all(_close(a, b, h) for a, b in zip(corner1, ref["corner1"])):
            bad.append(f"{tag}: corner-1 {corner1} != reference {ref['corner1']}")
    return bad


def _accuracy(tag, ledger, corner1=None) -> dict:
    out = {f"{tag}.total_work": ledger["total_work"],
           f"{tag}.q_hot": ledger["q_hot"]}
    if corner1 is not None:
        out[f"{tag}.corner1"] = list(corner1)
    return out


# ---------------------------------------------------------------------------
# long-cycle: `carnotlab cycle` in-process
# ---------------------------------------------------------------------------

def _cycle_op(preset, tau, out_root, reference) -> Op:
    tag = f"{preset}@{tau:g}"
    outdir = os.path.join(out_root, tag)
    argv = ["cycle", "--preset", preset, "--cycle-time", repr(tau),
            "--out", outdir]

    def run():
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        try:
            if code != 0:
                return [f"{tag}: exit code {code}"], {}
            with open(os.path.join(outdir, "summary.json")) as fh:
                summary = json.load(fh)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        ledger, corner1 = summary["ledger"], summary["corners"][0][:3]
        return (_ledger_failures(tag, ledger, reference["cycles"][tag], corner1,
                                 summary["periodicity_residual"]),
                _accuracy(tag, ledger, corner1))

    return Op(tag, 1, run, check)


# ---------------------------------------------------------------------------
# fast-sweep: thermo.sweep at jobs=1
# ---------------------------------------------------------------------------

def _sweep_op(tag, template, axis, values, reference, expect_error) -> Op:
    def run():
        return thermo.sweep(template, axis, values, jobs=1)

    def check(table):
        bad = []
        refs = reference["sweeps"][tag]
        for row in table.rows:
            where = f"{tag}={row.value:g}"
            if row.value in expect_error:
                if row.ok or not row.error.startswith(expect_error[row.value]):
                    bad.append(f"{where}: expected {expect_error[row.value]}, "
                               f"got {row.error or 'a ledger'}")
            elif not row.ok:
                bad.append(f"{where}: {row.error}")
            else:
                bad.extend(_ledger_failures(where, row.ledger.as_dict(),
                                            refs[repr(row.value)]))
        return bad, {}

    return Op(tag, len(values), run, check)


def _kill_switch_probe(reference) -> Op:
    """Untimed full check of endo-global@8, whose corner-1 a sweep row lacks."""
    tag = f"endo-global@{KILL_SWITCH_TAU:g}"

    def run():
        spec = get_preset("endo-global", cycle_time=KILL_SWITCH_TAU)
        result = cycle_engine.run_to_limit_cycle(spec)
        return result, thermo.analyze_cycle(result, spec)

    def check(out):
        result, ledger = out
        ledger = ledger.as_dict()
        corner1 = result.corner_vectors[0].as_array()[:3].tolist()
        return (_ledger_failures(tag, ledger, reference["cycles"][tag], corner1,
                                 result.periodicity_residual()),
                _accuracy(tag, ledger, corner1))

    return Op(tag, 1, run, check)


def _cold_bath_op() -> Op:
    """endo-global@40 with baths (0.008, 0.005): must end in a valid ledger or
    a typed error row, never abort the sweep."""
    tag = "endo-global@40/cold-bath"
    template = get_preset("endo-global", cycle_time=40.0, t_hot_bath=0.008,
                          t_cold_bath=0.005)

    def run():
        return thermo.sweep(template, "cycle_time", [40.0], jobs=1)

    def check(table):
        row = table.rows[0]
        if not row.ok:
            return [], {}
        ledger = row.ledger.as_dict()
        return _ledger_failures(tag, ledger), _accuracy(tag, ledger)

    return Op(tag, 1, run, check)


# ---------------------------------------------------------------------------
# oracle: fock_oracle.integrate_lindblad against the moment propagators
# ---------------------------------------------------------------------------

def _gaussian_vector(rng, omega, temp) -> ObservableVector:
    """Criterion 7's initial states: thermal, or squeezed with probability 0.6."""
    v = thermal_observable_vector(omega, temp)
    if rng.random() < 0.6:
        frac = rng.uniform(0.05, 0.35)
        phase = rng.uniform(0, 2 * math.pi)
        size = frac * v.h
        v = ObservableVector(h=v.h * math.sqrt(1 + frac**2),
                             l=size * math.cos(phase), c=size * math.sin(phase))
    return v


def oracle_cases(rng, static_duration=STATIC_DURATION):
    """One static-open, driven-open, static-dephasing and driven-dephasing case.

    Ratios, baths, initial states and the driven strokes' frequencies follow
    criterion 7's distributions.  Static frequencies, durations, |mu| and
    dephasing strengths are fixed as above instead of drawn, so that every
    seed costs the same.
    """
    def bath():
        return BathSpec(rng.uniform(3.5, 10.0), rng.uniform(0.02, 0.08))

    def driven(w0, ratio):
        # constant mu: the free phase is ln(ratio) / mu
        return build_constant_mu_protocol(w0, w0 * ratio,
                                          math.log(ratio) / DRIVEN_PHASE)

    static = FrequencyProtocol.constant(STATIC_OMEGA, static_duration)
    cases = [("static_open", static, bath(), None, STATIC_OMEGA)]
    w0 = rng.uniform(4.5, 11.0)
    ratio = rng.choice([rng.uniform(0.65, 0.95), rng.uniform(1.05, 1.45)])
    cases.append(("driven_open", driven(w0, ratio), bath(), None, w0))
    cases.append(("static_dephasing", static, None,
                  DEPHASING_SCALE / STATIC_OMEGA, STATIC_OMEGA))
    w0 = rng.uniform(4.5, 11.0)
    cases.append(("driven_dephasing", driven(w0, rng.uniform(0.7, 0.95)), None,
                  DEPHASING_SCALE / w0, w0))
    return [(kind, prot, bath, gamma, w0,
             _gaussian_vector(rng, w0, bath.temperature if bath
                              else rng.uniform(4.0, 9.0)))
            for kind, prot, bath, gamma, w0 in cases]


def _oracle_op(kind, prot, bath, gamma, w0, v0) -> Op:
    def run():
        rho0 = fock_oracle.gaussian_fock_state(v0, w0, ORACLE_DIMENSION)
        return fock_oracle.integrate_lindblad(rho0, prot, bath=bath,
                                              gamma_d=gamma, n_samples=41)

    def check(out):
        _, h, l, c = out
        if bath is not None:
            traj = propagate_open(v0, prot, bath, n_samples=41)
        else:
            traj = propagate_dephasing(v0, prot, gamma, n_samples=41)
        scale = np.max(np.abs(h))
        dev = max(float(np.max(np.abs(traj.vectors[:, i] - x))) / scale
                  for i, x in enumerate((h, l, c)))
        bad = [] if dev < ORACLE_BOUND else [f"{kind}: deviation {dev:.3e}"]
        return bad, {"oracle.worst_deviation": dev}

    return Op(kind, 1, run, check)


# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """A workload's inputs.

    ``next_pass()`` returns the operations of one pass; ``final`` holds the
    untimed checks made once per run.
    """

    next_pass: Callable[[], list]
    points_per_pass: int
    final: list


def _fixed(ops, final=()) -> Plan:
    return Plan(lambda: ops, sum(op.points for op in ops), list(final))


def plan(name: str, seed: int, out_root: str, smoke: bool = False) -> Plan:
    """Build a workload's inputs from its seed.

    ``smoke`` keeps one or two inputs per operation, for the self-test.
    """
    rng = np.random.default_rng(seed)
    if name == "long-cycle":
        ref = load_reference()
        cycles = LONG_CYCLES[:1] if smoke else LONG_CYCLES
        return _fixed([_cycle_op(p, t, out_root, ref) for p, t in cycles])
    if name == "fast-sweep":
        ref = load_reference()
        taus = SWEEP_TAUS[::len(SWEEP_TAUS) - 1] if smoke else SWEEP_TAUS
        gammas = KILL_SWITCH_GAMMAS[::len(KILL_SWITCH_GAMMAS) - 1] if smoke \
            else KILL_SWITCH_GAMMAS
        error = {INFEASIBLE_TAU: "InfeasibleStroke"}
        return _fixed([
            _sweep_op("carnot-shortcut/cycle_time", get_preset("carnot-shortcut"),
                      "cycle_time", list(rng.permutation(taus)), ref, error),
            _sweep_op(f"endo-global@{KILL_SWITCH_TAU:g}/dephasing",
                      get_preset("endo-global", cycle_time=KILL_SWITCH_TAU),
                      "dephasing", list(rng.permutation(gammas)), ref, {}),
        ], [_kill_switch_probe(ref)])
    if name == "oracle":
        duration = 0.05 if smoke else STATIC_DURATION
        return Plan(lambda: [_oracle_op(*case)
                             for case in oracle_cases(rng, duration)], 4, [])
    if name == "cold-bath":
        return _fixed([_cold_bath_op()])
    raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")
