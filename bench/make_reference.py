"""Regenerate ``reference.json``, the stored results the benchmark checks.

Run from the repository root only when a change is meant to move the
numbers:  python3 bench/make_reference.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from carnotlab.cycle_engine import run_to_limit_cycle  # noqa: E402
from carnotlab.presets import get_preset  # noqa: E402
from carnotlab.thermo import analyze_cycle, sweep  # noqa: E402

from workloads import (INFEASIBLE_TAU, KILL_SWITCH_GAMMAS,  # noqa: E402
                       KILL_SWITCH_TAU, LONG_CYCLES, REFERENCE_PATH,
                       SWEEP_TAUS)


def main():
    cycles = {}
    for preset, tau in LONG_CYCLES + (("endo-global", KILL_SWITCH_TAU),):
        spec = get_preset(preset, cycle_time=tau)
        result = run_to_limit_cycle(spec)
        ledger = analyze_cycle(result, spec)
        cycles[f"{preset}@{tau:g}"] = {
            "total_work": ledger.total_work, "q_hot": ledger.q_hot,
            "corner1": result.corner_vectors[0].as_array()[:3].tolist()}
    sweeps = {}
    for tag, template, axis, values in (
            ("carnot-shortcut/cycle_time", get_preset("carnot-shortcut"),
             "cycle_time", [t for t in SWEEP_TAUS if t != INFEASIBLE_TAU]),
            (f"endo-global@{KILL_SWITCH_TAU:g}/dephasing",
             get_preset("endo-global", cycle_time=KILL_SWITCH_TAU), "dephasing",
             KILL_SWITCH_GAMMAS)):
        table = sweep(template, axis, values)
        sweeps[tag] = {repr(r.value): {"total_work": r.ledger.total_work,
                                       "q_hot": r.ledger.q_hot}
                       for r in table.rows}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"cycles": cycles, "sweeps": sweeps}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
