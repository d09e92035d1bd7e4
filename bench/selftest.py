"""Smoke test of the benchmark: every workload at minimal size, traced and not.

Checks that each run exits 0, passes all its checks and reports every
metric named in BENCHMARK.json with its unit.  Run from the repository root:

    python3 bench/selftest.py
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
from run import END_TO_END_UNITS  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if declared[0] != END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if declared[1] != PER_LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from tracing.py")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: checks failed\n{proc.stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{where}: metrics {sorted(got)} do not match "
                                f"BENCHMARK.json")
            print(f"ok  {where}: {result['attempted']} attempted")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
