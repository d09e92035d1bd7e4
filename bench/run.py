"""carnotlab benchmark: one command, three workloads, one JSON line.

Usage, from the repository root:

    python3 bench/run.py --workload long-cycle --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of the same checkout.  A run
measures ``setup_s`` in fresh interpreters, then repeats passes over the
workload's operations until ``--seconds`` is spent, checks every output, and
prints a summary followed by one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` one untraced pass is followed by traced passes and the
metrics are the per-layer ones.  The full run record (machine, versions,
accuracy fields, every sample and, when traced, every span) goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

#: One BLAS thread: sweeps run at jobs=1, and on 2 shared cores a second BLAS
#: thread doubles the oracle's CPU time without shortening its wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
#: What ``op_s`` is on each workload, under the name the notes use for it.
OP_NAMES = {"long-cycle": "cycle_s", "fast-sweep": "1/sweep_points_per_s",
            "oracle": "oracle_stroke_s", "cold-bath": "s per sweep point"}
SETUP_REPEATS = 3
#: A fresh interpreter imports the CLI and builds one workload's inputs.
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import carnotlab.cli, "
              "workloads; workloads.plan(sys.argv[3], int(sys.argv[4]), "
              "sys.argv[5], sys.argv[6] == '1').next_pass()")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one or two inputs per operation (self-test only)")
    return p.parse_args(argv)


def measure_setup(args, out_root) -> list:
    cmd = [sys.executable, "-c", SETUP_CODE, SRC, BENCH, args.workload,
           str(args.seed), out_root, "1" if args.smoke else "0"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


class Runner:
    """Runs passes over a plan and keeps every sample and failure."""

    def __init__(self, plan, rng):
        self.plan = plan
        self.rng = rng
        self.attempted = 0
        self.failures = []
        self.accuracy = {}

    def _settle(self, op, out):
        self.attempted += op.points
        if not isinstance(out, BaseException):
            try:
                bad, acc = op.check(out)
            except Exception as err:  # a malformed output fails the op
                out = err
        if isinstance(out, BaseException):
            self.failures.append(f"{op.label}: {type(out).__name__}: {out}")
            self.failures.extend([f"{op.label}: not checked"] * (op.points - 1))
            return
        self.failures.extend(bad)
        for key, value in acc.items():
            if key == "oracle.worst_deviation":
                value = max(value, self.accuracy.get(key, 0.0))
            self.accuracy[key] = value

    def one_pass(self, tracer=None) -> float:
        """Run every operation once in seeded order; returns the pass wall time."""
        outputs = []
        ops = self.plan.next_pass()
        t_pass = time.perf_counter()
        for i in self.rng.permutation(len(ops)):
            op = ops[i]
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("bench.op", label=op.label):
                        out = op.run()
            except Exception as err:  # an untyped error fails the op, not the run
                out = err
            outputs.append((op, out))
        wall = time.perf_counter() - t_pass
        for op, out in outputs:
            self._settle(op, out)
        return wall

    def passes(self, seconds, tracer=None) -> list:
        """At least one pass; another only if, as long as the last, it would
        end within ``seconds``."""
        walls = []
        t0 = time.perf_counter()
        while True:
            walls.append(self.one_pass(tracer))
            if time.perf_counter() - t0 + walls[-1] > seconds:
                return walls

    def final_checks(self):
        for op in self.plan.final:
            try:
                out = op.run()
            except Exception as err:  # as in one_pass
                out = err
            self._settle(op, out)


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args) -> dict:
    import numpy
    import scipy

    src_lines = 0
    pkg = os.path.join(SRC, "carnotlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    blas_env = {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                           "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS") if k in os.environ}
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_env or "library default (unset)",
            "git_commit": _git_commit(), "src_carnotlab_lines": src_lines}


def _sig12(value):
    if isinstance(value, list):
        return [_sig12(v) for v in value]
    return float(f"{value:.12g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "carnotlab", "__init__.py")):
        print(f"error: no carnotlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import carnotlab
    import workloads
    if os.path.dirname(os.path.abspath(carnotlab.__file__)) != \
            os.path.join(SRC, "carnotlab"):
        print(f"error: carnotlab imported from {carnotlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS + workloads.PROBES:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(workloads.WORKLOADS + workloads.PROBES)}",
              file=sys.stderr)
        return 2

    out_root = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(out_root, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(args, out_root)
        runner = Runner(workloads.plan(args.workload, args.seed, out_root,
                                       args.smoke),
                        np.random.default_rng(args.seed))
        tracer = untraced = None
        if args.trace:
            from tracing import PER_LAYER_UNITS, Tracer
            untraced = runner.one_pass()
            tracer = Tracer()
            tracer.install()
            try:
                walls = runner.passes(args.seconds - untraced, tracer)
            finally:
                tracer.uninstall()
            overhead = statistics.median(walls) - untraced
            metrics = tracer.per_layer(len(walls), overhead)
            units = PER_LAYER_UNITS
        else:
            walls = runner.passes(args.seconds)
            metrics = {
                "setup_s": statistics.median(setup),
                "op_s": statistics.median(walls) / runner.plan.points_per_pass,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        runner.final_checks()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record = {"record": run_record(args), "setup_samples_s": setup,
              "pass_walls_s": walls, "untraced_pass_s": untraced,
              "points_per_pass": runner.plan.points_per_pass,
              "failures": runner.failures,
              "accuracy": {k: _sig12(v) for k, v in
                           sorted(runner.accuracy.items())},
              **result}
    if tracer is not None:
        record["spans"] = tracer.dump()
    tag = "_trace" if args.trace else ""
    with open(os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}{tag}"
                                f".json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} pass(es), {runner.attempted} attempted, {failed} failed "
          f"(failed_share {failed / runner.attempted:.4g})")
    for k in units:
        alias = f"  [{OP_NAMES[args.workload]}]" if k == "op_s" else ""
        print(f"  {k:44s} {metrics[k]:.6g} {units[k]}{alias}")
    if not args.trace:
        print(f"  {'wall_s (median pass)':44s} {statistics.median(walls):.6g} s")
        if args.workload == "fast-sweep":
            print(f"  {'sweep_points_per_s':44s} {1 / metrics['op_s']:.6g} 1/s")
    for k, v in record["accuracy"].items():
        print(f"  accuracy {k} = {v}")
    for msg in runner.failures[:10]:
        print(f"  FAILED {msg}")
    if failed > 10:
        print(f"  ... {failed - 10} more failures in the run record")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
