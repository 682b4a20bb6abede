"""Seeded benchmark of maxfs classification and sparse recovery.

    python3 perfbench/run.py --workload classify-probe --seed 1 --seconds 20 --trace 0

Makes the workload's inputs from the seed, then runs whole rounds of its
calls while one more round is expected to end within `--seconds`. After
the last round it checks every output with numpy and HiGHS (see
checks.py), and prints one JSON object as its last line. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
calls into each layer are timed (see spans.py) and the metrics are the
per-layer ones. `--tiny` runs one round on small inputs. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set before numpy loads, in this process and in the set-up processes
# it starts: with one BLAS thread per core, runs on a shared 2-core
# machine spread far more and measure a different program.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lp_solves": "count",
    "feasible_rows": "count",
}

SETUP_REPEATS = (7, 1)   # (full, tiny)

# Runs in a fresh interpreter: imports the program and makes the inputs.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{workload!r}]({seed}, {tiny})
print(time.perf_counter() - t0)
"""


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median seconds, over fresh processes, to import maxfs and make
    the inputs."""
    code = _SETUP_CODE.format(paths=[str(SRC), str(HERE)], workload=workload,
                              seed=seed, tiny=tiny)
    times = []
    for _ in range(SETUP_REPEATS[tiny]):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_round(ops, tracer):
    """Call every op once. Returns (wall s, cpu s, outputs); an output
    is the exception when the call raised."""
    outputs = []
    t0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            if tracer is None:
                out = op.call()
            else:
                out = tracer.span(op.layer, op.call)
                tracer.counts[f"{op.layer}.lp_solves"] += out.lp_count
        except Exception as exc:  # a failed operation; the run goes on
            traceback.print_exc()
            out = exc
        outputs.append(out)
    return time.perf_counter() - t0, time.process_time() - c0, outputs


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    # imported here, once main() has pinned the threads and found src/;
    # checks (and with it scipy) only after the timed rounds
    from maxfs.classify import Dataset
    from workloads import WORKLOADS

    setup_s = measure_setup(workload, seed, tiny)
    ops = WORKLOADS[workload](seed, tiny)

    tracer = None
    if trace:
        from spans import PER_LAYER, Tracer
        tracer = Tracer()
        tracer.install()
    rounds, layer_rounds = [], []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            started = time.perf_counter()
            if tracer:
                tracer.reset()
            rounds.append(run_round(ops, tracer))
            if tracer:
                layer_rounds.append(tracer.metrics(rounds[-1][0]))
            # start another round only if one more is expected to fit
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()
    # read before scipy is loaded for the checks: the peak holds the
    # interpreter, numpy, the inputs and the program's own memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import check_classification, check_recovery, l1_optimum
    l1_refs = {i: l1_optimum(op.data) for i, op in enumerate(ops) if op.layer == "recovery.bp"}
    attempted = failed = 0
    correct = True
    first = None
    for _, _, outputs in rounds:
        signature = []
        for i, (op, out) in enumerate(zip(ops, outputs)):
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                signature.append(None)
                continue
            if isinstance(op.data, Dataset):
                problems = check_classification(op.data, out)
                signature.append((out.lp_count, op.data.I - len(out.removed_points),
                                  out.removed_points))
            else:
                problems = check_recovery(op.data, out, l1_refs.get(i))
                signature.append((out.lp_count, op.data.n - len(out.support),
                                  tuple(sorted(out.support))))
            if problems:
                failed += 1
                correct = False
                print(f"{op.layer} (op {i}): " + "; ".join(problems), file=sys.stderr)
        if first is None:
            first = signature
        elif signature != first:
            correct = False
            print("outputs differ from the first round", file=sys.stderr)

    if trace:
        values = {k: statistics.median(r[k] for r in layer_rounds) for k in PER_LAYER}
        units = PER_LAYER
    else:
        counted = [s for s in first if s is not None]
        values = {
            "wall_s": statistics.median(r[0] for r in rounds),
            "cpu_s": statistics.median(r[1] for r in rounds),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "lp_solves": sum(s[0] for s in counted),
            "feasible_rows": sum(s[1] for s in counted),
        }
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("classify-probe", "classify-batch", "recovery"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for about this long; at least one whole round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs for a quick test")
    args = ap.parse_args(argv)

    if not (SRC / "maxfs" / "__init__.py").is_file():
        print(f"run.py: the maxfs sources are not at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
