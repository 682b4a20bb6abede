"""Run one workload on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload recovery --seeds 101-110 [--trace 1]

Runs run.py once per seed, one run at a time, appends every result line
to perfbench/results/<workload>-trace<0|1>.jsonl, and prints for each
metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and their distance as a
share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    with open(out_dir / f"{args.workload}-trace{args.trace}.jsonl", "a") as log:
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            line = proc.stdout.strip().splitlines()[-1]
            log.write(json.dumps({"seed": seed, **json.loads(line)}) + "\n")
            result = json.loads(line)
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:28s} {units[name]:6s} median {med:12.6g}  q1 {q1:12.6g}"
              f"  q3 {q3:12.6g}  iqr/median {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
