"""Per-call results of one benchmark workload, one JSON line per op.

Runs every op of a `perfbench` workload once and prints what the call
decided: its layer, LP count, rounds, pivots and degenerate pivots over
its LPs, removed points (classification) or support (recovery), the
batch sizes, and for classification the accuracy. Two checkouts give
the same lines exactly when they make the same decisions on these
inputs, down to the pivot counts, so compare them with `diff`:

    python3 scripts/call_records.py --workload classify-batch --seed 301 > new.jsonl
    python3 scripts/call_records.py --workload recovery --seed 301 --tiny

The inputs come from `perfbench/workloads.py`, which this script only
imports. The program is imported from `src/` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread, as the benchmark runs, set before numpy loads; the
# environment may still choose another count
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

from maxfs.classify import ClassificationReport  # noqa: E402


def record(layer: str, out) -> dict:
    rec = {"layer": layer, "lp_count": out.lp_count, "iterations": out.iterations,
           "pivots": out.pivots, "degenerate_pivots": out.degenerate_pivots}
    if isinstance(out, ClassificationReport):
        rec["removed_points"] = list(out.removed_points)
        rec["accuracy"] = out.accuracy
    else:
        rec["support"] = sorted(out.support)
    rec["removal_sizes"] = list(out.removal_sizes)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true", help="the benchmark's small inputs")
    args = ap.parse_args(argv)
    for op in WORKLOADS[args.workload](args.seed, args.tiny):
        print(json.dumps(record(op.layer, op.call())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
