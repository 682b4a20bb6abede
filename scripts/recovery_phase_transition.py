"""Exact-recovery rate vs. planted sparsity, one row per (method, S).

Desk scale by default; --full-scale switches to 128x256 around the
interesting region. Prints a text table plus each method's critical
sparsity (largest S with every instance exact).

    python3 scripts/recovery_phase_transition.py
    python3 scripts/recovery_phase_transition.py --full-scale --methods m,me1e2
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# one BLAS thread, as the benchmark runs, set before numpy loads; the
# environment may still choose another count
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from maxfs.bench import SweepSpec, run_sweep, summarize  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=32)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--s-levels", default=None,
                    help="comma list; default spans 10%%..45%% of m")
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--methods", default=None,
                    help=f"comma list; default {','.join(SweepSpec.methods)}")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--full-scale", action="store_true",
                    help="shortcut for --m 128 --n 256 around S 40..60")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.full_scale:
        args.m, args.n = 128, 256
        args.s_levels = args.s_levels or "40,44,48,52,56,60"
        args.instances = min(args.instances, 20)
    if args.s_levels:
        levels = tuple(int(t) for t in args.s_levels.split(","))
    else:
        levels = tuple(max(1, round(f * args.m)) for f in (0.10, 0.20, 0.30, 0.45))
    spec = SweepSpec(
        m=args.m, n=args.n, s_levels=levels, instances=args.instances,
        seed=args.seed,
        methods=SweepSpec.methods if args.methods is None else args.methods.split(","),
        workers=args.workers,
    )
    t0 = time.perf_counter()
    records = run_sweep(spec)
    report = summarize(spec, records)

    print(f"m={spec.m} n={spec.n} instances={spec.instances} seed={spec.seed}")
    header = f"{'method':>8} {'S':>4} {'exact':>9} {'mean_T':>8} {'mean_lp':>8} {'s/inst':>8}"
    print(header)
    print("-" * len(header))
    for row in report["levels"]:
        rate = f"{row['correct']}/{row['instances']}"
        print(f"{row['method']:>8} {row['S']:>4} {rate:>9} "
              f"{row['mean_T']:>8.1f} {row['mean_lp']:>8.1f} {row['mean_seconds']:>8.3f}")
    print()
    for name, s in report["critical_sparsity"].items():
        print(f"critical sparsity {name}: {s if s is not None else 'none exact'}")
    print(f"total {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
