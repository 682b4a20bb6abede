"""LP cost of the three misclassification-minimizing training loops.

Runs batch removal (2e1), full probing (2inf), and truncated probing
(2k1) on overlapping Gaussian datasets, or on a CSV when one is given,
and reports accuracy plus LP-solve counts side by side. Over the
synthetic sets it also prints the mean LP reduction of batch removal
against full probing and the mean accuracy gap of 2e1 against 2k1 and
2inf (negative: batch removal is less accurate).

    python3 scripts/classification_lp_costs.py --seeds 10 --points 200
    python3 scripts/classification_lp_costs.py --csv data.csv --label-col class
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one BLAS thread, as the benchmark runs, set before numpy loads; the
# environment may still choose another count
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from maxfs.classify import (  # noqa: E402
    VARIANTS,
    ClassificationReport,
    Dataset,
    classify,
    load_csv,
)


def gaussian_overlap(seed: int, points: int) -> Dataset:
    rng = np.random.default_rng([seed, points])
    half = points // 2
    f0 = rng.normal(0.0, 1.0, size=(half, 2))
    f1 = rng.normal(0.9, 1.1, size=(points - half, 2))
    return Dataset(np.vstack([f0, f1]), np.repeat([0, 1], [half, points - half]))


def report(tag: str, ds: Dataset) -> dict[str, ClassificationReport]:
    reps = {name: classify(ds, name) for name in VARIANTS}
    cells = [f"{name}: acc={rep.accuracy:.4f} removed={len(rep.removed_points)}"
             f" lp={rep.lp_count}" for name, rep in reps.items()]
    print(f"{tag:>10}  " + "   ".join(cells))
    return reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="number of synthetic datasets")
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--csv", default=None, help="use this dataset instead")
    ap.add_argument("--label-col", default="class")
    ap.add_argument("--positive-label", default=None)
    args = ap.parse_args(argv)

    if args.csv:
        ds = load_csv(args.csv, args.label_col, positive_label=args.positive_label)
        report(args.csv, ds)
        return 0

    runs = [report(f"seed {seed}", gaussian_overlap(seed, args.points))
            for seed in range(args.seeds)]
    reduction = np.mean([1.0 - r["2e1"].lp_count / r["2inf"].lp_count for r in runs])
    gap = {other: np.mean([r["2e1"].accuracy - r[other].accuracy for r in runs])
           for other in ("2k1", "2inf")}
    print(f"\nmean LP reduction, batch vs full probing: {reduction:.1%};"
          f" mean accuracy gap of batch: {gap['2k1']:+.4f} vs 2k1,"
          f" {gap['2inf']:+.4f} vs 2inf")
    return 0


if __name__ == "__main__":
    sys.exit(main())
