"""LP cost of the three misclassification-minimizing training loops.

Runs batch removal (2e1), full probing (2inf), and truncated probing
(2k1) on overlapping Gaussian datasets, or on a CSV when one is given,
and reports accuracy plus LP-solve counts side by side.

    python3 scripts/classification_lp_costs.py --seeds 10 --points 200
    python3 scripts/classification_lp_costs.py --csv data.csv --label-col class
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from maxfs.classify import VARIANTS, Dataset, classify, load_csv


def gaussian_overlap(seed: int, points: int) -> Dataset:
    rng = np.random.default_rng([seed, points])
    half = points // 2
    f0 = rng.normal(0.0, 1.0, size=(half, 2))
    f1 = rng.normal(0.9, 1.1, size=(points - half, 2))
    return Dataset(np.vstack([f0, f1]), np.repeat([0, 1], [half, points - half]))


def report(tag: str, ds: Dataset) -> dict[str, int]:
    counts = {}
    cells = []
    for name in VARIANTS:
        rep = classify(ds, name)
        counts[name] = rep.lp_count
        cells.append(f"{name}: acc={rep.accuracy:.4f} removed={len(rep.removed_points)}"
                     f" lp={rep.lp_count}")
    print(f"{tag:>10}  " + "   ".join(cells))
    return counts


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

    reductions = []
    for seed in range(args.seeds):
        counts = report(f"seed {seed}", gaussian_overlap(seed, args.points))
        reductions.append(1.0 - counts["2e1"] / counts["2inf"])
    print(f"\nmean LP reduction, batch vs full probing: {np.mean(reductions):.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
