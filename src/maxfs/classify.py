"""Binary linear classification as a row-deletion problem.

Each labeled point demands a margin from the separating hyperplane:

    class 0:  sum_j d_ij w_j - w_0 <= -eps
    class 1:  sum_j d_ij w_j - w_0 >= +eps

over free variables w_1..w_J, w_0.  A separable dataset makes this
system feasible; otherwise the row-deletion search drops the fewest
points it can, and the hyperplane solving the surviving rows classifies
the whole set.  Points sit exactly on the plane get class 1, so the
predicted label is the sign test  w . d - w_0 >= 0.

eps only fixes the scale of w (the rows are homogeneous in (w, w_0, eps)
jointly); any positive value yields the same sign pattern on separable
data. It must be positive, or w = 0 would satisfy everything.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .core import MaxFsResult, StrategyConfig, solve_maxfs
from .simplex import SimplexSolver
from .systems import LinearSystem, system

__all__ = [
    "ClassificationReport",
    "Dataset",
    "Hyperplane",
    "build_constraints",
    "classify",
    "load_csv",
]

VARIANTS = ("2e1", "2inf", "2k1")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray          # (I, J)
    labels: np.ndarray            # (I,) values in {0, 1}
    feature_names: tuple = ()

    def __post_init__(self):
        F = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        if F.ndim != 2 or F.shape[0] < 1 or F.shape[1] < 1:
            raise ValueError("features must be a nonempty 2-d array")
        if y.shape != (F.shape[0],):
            raise ValueError("one label per point required")
        if not np.all(np.isfinite(F)):
            raise ValueError("features must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        if len(np.unique(y)) < 2:
            raise ValueError("dataset must contain both classes")
        names = tuple(self.feature_names) or tuple(f"x{j}" for j in range(F.shape[1]))
        if len(names) != F.shape[1]:
            raise ValueError("feature name count must match column count")
        object.__setattr__(self, "features", F)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def I(self) -> int:
        return self.features.shape[0]

    @property
    def J(self) -> int:
        return self.features.shape[1]


def load_csv(path, label_col: str, positive_label: str | None = None) -> Dataset:
    """Read a numeric CSV with a header row.

    Every column except `label_col` must parse as float. Label values
    are compared as strings; `positive_label` names the value mapped to
    class 1. Without it the column must hold exactly two distinct
    values and the larger (numerically when possible) becomes class 1.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_col not in header:
            raise ValueError(f"{path}: no column named {label_col!r}")
        li = header.index(label_col)
        rows, raw_labels = [], []
        for ln, rec in enumerate(reader, start=2):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != len(header):
                raise ValueError(f"{path}:{ln}: expected {len(header)} fields")
            vals = []
            for j, cell in enumerate(rec):
                if j == li:
                    continue
                cell = cell.strip()
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{ln}: non-numeric value {cell!r} in column {header[j]!r}"
                    ) from None
            rows.append(vals)
            raw_labels.append(rec[li].strip())

    if not rows:
        raise ValueError(f"{path}: no data rows")
    if positive_label is None:
        uniq = sorted(set(raw_labels), key=_label_key)
        if len(uniq) != 2:
            raise ValueError(
                f"label column holds {len(uniq)} distinct values; pass positive_label"
            )
        positive_label = uniq[-1]
    labels = np.array([1 if v == positive_label else 0 for v in raw_labels])
    names = tuple(h for j, h in enumerate(header) if j != li)
    return Dataset(np.array(rows), labels, names)


def _label_key(v: str):
    try:
        return (0, float(v), "")
    except ValueError:
        return (1, 0.0, v)


def build_constraints(ds: Dataset, epsilon: float = 1.0) -> LinearSystem:
    """One margin row per point over the J+1 free variables (w, w_0)."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    coeffs = np.hstack([ds.features, -np.ones((ds.I, 1))])
    senses = np.where(ds.labels == 1, ">=", "<=")
    rhs = np.where(ds.labels == 1, epsilon, -epsilon)
    return system(coeffs, senses, rhs)


@dataclass(frozen=True)
class Hyperplane:
    weights: np.ndarray
    offset: float

    def scores(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=float) @ self.weights - self.offset

    def predict(self, features: np.ndarray) -> np.ndarray:
        # points exactly on the plane go to class 1
        return (self.scores(features) >= 0.0).astype(int)


@dataclass(frozen=True)
class ClassificationReport:
    variant: str
    hyperplane: Hyperplane
    accuracy: float
    misclassified: tuple
    removed_points: tuple
    lp_count: int
    iterations: int
    removal_sizes: tuple
    seconds: float


def _variant_config(variant: str) -> StrategyConfig:
    if variant == "2e1":
        return StrategyConfig(algorithm=2, use_e1=True)
    if variant == "2inf":
        return StrategyConfig(algorithm=2, k=None)
    if variant == "2k1":
        return StrategyConfig(algorithm=2, k=1)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def classify(
    ds: Dataset,
    variant: str = "2e1",
    epsilon: float = 1.0,
    engine: SimplexSolver | None = None,
) -> ClassificationReport:
    """Fit by deleting as few margin rows as the greedy search needs."""
    t0 = time.perf_counter()
    cfg = _variant_config(variant)
    sys_ = build_constraints(ds, epsilon)
    res: MaxFsResult = solve_maxfs(sys_, cfg, engine=engine)

    J = ds.J
    w = res.final_solution.x[:J].copy()
    w0 = float(res.final_solution.x[J])
    plane = Hyperplane(weights=w, offset=w0)
    pred = plane.predict(ds.features)
    wrong = tuple(int(i) for i in np.flatnonzero(pred != ds.labels))
    accuracy = 1.0 - len(wrong) / ds.I
    return ClassificationReport(
        variant=variant,
        hyperplane=plane,
        accuracy=accuracy,
        misclassified=wrong,
        removed_points=tuple(res.removed_rows),
        lp_count=res.lp_count,
        iterations=res.iterations,
        removal_sizes=tuple(res.removal_sizes),
        seconds=time.perf_counter() - t0,
    )
