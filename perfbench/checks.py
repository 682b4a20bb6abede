"""Output checks made apart from the program.

They use plain numpy and scipy's HiGHS solver, never maxfs code, and
recompute what the program reports instead of comparing with a stored
copy of an earlier output. Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from maxfs.classify import ClassificationReport, Dataset
from maxfs.recovery import RecoveryProblem, RecoveryResult

# Relative tolerances. The elastic search stops at total violation
# 1e-6 and the recovery methods at residual 1e-6, so a correct output
# meets these bounds with room for rounding.
MARGIN_RTOL = 1e-6
RESIDUAL_RTOL = 1e-6
L1_RTOL = 1e-6


def check_classification(ds: Dataset, rep: ClassificationReport,
                         epsilon: float = 1.0) -> list[str]:
    """Accuracy from the returned hyperplane, every kept point on its
    side with margin `epsilon`, and HiGHS feasibility of the kept
    margin rows."""
    problems = []
    X, y = ds.features, ds.labels
    w = np.asarray(rep.hyperplane.weights, dtype=float)
    w0 = float(rep.hyperplane.offset)
    scores = X @ w - w0
    pred = (scores >= 0.0).astype(int)
    accuracy = float(np.mean(pred == y))
    if abs(accuracy - rep.accuracy) > 1e-12:
        problems.append(f"accuracy {rep.accuracy} but the hyperplane gives {accuracy}")

    removed = np.zeros(ds.I, dtype=bool)
    removed[list(rep.removed_points)] = True
    kept = ~removed
    # signed margin: class 1 needs score >= eps, class 0 needs score <= -eps
    sign = np.where(y == 1, 1.0, -1.0)
    shortfall = epsilon - sign * scores
    # scale of the terms that were summed into each score
    scale = np.abs(X) @ np.abs(w) + abs(w0) + epsilon
    bad = kept & (shortfall > MARGIN_RTOL * scale)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problems.append(f"{int(bad.sum())} kept points miss their margin, "
                        f"point {i} by {shortfall[i]:.3e}")

    # kept rows:  -sign_i * ([x_i, -1] . (w, w0)) <= -eps
    A = np.hstack([X[kept], -np.ones((int(kept.sum()), 1))]) * -sign[kept, None]
    res = linprog(np.zeros(ds.J + 1), A_ub=A, b_ub=np.full(A.shape[0], -epsilon),
                  bounds=(None, None), method="highs")
    if res.status != 0:
        problems.append(f"HiGHS finds the kept subsystem infeasible ({res.message})")
    return problems


def l1_optimum(prob: RecoveryProblem) -> float:
    """min ||y||_1 subject to A y = b, by HiGHS on the split form."""
    n = prob.n
    res = linprog(np.ones(2 * n), A_eq=np.hstack([prob.A, -prob.A]), b_eq=prob.b,
                  bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve the basis-pursuit LP: {res.message}")
    return float(res.fun)


def check_recovery(prob: RecoveryProblem, res: RecoveryResult,
                   l1_reference: float | None = None) -> list[str]:
    """A y = b; the support recomputed from y; y cut down to its reported
    support still gives b, so the entries the program counts as zero
    carry none of b; and for basis pursuit the l1 norm of y against the
    HiGHS optimum `l1_reference`."""
    problems = []
    y = np.asarray(res.y, dtype=float)
    tol = RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(prob.b))))
    resid = float(np.max(np.abs(prob.A @ y - prob.b)))
    if resid > tol:
        problems.append(f"||A y - b||_inf = {resid:.3e}")
    support = frozenset(int(j) for j in np.flatnonzero(np.abs(y) > prob.zero_tol))
    if support != frozenset(res.support):
        problems.append(f"support has {len(res.support)} entries but y has "
                        f"{len(support)} above the zero threshold")
    on = np.zeros(prob.n, dtype=bool)
    on[list(res.support)] = True
    cut = float(np.max(np.abs(prob.A[:, on] @ y[on] - prob.b)))
    if cut > tol:
        problems.append(f"y without its {prob.n - len(res.support)} zero entries "
                        f"misses b by {cut:.3e}")
    if l1_reference is not None:
        l1 = float(np.abs(y).sum())
        if abs(l1 - l1_reference) > L1_RTOL * (1.0 + l1_reference):
            problems.append(f"||y||_1 = {l1!r} but the HiGHS optimum is {l1_reference!r}")
    return problems
