"""Seeded inputs and operations of the three benchmark workloads.

Every input is made here from the seed alone; the program only receives
the finished `Dataset` or `RecoveryProblem`. Each workload is a list of
`Op`s, one public API call each, and a benchmark round runs the whole
list once.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from maxfs.classify import Dataset, classify
from maxfs.recovery import (
    RecoveryProblem,
    basis_pursuit,
    method_b,
    method_c,
    method_me1e2,
)

_inv_cdf = np.vectorize(statistics.NormalDist().inv_cdf, otypes=[float])

# each called with its default settings
RECOVERY_METHODS = {
    "bp": basis_pursuit,
    "me1e2": method_me1e2,
    "c": method_c,
    "b": method_b,
}


@dataclass(frozen=True)
class Op:
    """One call into the program, on `data`. `layer` names its
    per-layer metrics: `classify.2inf`, `recovery.bp`, ..."""

    layer: str
    data: Dataset | RecoveryProblem
    call: Callable[[], object]


def _classify_op(ds: Dataset, variant: str) -> Op:
    return Op(f"classify.{variant}", ds, partial(classify, ds, variant))


def _recovery_op(prob: RecoveryProblem, method: str) -> Op:
    return Op(f"recovery.{method}", prob, partial(RECOVERY_METHODS[method], prob))


def _lhs_normal(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n standard-normal points, Latin-hypercube stratified: along each
    axis exactly one point falls in each of n equal-probability slices.
    That fixes, up to one point, how many points lie past any threshold
    on an axis, so the overlap of two classes (and with it the work of
    the removal search) varies far less from seed to seed than with
    independent draws."""
    u = (np.argsort(rng.random((n, d)), axis=0) + rng.random((n, d))) / n
    return _inv_cdf(u)


def gaussian_classes(rng: np.random.Generator, n0: int, n1: int, d: int,
                     delta: float) -> Dataset:
    """Two unit-variance Gaussian classes whose means lie `delta` apart,
    turned by a random rotation so that no feature axis is special."""
    z = np.vstack([_lhs_normal(rng, n0, d), _lhs_normal(rng, n1, d)])
    z[n0:, 0] += delta
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    return Dataset(z @ q.T, np.repeat([0, 1], [n0, n1]))


def planted_recovery(rng: np.random.Generator, m: int, n: int, s: int) -> RecoveryProblem:
    """A uniform(-10, 10) in R^{m x n}, b = A x for an x with s Gaussian
    nonzeros at random positions."""
    A = rng.uniform(-10.0, 10.0, size=(m, n))
    x = np.zeros(n)
    x[rng.choice(n, size=s, replace=False)] = rng.standard_normal(s)
    return RecoveryProblem(A, A @ x)


# Sizes: (full, tiny). Tiny mode runs the same calls on small inputs in
# well under a second, for the benchmark's own test.
PROBE_SETS = (5, 1)
PROBE_POINTS = (200, 40)
BATCH_SETS = (3, 1)
BATCH_SHAPE = ((444, 239, 9), (60, 30, 9))
RECOVERY_SHAPE = ((64, 128), (16, 32))
RECOVERY_LEVELS = ((20, 28), (3, 10))
RECOVERY_INSTANCES = (20, 1)


def classify_probe(seed: int, tiny: bool = False) -> list[Op]:
    """Full-probing 2inf training on 200x2 overlapping Gaussian sets."""
    rng = np.random.default_rng([seed, 1])
    half = PROBE_POINTS[tiny] // 2
    return [_classify_op(gaussian_classes(rng, half, half, 2, 1.4), "2inf")
            for _ in range(PROBE_SETS[tiny])]


def classify_batch(seed: int, tiny: bool = False) -> list[Op]:
    """2e1 batch training on 683x9 sets shaped like the breast-cancer
    data (444 and 239 points per class)."""
    rng = np.random.default_rng([seed, 2])
    n0, n1, d = BATCH_SHAPE[tiny]
    return [_classify_op(gaussian_classes(rng, n0, n1, d, 2.8), "2e1")
            for _ in range(BATCH_SETS[tiny])]


def recovery(seed: int, tiny: bool = False) -> list[Op]:
    """bp, me1e2, c and b on planted 64x128 instances, at one sparsity
    level that basis pursuit recovers and one where it fails."""
    rng = np.random.default_rng([seed, 3])
    m, n = RECOVERY_SHAPE[tiny]
    ops = []
    for _ in range(RECOVERY_INSTANCES[tiny]):
        for s in RECOVERY_LEVELS[tiny]:
            prob = planted_recovery(rng, m, n, s)
            ops.extend(_recovery_op(prob, meth) for meth in RECOVERY_METHODS)
    return ops


WORKLOADS = {
    "classify-probe": classify_probe,
    "classify-batch": classify_batch,
    "recovery": recovery,
}
