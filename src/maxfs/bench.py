"""Seeded sparse-recovery sweeps and their summary tables.

Instances are generated per (seed, sparsity, index) with an explicit
seed sequence, so any instance can be regenerated in isolation and a
sweep parallelizes without changing its results. All methods at one
(S, index) share the same instance, which keeps the method comparison
paired rather than across different random draws.

Sharing the instance also shares its basis-pursuit solve: every method
starts from the problem's basis-pursuit optimum, which the first method
of `spec.methods` solves for and records (see `recovery`). That first
method's `seconds` include the solve and later ones' leave it out; LP
counts, supports and exactness do not depend on method order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .recovery import (
    RecoveryProblem,
    RecoveryResult,
    basis_pursuit,
    jokar_pfetsch,
    method_b,
    method_c,
    method_m,
    method_me1e2,
)

__all__ = [
    "BenchRecord",
    "METHODS",
    "SweepSpec",
    "gen_instance",
    "run_sweep",
    "summarize",
]

# benchmark configurations: list limit 2 for the probing methods, the
# first-round bulk exit at m - 3 nonzeros for the batch method
METHODS = {
    "bp": lambda p: basis_pursuit(p),
    "b": lambda p: method_b(p, k=2),
    "c": lambda p: method_c(p, k=2),
    "m": lambda p: method_m(p, k=2),
    "me1e2": lambda p: method_me1e2(p),
    "jp": lambda p: jokar_pfetsch(p),
}


@dataclass(frozen=True)
class SweepSpec:
    m: int
    n: int
    s_levels: tuple
    instances: int
    seed: int
    methods: tuple = ("bp", "b", "c", "m", "me1e2")
    workers: int | None = None

    def __post_init__(self):
        if self.m < 1 or self.n <= self.m:
            raise ValueError("need 1 <= m < n")
        levels = tuple(int(s) for s in self.s_levels)
        if not levels:
            raise ValueError("at least one sparsity level required")
        for s in levels:
            if s < 0 or s >= self.m:
                raise ValueError(f"sparsity {s} must satisfy 0 <= S < m")
        if self.instances < 1:
            raise ValueError("instances must be at least 1")
        methods = tuple(self.methods)
        unknown = [name for name in methods if name not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {sorted(METHODS)}")
        if not methods:
            raise ValueError("at least one method required")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1")
        object.__setattr__(self, "s_levels", levels)
        object.__setattr__(self, "methods", methods)

    @property
    def cr(self) -> float:
        """Compression ratio in percent."""
        return (1.0 - self.m / self.n) * 100.0


def gen_instance(spec: SweepSpec, S: int, index: int) -> tuple[RecoveryProblem, np.ndarray]:
    """Deterministic planted instance for (seed, S, index)."""
    rng = np.random.default_rng([spec.seed, S, index])
    A = rng.uniform(-10.0, 10.0, size=(spec.m, spec.n))
    x = np.zeros(spec.n)
    if S:
        pos = rng.choice(spec.n, size=S, replace=False)
        x[pos] = rng.standard_normal(S)
    return RecoveryProblem(A, A @ x), x


@dataclass(frozen=True)
class BenchRecord:
    method: str
    m: int
    n: int
    S: int
    instance: int
    T: int
    correct: bool
    lp_count: int
    seconds: float

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "m": self.m,
            "n": self.n,
            "S": self.S,
            "instance": self.instance,
            "T": self.T,
            "correct": self.correct,
            "lp_count": self.lp_count,
            "seconds": round(self.seconds, 6),
        }


def _exact(res: RecoveryResult, x: np.ndarray) -> bool:
    return bool(np.max(np.abs(res.y - x)) <= 1e-6)


def _run_instance(args) -> list[BenchRecord]:
    spec, S, index = args
    prob, x = gen_instance(spec, S, index)
    out = []
    for name in spec.methods:
        res = METHODS[name](prob)
        out.append(
            BenchRecord(
                method=name,
                m=spec.m,
                n=spec.n,
                S=S,
                instance=index,
                T=res.T,
                correct=res.T == S and _exact(res, x),
                lp_count=res.lp_count,
                seconds=res.seconds,
            )
        )
    return out


def run_sweep(spec: SweepSpec) -> list[BenchRecord]:
    """All (S, instance, method) records, deterministically ordered."""
    tasks = [(spec, S, i) for S in spec.s_levels for i in range(spec.instances)]
    if spec.workers and spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            chunks = list(pool.map(_run_instance, tasks))
    else:
        chunks = [_run_instance(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.S, r.instance, spec.methods.index(r.method)))
    return records


def summarize(spec: SweepSpec, records: list[BenchRecord]) -> dict:
    """Per method x S means plus each method's critical sparsity: the
    largest tested S at which every instance recovered exactly. Each
    instance's basis-pursuit LP is solved once, inside the first method
    of `spec.methods`, so only that method's `mean_seconds` include it;
    `mean_lp` counts it for every method."""
    rows = []
    critical: dict[str, int | None] = {}
    for name in spec.methods:
        best = None
        for S in spec.s_levels:
            group = [r for r in records if r.method == name and r.S == S]
            n_correct = sum(r.correct for r in group)
            rows.append(
                {
                    "method": name,
                    "S": S,
                    "instances": len(group),
                    "mean_T": round(float(np.mean([r.T for r in group])), 3),
                    "correct": n_correct,
                    "mean_lp": round(float(np.mean([r.lp_count for r in group])), 3),
                    "mean_seconds": round(float(np.mean([r.seconds for r in group])), 6),
                }
            )
            if group and n_correct == len(group):
                best = S if best is None else max(best, S)
        critical[name] = best
    return {
        "m": spec.m,
        "n": spec.n,
        "cr": round(spec.cr, 2),
        "instances": spec.instances,
        "seed": spec.seed,
        "levels": rows,
        "critical_sparsity": critical,
    }
