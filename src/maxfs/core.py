"""Row-deletion search for maximum feasible subsystems.

An infeasible linear system is repaired by deleting rows until what
remains is feasible; we want to delete as few as possible.  The exact
problem is NP-hard, so the solver here is a greedy search over the
elastic relaxation: the elastic objective Z measures total constraint
violation, Z == 0 certifies feasibility, and each round deletes the row
whose (tentative) removal shrinks Z the most.

The search is shared with the sparse-recovery module, which runs it over
variable pairs instead of rows.  Two pieces carry it:

`CostDeletionEnv`
    One LP whose entities (rows, or variable pairs) each own a few cost
    columns.  Deleting an entity only resets those costs, so every
    re-solve restarts warm.  A probe deletes tentatively, re-solves and
    puts the engine state back, keeping the end state so that adopting
    the probed deletion costs no extra LP solve.

`run_removal_loop`
    The greedy rounds.  The choice step either probes every candidate
    and deletes the best one (a one-row pool is deleted without probing:
    that row is the unique remaining cause), or, with `batch`, solves
    once per round and deletes the head group of the ranking, cut where
    the score sequence first changes mean level (see `changepoint`).

An early bulk exit is available to both policies: when the candidate
list has at most `e2_ell` entries, delete all of them and stop.  That
step is a heuristic extrapolation and can overshoot, so it is off by
default and, for the batch policy, usually restricted to the first
round, where the list is still dominated by genuinely bad rows.

Candidate rankings come in three flavours, all computed from the
current elastic solution:

1. active rows ranked by |dual price|,
2. violated rows ranked by violation x |dual price|,
3. the union of list 2 and the satisfied rows ranked by |dual price|.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import AbstractSet, Callable, Protocol, Sequence

import numpy as np

from .changepoint import first_mean_change
from .simplex import LpProblem, LpSolution, LpStatus, SimplexSolver, SolverError
from .systems import ElasticModel, LinearSystem, elasticize

__all__ = [
    "Candidate",
    "CandidateKind",
    "CostDeletionEnv",
    "ExitReason",
    "LoopTelemetry",
    "MaxFsResult",
    "RemovalEntry",
    "RemovalLedger",
    "StrategyConfig",
    "build_candidates_alg1",
    "build_candidates_alg2",
    "build_candidates_alg3",
    "run_removal_loop",
    "solve_maxfs",
]


class CandidateKind(Enum):
    """Which ranking produced a candidate."""

    DUAL = "dual"
    VIOLATION_PRODUCT = "violation_product"
    SATISFIED_DUAL = "satisfied_dual"
    VALUE = "value"


@dataclass(frozen=True)
class Candidate:
    entity: int
    score: float
    kind: CandidateKind


def _ranked(pairs: list[tuple[int, float]], kind: CandidateKind) -> list[Candidate]:
    # stable order: score descending, entity ascending on ties
    pairs.sort(key=lambda t: (-t[1], t[0]))
    return [Candidate(entity=e, score=s, kind=kind) for e, s in pairs]


def build_candidates_alg1(
    sol: LpSolution,
    model: ElasticModel,
    k: int | None = None,
    dual_tol: float = 1e-8,
) -> list[Candidate]:
    """Active rows with a nonzero dual price, ranked by |dual|."""
    duals = model.row_duals(sol)
    pairs = [
        (i, abs(duals[i]))
        for i in range(model.base.m)
        if i not in model.removed_rows and abs(duals[i]) > dual_tol
    ]
    out = _ranked(pairs, CandidateKind.DUAL)
    return out if k is None else out[:k]


def build_candidates_alg2(
    sol: LpSolution,
    model: ElasticModel,
    k: int | None = None,
    violation_tol: float = 1e-8,
) -> list[Candidate]:
    """Violated rows ranked by violation x |dual price|."""
    v = model.violations(sol)
    duals = model.row_duals(sol)
    pairs = [
        (i, v[i] * abs(duals[i]))
        for i in range(model.base.m)
        if i not in model.removed_rows and v[i] > violation_tol
    ]
    out = _ranked(pairs, CandidateKind.VIOLATION_PRODUCT)
    return out if k is None else out[:k]


def _alg3_lists(
    sol: LpSolution,
    model: ElasticModel,
    violation_tol: float,
    dual_tol: float,
) -> tuple[list[Candidate], list[Candidate]]:
    v = model.violations(sol)
    duals = model.row_duals(sol)
    vio: list[tuple[int, float]] = []
    sat: list[tuple[int, float]] = []
    for i in range(model.base.m):
        if i in model.removed_rows:
            continue
        if v[i] > violation_tol:
            vio.append((i, v[i] * abs(duals[i])))
        elif abs(duals[i]) > dual_tol:
            sat.append((i, abs(duals[i])))
    return (
        _ranked(vio, CandidateKind.VIOLATION_PRODUCT),
        _ranked(sat, CandidateKind.SATISFIED_DUAL),
    )


def build_candidates_alg3(
    sol: LpSolution,
    model: ElasticModel,
    k: int | None = None,
    violation_tol: float = 1e-8,
    dual_tol: float = 1e-8,
) -> list[Candidate]:
    """Top violated rows by violation x |dual| plus top satisfied rows
    by |dual|; `k` truncates each list separately."""
    vio, sat = _alg3_lists(sol, model, violation_tol, dual_tol)
    if k is not None:
        vio, sat = vio[:k], sat[:k]
    return vio + sat


@dataclass(frozen=True)
class StrategyConfig:
    """Knobs for the greedy search.

    algorithm   candidate ranking (1, 2, or 3)
    k           list truncation; None keeps every nonzero entry
    use_e1      batch removal instead of per-candidate probing
    e2_ell      bulk-exit threshold; None disables the step
    e2_first_iteration_only
                apply the bulk exit only on the first round
    beta        mean-change sensitivity for the batch cut
    ztol        Z at or below this certifies feasibility
    max_iterations
                outer-round cap; None means 10 * m
    """

    algorithm: int = 2
    k: int | None = None
    use_e1: bool = False
    e2_ell: int | None = None
    e2_first_iteration_only: bool = False
    beta: float = 1.0
    ztol: float = 1e-6
    violation_tol: float = 1e-8
    dual_tol: float = 1e-8
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in (1, 2, 3):
            raise ValueError("algorithm must be 1, 2, or 3")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if self.e2_ell is not None and self.e2_ell < 1:
            raise ValueError("e2_ell must be at least 1")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.ztol < 0.0:
            raise ValueError("ztol must be nonnegative")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class RemovalEntry:
    """One deletion. The Z after it is `z_history[iteration]` of the
    search that made it."""

    entity: int
    iteration: int


class RemovalLedger:
    """Ordered record of deletions: unique entities, nondecreasing rounds."""

    def __init__(self) -> None:
        self.entries: list[RemovalEntry] = []
        self._seen: set[int] = set()

    def add(self, entity: int, iteration: int) -> None:
        if entity in self._seen:
            raise ValueError(f"entity {entity} recorded twice")
        if self.entries and iteration < self.entries[-1].iteration:
            raise ValueError("iteration numbers must not decrease")
        self._seen.add(entity)
        self.entries.append(RemovalEntry(entity, iteration))

    def entities(self) -> list[int]:
        return [e.entity for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class ExitReason(Enum):
    FEASIBLE = "feasible"
    EMPTY_CANDIDATES = "empty_candidates"
    SINGLETON = "singleton"
    BULK_E2 = "bulk_e2"


class SearchEnv(Protocol):
    """What `run_removal_loop` needs from the problem being searched.

    Entities are row indices for `solve_maxfs` and variable-pair indices
    in the recovery module; the loop never looks inside them.
    """

    lp_count: int

    def solve_current(self) -> LpSolution: ...

    def candidates(self, sol: LpSolution) -> tuple[int, list[Candidate]]:
        """(untruncated pool size, ranked and truncated list)."""
        ...

    def probe(self, entity: int) -> tuple[LpSolution, object]:
        """Tentatively delete `entity`: re-solve warm, put the engine
        back, and return (solution, end-state for adoption)."""
        ...

    def adopt(self, entity: int, state: object) -> None:
        """Delete `entity` for real and install the probe end-state."""
        ...

    def remove_batch(self, entities: Sequence[int]) -> None:
        """Delete entities without solving."""
        ...


# (solution, removed entities) -> (untruncated pool size, ranked and
# truncated candidates)
Ranking = Callable[[LpSolution, AbstractSet[int]], tuple[int, list[Candidate]]]


class CostDeletionEnv:
    """Search environment over one LP whose entities own cost columns.

    Deleting an entity sets the costs of its columns (`columns[entity]`)
    to `deleted_cost`; the constraints never change, so every re-solve
    restarts warm from the engine's incumbent basis. `rank` orders the
    candidates of a solution. When `infeasible` is given, an infeasible
    LP raises ValueError with that message; otherwise any status but
    OPTIMAL is a SolverError.
    """

    def __init__(
        self,
        problem: LpProblem,
        columns: Sequence[Sequence[int]],
        deleted_cost: float | None,
        rank: Ranking,
        engine: SimplexSolver | None = None,
        infeasible: str | None = None,
    ):
        self.problem = problem
        self.columns = columns
        self.deleted_cost = deleted_cost
        self.rank = rank
        self.engine = engine if engine is not None else SimplexSolver()
        self.infeasible = infeasible
        self.costs = problem.c.copy()
        self.removed: set[int] = set()
        self.lp_count = 0

    def _solve(self, costs: np.ndarray) -> LpSolution:
        sol = self.engine.solve(self.problem.with_costs(costs))
        self.lp_count += 1
        if sol.status is LpStatus.INFEASIBLE and self.infeasible is not None:
            raise ValueError(self.infeasible)
        if sol.status is not LpStatus.OPTIMAL:
            raise SolverError(f"search subproblem ended {sol.status.name}")
        return sol

    def _delete(self, costs: np.ndarray, entity: int) -> None:
        for col in self.columns[entity]:
            costs[col] = self.deleted_cost

    def solve_current(self) -> LpSolution:
        return self._solve(self.costs.copy())

    def candidates(self, sol: LpSolution) -> tuple[int, list[Candidate]]:
        return self.rank(sol, self.removed)

    def probe(self, entity: int) -> tuple[LpSolution, object]:
        trial = self.costs.copy()
        self._delete(trial, entity)
        pre = self.engine.save_state()
        sol = self._solve(trial)
        post = self.engine.save_state()
        self.engine.load_state(pre)
        return sol, post

    def adopt(self, entity: int, state: object) -> None:
        self.remove_batch([entity])
        self.engine.load_state(state)

    def remove_batch(self, entities: Sequence[int]) -> None:
        for e in entities:
            self._delete(self.costs, e)
            self.removed.add(e)


@dataclass
class LoopTelemetry:
    exit_reason: ExitReason
    iterations: int
    ledger: RemovalLedger
    z_history: list[float]
    removal_sizes: list[int]
    last_solution: LpSolution
    probes: int


def run_removal_loop(
    env: SearchEnv,
    *,
    ztol: float,
    batch: bool = False,
    beta: float = 1.0,
    exit_on_empty: bool = False,
    e2_ell: int | None = None,
    e2_first_iteration_only: bool = False,
    max_iterations: int,
) -> LoopTelemetry:
    """Greedy deletion rounds until Z <= ztol.

    Each round ranks the candidates of the current solution and deletes
    some of them. Probing (the default) tries every candidate and keeps
    the one with the lowest Z; a feasible probe ends the round at once.
    With `batch`, the head of the ranking, cut at the first mean change
    of its scores, is deleted and the LP solved once.

    With `exit_on_empty` the loop runs until no candidates remain and a
    positive final Z is acceptable; otherwise an empty candidate list
    while Z > ztol is an error. `max_iterations` caps the rounds.
    """
    ledger = RemovalLedger()
    removal_sizes: list[int] = []
    probes = 0
    iteration = 0
    exit_reason: ExitReason | None = None
    sol = env.solve_current()
    z_history = [sol.z]

    while exit_on_empty or sol.z > ztol:
        if iteration >= max_iterations:
            raise SolverError(f"no convergence within {max_iterations} rounds")
        pool_size, cands = env.candidates(sol)
        if not cands:
            if not exit_on_empty:
                raise SolverError("objective positive but no candidates")
            exit_reason = ExitReason.EMPTY_CANDIDATES
            break
        iteration += 1

        if not batch and pool_size == 1:
            # the sole candidate is the only remaining cause; deleting it
            # leaves the incumbent point feasible, so no probe is needed.
            # The batch policy cuts it like any list and lets the next
            # solve decide: same LP count, more robust exit.
            exit_reason = ExitReason.SINGLETON
        elif (
            e2_ell is not None
            and (iteration == 1 or not e2_first_iteration_only)
            and len(cands) <= e2_ell
        ):
            exit_reason = ExitReason.BULK_E2
        elif not batch:
            best = None
            for c in cands:
                psol, pstate = env.probe(c.entity)
                probes += 1
                if best is None or psol.z < sol.z:
                    best, sol, state = c.entity, psol, pstate
                if not exit_on_empty and sol.z <= ztol:
                    break  # a feasible probe cannot be beaten
            env.adopt(best, state)
            ledger.add(best, iteration)
            removal_sizes.append(1)
            z_history.append(sol.z)
            continue
        else:
            scores = np.array([c.score for c in cands])
            cands = cands[: first_mean_change(scores, beta=beta)]

        ents = [c.entity for c in cands]
        env.remove_batch(ents)
        for e in ents:
            ledger.add(e, iteration)
        removal_sizes.append(len(ents))
        if exit_reason is not None:
            break
        sol = env.solve_current()
        z_history.append(sol.z)
    else:
        exit_reason = ExitReason.FEASIBLE

    return LoopTelemetry(
        exit_reason, iteration, ledger, z_history, removal_sizes, sol, probes
    )


def _row_ranking(model: ElasticModel, cfg: StrategyConfig) -> Ranking:
    def rank(sol: LpSolution, removed: AbstractSet[int]) -> tuple[int, list[Candidate]]:
        view = replace(model, removed_rows=model.removed_rows | removed)
        if cfg.algorithm == 3:
            vio, sat = _alg3_lists(sol, view, cfg.violation_tol, cfg.dual_tol)
            return len(vio) + len(sat), vio[: cfg.k] + sat[: cfg.k]
        if cfg.algorithm == 1:
            pool = build_candidates_alg1(sol, view, None, cfg.dual_tol)
        else:
            pool = build_candidates_alg2(sol, view, None, cfg.violation_tol)
        return len(pool), pool[: cfg.k]

    return rank


@dataclass
class MaxFsResult:
    """Outcome of the greedy search on one elastic model.

    `removed_rows` lists deletions in order; the surviving rows form a
    feasible subsystem whenever `final_z <= ztol` held at exit.
    `lp_count` counts every LP solved, probes and the finishing solve
    included.
    """

    ledger: RemovalLedger
    final_z: float
    final_solution: LpSolution
    model: ElasticModel
    lp_count: int
    iterations: int
    probes: int
    seconds: float
    exit_reason: ExitReason
    z_history: list[float]
    removal_sizes: list[int]

    @property
    def removed_rows(self) -> list[int]:
        return self.ledger.entities()


def solve_maxfs(
    source: LinearSystem | ElasticModel,
    config: StrategyConfig | None = None,
    engine: SimplexSolver | None = None,
) -> MaxFsResult:
    """Delete rows greedily until the elastic objective reaches zero.

    Accepts a plain system (elasticised in standard mode) or a prebuilt
    elastic model when full elasticity or prior removals are wanted.
    """
    cfg = config or StrategyConfig()
    model = source if isinstance(source, ElasticModel) else elasticize(source)
    env = CostDeletionEnv(
        model.lp_problem(), model.row_elastics, 0.0, _row_ranking(model, cfg), engine
    )
    cap = cfg.max_iterations if cfg.max_iterations is not None else 10 * model.base.m

    t0 = time.perf_counter()
    tel = run_removal_loop(
        env,
        ztol=cfg.ztol,
        batch=cfg.use_e1,
        beta=cfg.beta,
        e2_ell=cfg.e2_ell,
        e2_first_iteration_only=cfg.e2_first_iteration_only,
        max_iterations=cap,
    )
    final_sol = tel.last_solution
    if tel.exit_reason in (ExitReason.SINGLETON, ExitReason.BULK_E2):
        # those exits delete without solving; one finishing solve yields
        # the surviving system's solution and the definitive Z
        final_sol = env.solve_current()
        tel.z_history.append(final_sol.z)
    seconds = time.perf_counter() - t0

    if tel.exit_reason is not ExitReason.BULK_E2 and final_sol.z > cfg.ztol:
        raise SolverError(f"search ended with Z={final_sol.z:.3e} above tolerance")

    return MaxFsResult(
        ledger=tel.ledger,
        final_z=final_sol.z,
        final_solution=final_sol,
        model=replace(model, removed_rows=model.removed_rows | env.removed),
        lp_count=env.lp_count,
        iterations=tel.iterations,
        probes=tel.probes,
        seconds=seconds,
        exit_reason=tel.exit_reason,
        z_history=tel.z_history,
        removal_sizes=tel.removal_sizes,
    )
