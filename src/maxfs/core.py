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
    puts the engine state back, keeping the end state of the best probe
    so far so that adopting the probed deletion costs no extra LP solve.

`run_removal_loop`
    The greedy rounds.  The choice step either probes every candidate
    and deletes the best one (a one-row pool is deleted without probing:
    that row is the unique remaining cause), or, with `batch`, solves
    once per round and deletes the head group of the ranking, cut where
    the score sequence first changes mean level (see `changepoint`).
    It returns the search's one record, a `MaxFsResult`, to which
    `solve_maxfs` adds a finishing solve and which recovery reads.

An early bulk exit is available to both policies: when the candidate
pool (every ranked entity, before the `k` cut) has at most `e2_ell`
entries, delete all of them and stop.  That
step is a heuristic extrapolation and can overshoot, so it is off by
default and, for the batch policy, usually restricted to the first
round, where the list is still dominated by genuinely bad rows.

Every candidate list comes from `rank_candidates`: score vectors over
all entities, each with a mask of the eligible ones, in; the entities
ranked by score, ties (equal up to `TIE_TOL`) to the lower index, out.
The row rankings, all computed from the current elastic solution, are:

1. rows with a nonzero dual price, ranked by |dual price|,
2. violated rows ranked by violation x |dual price|,
3. list 2, then the satisfied rows with a nonzero dual price ranked by
   |dual price|.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Callable, Protocol, Sequence

import numpy as np

from .changepoint import first_mean_change
from .simplex import Basis, LpProblem, LpSolution, LpStatus, SimplexSolver, SolverError
from .systems import ElasticModel, LinearSystem, elasticize

__all__ = [
    "CostDeletionEnv",
    "ExitReason",
    "MaxFsResult",
    "StrategyConfig",
    "build_candidates_alg1",
    "build_candidates_alg2",
    "build_candidates_alg3",
    "rank_candidates",
    "run_removal_loop",
    "solve_maxfs",
]


# an entity counts as violated when its violation exceeds VIOLATION_TOL
# and as priced when its |dual price| exceeds DUAL_TOL
VIOLATION_TOL = 1e-8
DUAL_TOL = 1e-8

# each list ranks its scores rounded to a multiple of TIE_TOL * (1 + the
# largest |score| it ranks): scores that only rounding noise tells apart
# tie, and ties go to the lower index
TIE_TOL = 1e-9

# (pool, candidates, scores), see `rank_candidates`
Ranked = tuple[list[int], list[int], np.ndarray]


def rank_candidates(
    lists: Sequence[tuple[np.ndarray, np.ndarray]],
    removed: AbstractSet[int] = frozenset(),
    k: int | None = None,
) -> Ranked:
    """The one candidate ordering of the search.

    Each list is a pair of vectors over all entities: scores and a mask
    of the eligible ones. A list orders its eligible entities outside
    `removed` by score, highest first, and ties (scores equal once
    rounded, see TIE_TOL) to the lower index.
    Returns (pool, candidates, scores):

    pool        every ranked entity once, list by list
    candidates  the first `k` of each list, less those an earlier
                list's candidates hold; the pool itself when k is None
    scores      the candidates' scores, unrounded
    """
    live = np.ones(lists[0][0].size, dtype=bool)
    live[np.fromiter(removed, dtype=np.intp, count=len(removed))] = False
    pooled = np.zeros_like(live)
    held = np.zeros_like(live)
    pool, top, scores = [], [], []
    for score, eligible in lists:
        idx = np.flatnonzero(eligible & live)
        s = score[idx]
        grid = TIE_TOL * (1.0 + np.abs(s).max(initial=0.0))
        ranked = idx[np.argsort(-np.round(s / grid), kind="stable")]
        head = ranked[:k]
        head = head[~held[head]]
        held[head] = True
        pool.append(ranked[~pooled[ranked]])
        pooled[ranked] = True
        top.append(head)
        scores.append(score[head])
    return (
        np.concatenate(pool).tolist(),
        np.concatenate(top).tolist(),
        np.concatenate(scores),
    )


def build_candidates_alg1(
    sol: LpSolution,
    model: ElasticModel,
    removed: AbstractSet[int] = frozenset(),
    k: int | None = None,
) -> Ranked:
    """Rows with a nonzero dual price, ranked by |dual|."""
    d = np.abs(model.row_duals(sol))
    return rank_candidates([(d, d > DUAL_TOL)], removed, k)


def build_candidates_alg2(
    sol: LpSolution,
    model: ElasticModel,
    removed: AbstractSet[int] = frozenset(),
    k: int | None = None,
) -> Ranked:
    """Violated rows ranked by violation x |dual price|."""
    v = model.violations(sol)
    d = np.abs(model.row_duals(sol))
    return rank_candidates([(v * d, v > VIOLATION_TOL)], removed, k)


def build_candidates_alg3(
    sol: LpSolution,
    model: ElasticModel,
    removed: AbstractSet[int] = frozenset(),
    k: int | None = None,
) -> Ranked:
    """Violated rows ranked by violation x |dual|, then satisfied rows
    with a nonzero dual price ranked by |dual|; `k` truncates each list
    separately."""
    v = model.violations(sol)
    d = np.abs(model.row_duals(sol))
    vio = v > VIOLATION_TOL
    return rank_candidates([(v * d, vio), (d, ~vio & (d > DUAL_TOL))], removed, k)


def _check_k(k: int | None) -> None:
    """The list limit `k` is None (no limit) or at least 1."""
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class StrategyConfig:
    """Knobs for the greedy search.

    algorithm   candidate ranking (1, 2, or 3; see the module docstring)
    k           keep the first k entries of each ranked list; None
                keeps them all
    use_e1      batch removal instead of per-candidate probing
    e2_ell      bulk exit when the candidate pool, counted before the
                `k` cut, has at most this many rows; None disables it
    e2_first_iteration_only
                apply the bulk exit only on the first round
    beta        significance of the batch cut: the head of the ranked
                list is cut where the best two-segment fit of its
                scores leaves less than beta of their spread (the
                squared error about their mean); 1 cuts every series
                that is not flat, 0 deletes one row per round
    ztol        Z at or below this certifies feasibility
    max_iterations
                outer-round cap; None means 10 * m

    A row counts as violated above VIOLATION_TOL and as priced above
    DUAL_TOL, both fixed at 1e-8.
    """

    algorithm: int = 2
    k: int | None = None
    use_e1: bool = False
    e2_ell: int | None = None
    e2_first_iteration_only: bool = False
    beta: float = 1.0
    ztol: float = 1e-6
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in (1, 2, 3):
            raise ValueError("algorithm must be 1, 2, or 3")
        _check_k(self.k)
        if self.e2_ell is not None and self.e2_ell < 1:
            raise ValueError("e2_ell must be at least 1")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.ztol < 0.0:
            raise ValueError("ztol must be nonnegative")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class ExitReason(Enum):
    FEASIBLE = "feasible"
    EMPTY_CANDIDATES = "empty_candidates"
    SINGLETON = "singleton"
    BULK_E2 = "bulk_e2"


@dataclass
class MaxFsResult:
    """The record of one greedy search, over rows (`solve_maxfs`) or
    over the variable pairs (u_j, v_j) of sparse recovery.

    removed_rows    deleted entities in order: row indices, or variable
                    indices j; deletions made before the search are not
                    listed
    removal_sizes   entities deleted per round (1 when probing); their
                    sum is len(removed_rows)
    z_history       Z after the first solve and after each solved round.
                    A SINGLETON or BULK_E2 exit deletes without solving;
                    `solve_maxfs` then appends its finishing solve's Z
    final_solution  the last LP solved: for rows, the surviving
                    system's; for recovery after those exits, the one
                    the last cut was taken from
    lp_count        LPs solved, probes and a finishing solve included
    pivots          basis changes over those LPs
    degenerate_pivots  the basis changes among them with a zero step
    probes          tentative deletions tried
    seconds         wall time of the search
    exit_reason     why the rounds stopped

    The surviving rows are feasible whenever final_z <= ztol at exit.
    """

    removed_rows: list[int]
    removal_sizes: list[int]
    z_history: list[float]
    final_solution: LpSolution
    lp_count: int
    pivots: int
    degenerate_pivots: int
    probes: int
    seconds: float
    exit_reason: ExitReason

    @property
    def iterations(self) -> int:
        """Deletion rounds; a round deletes at least one entity."""
        return len(self.removal_sizes)

    @property
    def final_z(self) -> float:
        return self.final_solution.z


class SearchEnv(Protocol):
    """What `run_removal_loop` needs from the problem being searched.

    Entities are row indices for `solve_maxfs` and variable-pair indices
    in the recovery module; the loop never looks inside them. The
    counters cover every LP solved so far.
    """

    lp_count: int
    pivots: int
    degenerate_pivots: int

    def solve_current(self) -> LpSolution: ...

    def candidates(self, sol: LpSolution) -> Ranked:
        """(pool, candidates, scores), as `rank_candidates` returns them."""

    def probe(self, entity: int, beat: float) -> tuple[LpSolution, object | None]:
        """Tentatively delete `entity`: re-solve warm, put the engine
        back, and return (solution, end-state for adoption); the end
        state is None unless the solution's Z is below `beat`."""

    def adopt(self, entity: int, state: object) -> None:
        """Delete `entity` for real and install the probe end-state."""

    def remove_batch(self, entities: Sequence[int]) -> None:
        """Delete entities without solving."""


# (solution, removed entities) -> (pool, candidates, scores)
Ranking = Callable[[LpSolution, AbstractSet[int]], Ranked]


class CostDeletionEnv:
    """Search environment over one LP whose entities own cost columns.

    Deleting an entity sets the costs of its columns (`columns[entity]`)
    to `deleted_cost`; the constraints never change, so every re-solve
    restarts warm from the engine's incumbent basis. `rank` orders the
    candidates of a solution. When `infeasible` is given, an infeasible
    LP raises ValueError with that message; otherwise any status but
    OPTIMAL is a SolverError. When `start` is given, the first solve
    begins from the basis it returns instead of a cold start, and the
    pivots that reached that basis count toward that LP.

    Every probe of a round starts from the same incumbent, so the first
    probe snapshots it and the others reuse that snapshot until a
    deletion or a solve moves the engine on.
    """

    def __init__(
        self,
        problem: LpProblem,
        columns: Sequence[Sequence[int]],
        deleted_cost: float | None,
        rank: Ranking,
        engine: SimplexSolver | None = None,
        infeasible: str | None = None,
        start: Callable[[], Basis] | None = None,
    ):
        self.problem = problem
        self.columns = columns
        self.deleted_cost = deleted_cost
        self.rank = rank
        self.engine = engine if engine is not None else SimplexSolver()
        self.infeasible = infeasible
        self.costs = problem.c.copy()
        self.removed: set[int] = set()
        self.lp_count = self.pivots = self.degenerate_pivots = 0
        self._incumbent = None
        self._start = start

    def _solve(self, costs: np.ndarray) -> LpSolution:
        problem = self.problem.with_costs(costs)
        if self._start is None:
            sol = self.engine.solve(problem)
        else:
            start, self._start = self._start(), None
            sol = self.engine.solve(problem, start)
            # the solve that reached the start basis began this LP
            self.pivots += start.pivots
            self.degenerate_pivots += start.degenerate_pivots
        self.lp_count += 1
        self.pivots += sol.pivots
        self.degenerate_pivots += sol.degenerate_pivots
        if sol.status is LpStatus.INFEASIBLE and self.infeasible is not None:
            raise ValueError(self.infeasible)
        if sol.status is not LpStatus.OPTIMAL:
            raise SolverError(f"search subproblem ended {sol.status.name}")
        return sol

    def _delete(self, costs: np.ndarray, entity: int) -> None:
        for col in self.columns[entity]:
            costs[col] = self.deleted_cost

    def solve_current(self) -> LpSolution:
        self._incumbent = None
        return self._solve(self.costs.copy())

    def candidates(self, sol: LpSolution) -> Ranked:
        return self.rank(sol, self.removed)

    def probe(self, entity: int, beat: float) -> tuple[LpSolution, object | None]:
        trial = self.costs.copy()
        self._delete(trial, entity)
        if self._incumbent is None:
            self._incumbent = self.engine.save_state()
        sol = self._solve(trial)
        post = self.engine.save_state() if sol.z < beat else None
        self.engine.load_state(self._incumbent)
        return sol, post

    def adopt(self, entity: int, state: object) -> None:
        self.remove_batch([entity])
        self.engine.load_state(state)

    def remove_batch(self, entities: Sequence[int]) -> None:
        self._incumbent = None
        for e in entities:
            self._delete(self.costs, e)
            self.removed.add(e)


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
) -> MaxFsResult:
    """Greedy deletion rounds until Z <= ztol.

    Each round ranks the candidates of the current solution and deletes
    some of them. Probing (the default) tries every candidate and keeps
    the one with the lowest Z; a feasible probe ends the round at once.
    With `batch`, the head of the ranking, cut at the first mean change
    of its scores (`changepoint.first_mean_change` at `beta`), is
    deleted and the LP solved once.

    With `exit_on_empty` the loop runs until no candidates remain and a
    positive final Z is acceptable; otherwise an empty candidate list
    while Z > ztol is an error. `max_iterations` caps the rounds.
    """
    t0 = time.perf_counter()
    removed: list[int] = []
    removal_sizes: list[int] = []
    probes = 0
    exit_reason: ExitReason | None = None
    sol = env.solve_current()
    z_history = [sol.z]

    while exit_on_empty or sol.z > ztol:
        if len(removal_sizes) >= max_iterations:
            raise SolverError(f"no convergence within {max_iterations} rounds")
        pool, ents, scores = env.candidates(sol)
        if not pool:
            if not exit_on_empty:
                raise SolverError("objective positive but no candidates")
            exit_reason = ExitReason.EMPTY_CANDIDATES
            break

        if not batch and len(pool) == 1:
            # the sole candidate is the only remaining cause; deleting it
            # leaves the incumbent point feasible, so no probe is needed.
            # The batch policy cuts it like any list and lets the next
            # solve decide: same LP count, more robust exit.
            exit_reason = ExitReason.SINGLETON
        elif (
            e2_ell is not None
            and (not removal_sizes or not e2_first_iteration_only)
            and len(pool) <= e2_ell
        ):
            exit_reason = ExitReason.BULK_E2
            ents = pool
        elif not batch:
            best, beat = None, math.inf
            for e in ents:
                psol, pstate = env.probe(e, beat)
                probes += 1
                if psol.z < beat:
                    best, sol, state, beat = e, psol, pstate, psol.z
                if not exit_on_empty and sol.z <= ztol:
                    break  # a feasible probe cannot be beaten
            env.adopt(best, state)
            removed.append(best)
            removal_sizes.append(1)
            z_history.append(sol.z)
            continue
        else:
            ents = ents[: first_mean_change(scores, beta=beta)]

        env.remove_batch(ents)
        removed.extend(ents)
        removal_sizes.append(len(ents))
        if exit_reason is not None:
            break
        sol = env.solve_current()
        z_history.append(sol.z)
    else:
        exit_reason = ExitReason.FEASIBLE

    return MaxFsResult(
        removed_rows=removed,
        removal_sizes=removal_sizes,
        z_history=z_history,
        final_solution=sol,
        lp_count=env.lp_count,
        pivots=env.pivots,
        degenerate_pivots=env.degenerate_pivots,
        probes=probes,
        seconds=time.perf_counter() - t0,
        exit_reason=exit_reason,
    )


def _row_ranking(model: ElasticModel, cfg: StrategyConfig) -> Ranking:
    # the builders are looked up at call time, so that a wrapper
    # installed on this module's globals sees every call
    def rank(sol: LpSolution, removed: AbstractSet[int]) -> Ranked:
        if cfg.algorithm == 1:
            return build_candidates_alg1(sol, model, removed, cfg.k)
        if cfg.algorithm == 2:
            return build_candidates_alg2(sol, model, removed, cfg.k)
        return build_candidates_alg3(sol, model, removed, cfg.k)

    return rank


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
    env.remove_batch(model.removed_rows)  # prior removals: already zero-cost
    cap = cfg.max_iterations if cfg.max_iterations is not None else 10 * model.base.m

    t0 = time.perf_counter()
    res = run_removal_loop(
        env,
        ztol=cfg.ztol,
        batch=cfg.use_e1,
        beta=cfg.beta,
        e2_ell=cfg.e2_ell,
        e2_first_iteration_only=cfg.e2_first_iteration_only,
        max_iterations=cap,
    )
    if res.exit_reason in (ExitReason.SINGLETON, ExitReason.BULK_E2):
        # those exits delete without solving; one finishing solve yields
        # the surviving system's solution and the definitive Z
        res.final_solution = env.solve_current()
        res.z_history.append(res.final_z)
        res.lp_count, res.pivots = env.lp_count, env.pivots
        res.degenerate_pivots = env.degenerate_pivots
    res.seconds = time.perf_counter() - t0

    if res.exit_reason is not ExitReason.BULK_E2 and res.final_z > cfg.ztol:
        raise SolverError(f"search ended with Z={res.final_z:.3e} above tolerance")
    return res
