"""Sparse solutions of underdetermined linear systems via LP.

Given A (m x n, m < n) and b, we want the vector y with the fewest
nonzeros satisfying A y = b.  The convex workhorse is l1 minimization
(basis pursuit): split y into nonnegative parts, y = u - v, and solve

    min sum(u + v)  s.t.  A u - A v = b,  u, v >= 0.

Past the sparsity level where a single l1 solve stops recovering the
planted signal, iterative variants keep going: treat "variable j is
allowed to be nonzero" as a deletion decision and run the greedy
deletion search from `core` (`run_removal_loop` over a
`CostDeletionEnv`) on variables instead of rows.  Deleting a variable
means dropping (or shrinking) the objective coefficients of its column
pair (u_j, v_j) so its magnitude is no longer penalised.  Every method
runs on this one LP, the split form: min sum_j w_j |y_j| s.t. A y = b,
where w_j is 1 until j is deleted.  Its row duals p satisfy
|a_j^T p| <= w_j for each column a_j of A, and |a_j^T p| is the price
of variable j: the dual of the row y_j = 0, were that row written out.

Methods, named by their selection rule:

  basis_pursuit   one split-form solve
  method_b        probing search on the split form; candidate variables
                  ranked by |u_j - v_j|; deleted pairs keep a residual
                  cost of 0.1; stops when no undeleted variable is
                  nonzero
  method_c        probing search with two candidate lists: nonzeros
                  ranked by |u_j - v_j|, then priced variables ranked
                  by |a_j^T p|; deleted pairs cost 0; stops when the
                  objective hits 0
  method_m        basis pursuit first; if its support is already small
                  (fewer than m - 3 nonzeros) keep it, otherwise fall
                  back to method_b
  method_me1e2    batch search on the split form: one solve per round,
                  delete the head of the |u_j - v_j| ranking, cut at the
                  first mean change (`changepoint.first_mean_change`);
                  deleted pairs cost 0.1; on the first round only, if at
                  most `ell` variables are nonzero, delete them all and
                  stop (so easy instances cost exactly one LP)
  jokar_pfetsch   reference variant of method_b whose deleted pairs
                  cost 0 and which stops at objective zero

The probing methods (b, c, m, jp) take `k`: each round keeps the first
`k` entries of each ranked list, None keeps them all, and k < 1 raises
ValueError.

Every method's first LP is basis pursuit, and every method starts from
the problem's basis-pursuit optimum: the first call on a problem solves
that LP cold and records its optimal basis on the problem (the basis and
column states only, no factorisation), and every call, the first one
too, installs that basis and prices it, with no pivot when it is still
optimal. The pivots of the cold solve count toward each call's first
LP, so a method's counts and results do not depend on which methods ran
on the problem before it; only its time does.

`postprocess` prunes a support set: a variable is dropped when the
remaining support columns still reproduce b without it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import (
    DUAL_TOL,
    CostDeletionEnv,
    MaxFsResult,
    _check_k,
    rank_candidates,
    run_removal_loop,
)
from .simplex import (
    Basis,
    LpProblem,
    LpSolution,
    LpStatus,
    Sense,
    SimplexSolver,
    SolverError,
    make_problem,
)

__all__ = [
    "RecoveryProblem",
    "RecoveryResult",
    "basis_pursuit",
    "jokar_pfetsch",
    "method_b",
    "method_c",
    "method_m",
    "method_me1e2",
    "postprocess",
]

ZERO_TOL = 1e-7     # |value| above this counts as a nonzero
# DUAL_TOL (from core): |a_j^T p| above it puts j on method_c's dual list
RESIDUAL_TOL = 1e-6  # every returned y must satisfy ||A y - b||_inf <= this


@dataclass(frozen=True)
class RecoveryProblem:
    """An underdetermined dense system A y = b with m < n.

    `A` and `b` are read-only copies of the caller's arrays, since the
    basis-pursuit optimum recorded on first use (`_bp`) holds only while
    they stay as they are; `dataclasses.replace` starts a new record."""

    A: np.ndarray
    b: np.ndarray
    zero_tol: float = ZERO_TOL
    ztol: float = 1e-6
    _bp: Basis | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be 2-d")
        m, n = A.shape
        if m < 1:
            raise ValueError("A needs at least one row")
        if m >= n:
            raise ValueError(f"need more columns than rows, got {m}x{n}")
        if b.shape != (m,):
            raise ValueError("b length must match row count of A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("A and b must be finite")
        A.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class RecoveryResult:
    """A recovered vector and its support.

    The support is the set of entries of `y` larger than the zero
    threshold; off-support entries are below it but may carry solver
    noise. Every result is checked to reproduce b within RESIDUAL_TOL.
    `lp_count`, `pivots` and `degenerate_pivots` count over every LP the
    method solved. The removal-loop methods record each round:
    `removal_sizes` counts the variables it deleted and `z_history`
    holds Z after the first solve and after each solved round. Both are
    empty for basis pursuit and the method_m shortcut.
    """

    method: str
    y: np.ndarray
    support: frozenset
    lp_count: int
    pivots: int
    degenerate_pivots: int
    iterations: int
    seconds: float
    bp_shortcut_taken: bool = False
    removal_sizes: tuple = ()
    z_history: tuple = ()

    @property
    def T(self) -> int:
        return len(self.support)


def _finish(
    method: str,
    prob: RecoveryProblem,
    y: np.ndarray,
    t0: float,
    env: CostDeletionEnv,
    search: MaxFsResult | None = None,
) -> RecoveryResult:
    """Check y and wrap it with the counts of `env`, whose LPs made it,
    and the rounds of its search; basis pursuit has no search."""
    # y keeps its sub-threshold noise: zeroing it could break A y = b
    # at tight tolerance; the support ignores it instead
    resid = float(np.max(np.abs(prob.A @ y - prob.b)))
    if resid > RESIDUAL_TOL:
        raise SolverError(f"{method}: recovered vector misses b by {resid:.3e}")
    support = frozenset(int(j) for j in np.flatnonzero(np.abs(y) > prob.zero_tol))
    return RecoveryResult(
        method=method,
        y=y,
        support=support,
        lp_count=env.lp_count,
        pivots=env.pivots,
        degenerate_pivots=env.degenerate_pivots,
        iterations=search.iterations if search else 0,
        seconds=time.perf_counter() - t0,
        removal_sizes=tuple(search.removal_sizes) if search else (),
        z_history=tuple(search.z_history) if search else (),
    )


_RANGE_ERROR = "b is not in the range of A: nothing to recover"


def _split_env(
    prob: RecoveryProblem,
    deleted_cost: float | None,
    k: int | None = None,
    dual_list: bool = False,
):
    """Split form: columns (u, v), y = u - v, entity j owns (u_j, v_j).
    Candidates are the undeleted nonzeros ranked by |y_j|; with
    `dual_list`, then those with |a_j^T p| above DUAL_TOL ranked by it,
    p the row duals. `k` truncates each list. The first solve starts
    from the basis-pursuit optimum (`_bp_optimum`)."""
    _check_k(k)
    n = prob.n
    A_lp = np.hstack([prob.A, -prob.A])
    senses = np.full(prob.m, Sense.EQ, dtype=np.int8)
    problem = make_problem(np.ones(2 * n), A_lp, senses, prob.b, lower=np.zeros(2 * n))
    engine = SimplexSolver()

    def rank(sol: LpSolution, removed):
        y = np.abs(_split_y(sol))
        lists = [(y, y > prob.zero_tol)]
        if dual_list:
            d = np.abs(prob.A.T.dot(sol.duals))
            lists.append((d, d > DUAL_TOL))
        return rank_candidates(lists, removed, k)

    columns = [(j, n + j) for j in range(n)]
    start = partial(_bp_optimum, prob, problem, engine)
    return CostDeletionEnv(problem, columns, deleted_cost, rank, engine, _RANGE_ERROR, start)


def _bp_optimum(prob: RecoveryProblem, problem: LpProblem, engine: SimplexSolver) -> Basis:
    """The basis-pursuit optimum recorded on `prob`; the first call
    fills the record by a cold solve of `problem`, the split form at
    unit costs, on `engine`."""
    if prob._bp is None:
        # Z >= 0 bounds the split form below: only infeasibility stops it
        if engine.solve(problem).status is not LpStatus.OPTIMAL:
            raise ValueError(_RANGE_ERROR)
        object.__setattr__(prob, "_bp", engine.basis())
    return prob._bp


def _split_y(sol: LpSolution) -> np.ndarray:
    n = sol.x.size // 2
    return sol.x[:n] - sol.x[n:]


def basis_pursuit(prob: RecoveryProblem) -> RecoveryResult:
    """Single minimum-l1 solve."""
    t0 = time.perf_counter()
    env = _split_env(prob, deleted_cost=None)  # nothing is deleted
    sol = env.solve_current()
    return _finish("bp", prob, _split_y(sol), t0, env)


def _search(method: str, prob: RecoveryProblem, env, t0: float, **loop) -> RecoveryResult:
    """Run the removal loop on `env`, capped at 10 n rounds; y is read
    from its last solution."""
    res = run_removal_loop(env, ztol=prob.ztol, max_iterations=10 * prob.n, **loop)
    return _finish(method, prob, _split_y(res.final_solution), t0, env, res)


def method_b(prob: RecoveryProblem, k: int | None = 2) -> RecoveryResult:
    """Greedy probing over split-form pairs, deleted pairs cost 0.1."""
    t0 = time.perf_counter()
    return _search("b", prob, _split_env(prob, 0.1, k), t0, exit_on_empty=True)


def jokar_pfetsch(prob: RecoveryProblem, k: int | None = None) -> RecoveryResult:
    """Reference probing variant: deleted pairs cost 0, stop at Z = 0."""
    t0 = time.perf_counter()
    return _search("jp", prob, _split_env(prob, 0.0, k), t0)


def method_c(prob: RecoveryProblem, k: int | None = 2) -> RecoveryResult:
    """Greedy probing over nonzeros and priced variables, deleted pairs
    cost 0, stop at Z = 0."""
    t0 = time.perf_counter()
    return _search("c", prob, _split_env(prob, 0.0, k, dual_list=True), t0)


def method_m(prob: RecoveryProblem, k: int | None = 2) -> RecoveryResult:
    """Basis pursuit when its support is already sparse, method_b otherwise.

    The cheap solve is kept whenever it has fewer than m - 3 nonzeros;
    denser first solutions usually mean l1 failed and the full search is
    worth its cost.
    """
    _check_k(k)
    t0 = time.perf_counter()
    bp = basis_pursuit(prob)
    if bp.T < prob.m - 3:
        return replace(bp, method="m", bp_shortcut_taken=True, seconds=time.perf_counter() - t0)
    # method_b's first LP is the one basis pursuit solved: its counts
    # hold that LP once
    return replace(method_b(prob, k=k), method="m", seconds=time.perf_counter() - t0)


def method_me1e2(prob: RecoveryProblem, ell: int | None = None) -> RecoveryResult:
    """Batch removal on the split form.

    One LP per round; the leading group of the |u_j - v_j| ranking is
    deleted wholesale at the first mean change. A first-round bulk exit
    fires when at most `ell` variables are nonzero (default m - 3),
    which collapses every basis-pursuit-recoverable instance to one LP.
    """
    t0 = time.perf_counter()
    if ell is None:
        ell = prob.m - 3
    return _search(
        "me1e2",
        prob,
        _split_env(prob, 0.1),
        t0,
        batch=True,
        exit_on_empty=True,
        e2_ell=ell if ell >= 1 else None,
        e2_first_iteration_only=True,
    )


def postprocess(prob: RecoveryProblem, support) -> frozenset:
    """Drop support variables whose removal keeps A y = b solvable.

    Variables are tested in ascending order; each drop is kept before
    testing the next, so the result is a (possibly non-unique) minimal
    subset under sequential pruning.
    """
    keep = sorted(int(j) for j in support)
    tol = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(prob.b))))
    for j in list(keep):
        trial = [c for c in keep if c != j]
        if _solvable_on(prob, trial, tol):
            keep = trial
    return frozenset(keep)


def _solvable_on(prob: RecoveryProblem, cols: list[int], tol: float) -> bool:
    if not cols:
        return bool(np.all(np.abs(prob.b) <= tol))
    sub = prob.A[:, cols]
    x, *_ = np.linalg.lstsq(sub, prob.b, rcond=None)
    return bool(np.max(np.abs(sub @ x - prob.b)) <= tol)
