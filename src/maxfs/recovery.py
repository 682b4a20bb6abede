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
pair so its magnitude is no longer penalised.  Two LP shapes support
this:

  split form      the basis-pursuit LP above; deleting j rescales the
                  costs of the pair (u_j, v_j)
  zeroing form    x free with explicit rows x_j + e_j^+ - e_j^- = 0 and
                  penalty costs on e^+/e^-; deleting j zeroes the costs
                  of its e pair, freeing x_j

Methods, named by their selection rule:

  basis_pursuit   one split-form solve
  method_b        probing search on the split form; candidate variables
                  ranked by |u_j - v_j|; deleted pairs keep a residual
                  cost of 0.1; stops when no undeleted variable is
                  nonzero
  method_c        probing search on the zeroing form with two candidate
                  lists (|x_j| and the zeroing-row dual price); deleted
                  pairs cost 0; stops when the penalty objective hits 0
  method_m        basis pursuit first; if its support is already small
                  (fewer than m - 3 nonzeros) keep it, otherwise fall
                  back to method_b
  method_me1e2    batch search on the split form: one solve per round,
                  delete the leading group of the |u_j - v_j| ranking at
                  the first mean change; on the first round only, if at
                  most `ell` variables are nonzero, delete them all and
                  stop (so easy instances cost exactly one LP)
  jokar_pfetsch   reference variant of method_b whose deleted pairs
                  cost 0 and which stops at objective zero

`postprocess` prunes a support set: a variable is dropped when the
remaining support columns still reproduce b without it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
import numpy as np

from .core import Candidate, CandidateKind, CostDeletionEnv, _ranked, run_removal_loop
from .simplex import LpSolution, Sense, SolverError, make_problem

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
DUAL_TOL = 1e-8     # |zeroing-row dual| above this makes a method_c candidate
RESIDUAL_TOL = 1e-6  # every returned y must satisfy ||A y - b||_inf <= this


@dataclass(frozen=True)
class RecoveryProblem:
    """An underdetermined dense system A y = b with m < n."""

    A: np.ndarray
    b: np.ndarray
    zero_tol: float = ZERO_TOL
    ztol: float = 1e-6

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
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
    """

    method: str
    y: np.ndarray
    support: frozenset
    lp_count: int
    iterations: int
    seconds: float
    bp_shortcut_taken: bool = False

    @property
    def T(self) -> int:
        return len(self.support)


def _finish(
    method: str,
    prob: RecoveryProblem,
    y: np.ndarray,
    lp_count: int,
    iterations: int,
    t0: float,
    bp_shortcut_taken: bool = False,
) -> RecoveryResult:
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
        lp_count=lp_count,
        iterations=iterations,
        seconds=time.perf_counter() - t0,
        bp_shortcut_taken=bp_shortcut_taken,
    )


_RANGE_ERROR = "b is not in the range of A: nothing to recover"


def _split_env(prob: RecoveryProblem, deleted_cost: float | None, k: int | None = None):
    """Split form: columns (u, v), y = u - v, entity j owns (u_j, v_j).
    Candidates are the undeleted nonzeros ranked by |y_j|."""
    n = prob.n
    A_lp = np.hstack([prob.A, -prob.A])
    senses = np.full(prob.m, Sense.EQ, dtype=np.int8)
    problem = make_problem(np.ones(2 * n), A_lp, senses, prob.b, lower=np.zeros(2 * n))

    def rank(sol: LpSolution, removed) -> tuple[int, list[Candidate]]:
        y = _split_y(sol)
        pool = _ranked(
            [
                (j, abs(float(y[j])))
                for j in range(n)
                if j not in removed and abs(y[j]) > prob.zero_tol
            ],
            CandidateKind.VALUE,
        )
        return len(pool), pool[:k]

    columns = [(j, n + j) for j in range(n)]
    return CostDeletionEnv(problem, columns, deleted_cost, rank, infeasible=_RANGE_ERROR)


def _split_y(sol: LpSolution) -> np.ndarray:
    n = sol.x.size // 2
    return sol.x[:n] - sol.x[n:]


def _zero_env(prob: RecoveryProblem, k: int | None):
    """Zeroing form: x free, rows x_j + e_j^+ - e_j^- = 0 carry the
    penalties, entity j owns (e_j^+, e_j^-). Candidates are the
    undeleted nonzeros ranked by |x_j|, then those ranked by the dual
    price of their zeroing row; `k` truncates each list."""
    m, n = prob.m, prob.n
    A_lp = np.zeros((m + n, 3 * n))
    A_lp[:m, :n] = prob.A
    A_lp[m:, :n] = np.eye(n)
    A_lp[m:, n : 2 * n] = np.eye(n)
    A_lp[m:, 2 * n :] = -np.eye(n)
    senses = np.full(m + n, Sense.EQ, dtype=np.int8)
    b_lp = np.concatenate([prob.b, np.zeros(n)])
    lower = np.concatenate([np.full(n, -np.inf), np.zeros(2 * n)])
    costs = np.concatenate([np.zeros(n), np.ones(2 * n)])
    problem = make_problem(costs, A_lp, senses, b_lp, lower=lower)

    def rank(sol: LpSolution, removed) -> tuple[int, list[Candidate]]:
        x = sol.x[:n]
        zero_duals = sol.duals[m : m + n]
        vals: list[tuple[int, float]] = []
        duals: list[tuple[int, float]] = []
        for j in range(n):
            if j in removed:
                continue
            if abs(x[j]) > prob.zero_tol:
                vals.append((j, abs(float(x[j]))))
            if abs(zero_duals[j]) > DUAL_TOL:
                duals.append((j, abs(float(zero_duals[j]))))
        l1 = _ranked(vals, CandidateKind.VALUE)[:k]
        l2 = _ranked(duals, CandidateKind.DUAL)[:k]
        seen = {c.entity for c in l1}
        merged = l1 + [c for c in l2 if c.entity not in seen]
        pool = len({j for j, _ in vals} | {j for j, _ in duals})
        return pool, merged

    columns = [(n + j, 2 * n + j) for j in range(n)]
    return CostDeletionEnv(problem, columns, 0.0, rank, infeasible=_RANGE_ERROR)


def basis_pursuit(prob: RecoveryProblem) -> RecoveryResult:
    """Single minimum-l1 solve."""
    t0 = time.perf_counter()
    env = _split_env(prob, deleted_cost=None)  # nothing is deleted
    sol = env.solve_current()
    return _finish("bp", prob, _split_y(sol), env.lp_count, 0, t0)


def _cap(prob: RecoveryProblem) -> int:
    return 10 * prob.n


def method_b(prob: RecoveryProblem, k: int | None = 2) -> RecoveryResult:
    """Greedy probing over split-form pairs, deleted pairs cost 0.1."""
    t0 = time.perf_counter()
    env = _split_env(prob, 0.1, k)
    tel = run_removal_loop(
        env, ztol=prob.ztol, exit_on_empty=True, max_iterations=_cap(prob)
    )
    return _finish("b", prob, _split_y(tel.last_solution), env.lp_count, tel.iterations, t0)


def jokar_pfetsch(prob: RecoveryProblem, k: int | None = None) -> RecoveryResult:
    """Reference probing variant: deleted pairs cost 0, stop at Z = 0."""
    t0 = time.perf_counter()
    env = _split_env(prob, 0.0, k)
    tel = run_removal_loop(env, ztol=prob.ztol, max_iterations=_cap(prob))
    return _finish("jp", prob, _split_y(tel.last_solution), env.lp_count, tel.iterations, t0)


def method_c(prob: RecoveryProblem, k: int | None = 2) -> RecoveryResult:
    """Greedy probing over the zeroing form, stop at penalty zero."""
    t0 = time.perf_counter()
    env = _zero_env(prob, k)
    tel = run_removal_loop(env, ztol=prob.ztol, max_iterations=_cap(prob))
    y = tel.last_solution.x[: prob.n].copy()
    return _finish("c", prob, y, env.lp_count, tel.iterations, t0)


def method_m(prob: RecoveryProblem, k: int | None = 2) -> RecoveryResult:
    """Basis pursuit when its support is already sparse, method_b otherwise.

    The cheap solve is kept whenever it has fewer than m - 3 nonzeros;
    denser first solutions usually mean l1 failed and the full search is
    worth its cost.
    """
    t0 = time.perf_counter()
    bp = basis_pursuit(prob)
    if bp.T < prob.m - 3:
        return _finish("m", prob, bp.y, 1, 0, t0, bp_shortcut_taken=True)
    b = method_b(prob, k=k)
    return _finish("m", prob, b.y, 1 + b.lp_count, b.iterations, t0)


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
    e2 = ell if ell >= 1 else None
    env = _split_env(prob, 0.1)
    tel = run_removal_loop(
        env,
        ztol=prob.ztol,
        batch=True,
        exit_on_empty=True,
        e2_ell=e2,
        e2_first_iteration_only=True,
        max_iterations=_cap(prob),
    )
    return _finish(
        "me1e2", prob, _split_y(tel.last_solution), env.lp_count, tel.iterations, t0
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
