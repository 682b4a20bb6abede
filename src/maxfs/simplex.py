"""Bounded-variable revised simplex over dense matrices.

Solves   min c.x   s.t.   A x {<=,=,>=} b,   l <= x <= u
with +-inf bounds allowed. Returns primal values, row duals and reduced
costs.

Design notes:

* One slack column per row (fixed at [0,0] for equality rows) plus one
  artificial column per row brings the working matrix to n + 2m columns.
  Columns n..n+2m are all unit vectors, so the matrix [A | I | I] is
  never materialised; pricing needs a single A.T @ y.
* The basis inverse is kept explicitly and updated by an elementary
  (product-form) transformation per pivot, with a full refactorisation
  every `refactor_every` pivots. Fine at the dense desk scale this
  package targets (hundreds of rows).
* Phase 1 minimises the total artificial magnitude. A crash step first
  assigns each row's residual to its slack or to a singleton structural
  column when bounds allow, so elastic constructions (every row carries
  a dedicated penalty column) normally start feasible and skip phase 1
  entirely.
* Cost-only re-solves keep the current basis and primal values, which
  stay feasible, and continue phase 2 from there. `save_state` and
  `load_state` snapshot and restore that state, so a caller can try a
  cost change and return to the incumbent basis without refactoring.
  A solve that proves the LP infeasible leaves no state behind; the
  next solve starts cold.
* Anti-cycling: Dantzig pricing by default, switching to Bland's rule
  after `bland_after` consecutive degenerate pivots, back on progress.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

# Nonbasic/basic variable states.
NB_LOWER = 0
NB_UPPER = 1
NB_FREE = 2
BASIC = 3


class Sense(IntEnum):
    LE = -1
    EQ = 0
    GE = 1


SENSE_TOKENS = {Sense.LE: "<=", Sense.EQ: "=", Sense.GE: ">="}
TOKEN_SENSES = {"<=": Sense.LE, "=": Sense.EQ, ">=": Sense.GE}


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class SolverError(RuntimeError):
    """Numerical failure or iteration-limit hit inside the simplex."""


@dataclass(frozen=True)
class LpStructure:
    """Everything about an LP except its objective."""

    A: np.ndarray
    senses: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class LpProblem:
    """Objective vector plus a shared structure reference.

    Problems that share a structure object differ only in costs; the
    solver exploits that to re-solve from the incumbent basis.
    """

    c: np.ndarray
    structure: LpStructure

    @property
    def A(self) -> np.ndarray:
        return self.structure.A

    @property
    def senses(self) -> np.ndarray:
        return self.structure.senses

    @property
    def b(self) -> np.ndarray:
        return self.structure.b

    @property
    def lower(self) -> np.ndarray:
        return self.structure.lower

    @property
    def upper(self) -> np.ndarray:
        return self.structure.upper

    @property
    def m(self) -> int:
        return self.structure.m

    @property
    def n(self) -> int:
        return self.structure.n

    def with_costs(self, c) -> "LpProblem":
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n,):
            raise ValueError(f"cost vector has shape {c.shape}, expected ({self.n},)")
        return LpProblem(c=c, structure=self.structure)


def make_problem(c, A, senses, b, lower=None, upper=None) -> LpProblem:
    """Validate arrays and build an LpProblem. Default bounds are free."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-d array")
    m, n = A.shape
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    senses = np.asarray([Sense(int(s)) for s in np.asarray(senses).ravel()], dtype=np.int8)
    if c.shape != (n,):
        raise ValueError(f"c has shape {c.shape}, expected ({n},)")
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    if senses.shape != (m,):
        raise ValueError(f"senses has shape {senses.shape}, expected ({m},)")
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bound vectors must have length n")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValueError("A, b and c must be finite")
    structure = LpStructure(A=A, senses=senses, b=b, lower=lower, upper=upper)
    return LpProblem(c=c, structure=structure)


@dataclass
class LpSolution:
    status: LpStatus
    z: float
    x: np.ndarray             # structural variables only
    duals: np.ndarray         # one per row
    reduced_costs: np.ndarray  # structural variables only
    iterations: int


@dataclass
class SolverOptions:
    primal_tol: float = 1e-8
    dual_tol: float = 1e-8
    pivot_tol: float = 1e-9
    infeas_tol: float = 1e-7      # phase-1 objective above this (scaled) is infeasible
    refactor_every: int = 64
    bland_after: int = 40         # consecutive degenerate pivots before Bland's rule
    max_iterations: int = 500_000


@dataclass
class _Snapshot:
    basis: np.ndarray
    vstat: np.ndarray
    x: np.ndarray
    binv: np.ndarray
    pivots_since_refactor: int


class SimplexSolver:
    """Stateful engine. One instance drives one LP structure at a time;
    binding a new structure resets the workspace."""

    def __init__(self, options: SolverOptions | None = None):
        self.opts = options or SolverOptions()
        self._structure: LpStructure | None = None
        self._have_state = False

    # ------------------------------------------------------------------
    # public API

    def solve(self, problem: LpProblem) -> LpSolution:
        """Solve `problem`. A prior solve on the same structure object
        restarts from that basis instead of scratch."""
        if self._structure is not problem.structure:
            self._bind(problem.structure)
        self._set_costs(problem.c)
        self._total_iterations = 0
        if not self._have_state and not self._cold_start():
            return self._solution(problem, LpStatus.INFEASIBLE)
        status = self._optimize(phase=2)
        return self._solution(problem, status)

    def save_state(self) -> "_Snapshot":
        """Full state snapshot (basis, values, factorisation). Restoring
        it is cheap: no refactorisation needed."""
        if not self._have_state:
            raise SolverError("no solved state to save")
        return self._snapshot()

    def load_state(self, snap: "_Snapshot") -> None:
        self._restore(snap)

    # ------------------------------------------------------------------
    # workspace

    def _bind(self, structure: LpStructure) -> None:
        self._structure = structure
        self._have_state = False
        m, n = structure.m, structure.n
        self._m, self._n = m, n
        self._ncols = n + 2 * m
        self._A = structure.A
        self._b = structure.b
        lo = np.empty(self._ncols)
        hi = np.empty(self._ncols)
        lo[:n] = structure.lower
        hi[:n] = structure.upper
        senses = structure.senses
        # slack bounds by sense: LE [0,inf), GE (-inf,0], EQ [0,0]
        slo = np.where(senses == Sense.GE, -np.inf, 0.0)
        shi = np.where(senses == Sense.LE, np.inf, 0.0)
        lo[n:n + m] = slo
        hi[n:n + m] = shi
        lo[n + m:] = 0.0           # artificials closed until phase 1 opens them
        hi[n + m:] = 0.0
        self._lo, self._hi = lo, hi
        self._costs = np.zeros(self._ncols)
        # column index of the single nonzero for singleton structural columns
        nnz = np.count_nonzero(structure.A, axis=0)
        self._singleton_row = np.where(nnz == 1, np.argmax(structure.A != 0.0, axis=0), -1)

    def _set_costs(self, c: np.ndarray) -> None:
        self._costs[: self._n] = c
        self._costs[self._n:] = 0.0

    def _snapshot(self) -> _Snapshot:
        return _Snapshot(
            basis=self._basis.copy(),
            vstat=self._vstat.copy(),
            x=self._x.copy(),
            binv=self._binv.copy(),
            pivots_since_refactor=self._pivots_since_refactor,
        )

    def _restore(self, snap: _Snapshot) -> None:
        self._basis = snap.basis.copy()
        self._vstat = snap.vstat.copy()
        self._x = snap.x.copy()
        self._binv = snap.binv.copy()
        self._pivots_since_refactor = snap.pivots_since_refactor
        self._have_state = True

    def _col(self, j: int) -> np.ndarray:
        if j < self._n:
            return self._A[:, j]
        e = np.zeros(self._m)
        e[(j - self._n) % self._m] = 1.0
        return e

    # ------------------------------------------------------------------
    # starting bases

    def _cold_start(self) -> bool:
        """Crash a starting basis; run phase 1 if artificials are needed.
        Returns False on proven infeasibility, leaving no warm state."""
        m, n = self._m, self._n
        self._lo[n + m:] = 0.0
        self._hi[n + m:] = 0.0
        vstat = np.empty(self._ncols, dtype=np.int8)
        x = np.zeros(self._ncols)
        # structural variables to a finite bound, preferring the lower one
        fin_lo = np.isfinite(self._lo[:n])
        fin_hi = np.isfinite(self._hi[:n])
        vstat[:n] = np.where(fin_lo, NB_LOWER, np.where(fin_hi, NB_UPPER, NB_FREE))
        x[:n] = np.where(fin_lo, self._lo[:n], np.where(fin_hi, self._hi[:n], 0.0))
        # a nonbasic slack sits at whichever of its bounds is zero
        vstat[n:n + m] = np.where(self._structure.senses == Sense.GE, NB_UPPER, NB_LOWER)
        vstat[n + m:] = NB_LOWER
        x[n:] = 0.0

        residual = self._b - self._A @ x[:n]
        basis = np.empty(m, dtype=np.int64)
        art_rows = []
        tol = self.opts.primal_tol
        used = np.zeros(n, dtype=bool)
        for i in range(m):
            r = residual[i]
            s = n + i
            if self._lo[s] - tol <= r <= self._hi[s] + tol:
                basis[i] = s
                vstat[s] = BASIC
                x[s] = r
                continue
            # try a singleton structural column that can absorb the residual
            placed = False
            cand = np.nonzero(self._singleton_row[:n] == i)[0]
            for j in cand:
                if used[j] or vstat[j] == BASIC:
                    continue
                g = self._A[i, j]
                # residual was measured with x[j] at its bound; fold that back in
                val = (r + g * x[j]) / g
                if self._lo[j] - tol <= val <= self._hi[j] + tol:
                    basis[i] = j
                    vstat[j] = BASIC
                    x[j] = val
                    used[j] = True
                    placed = True
                    break
            if placed:
                continue
            a = n + m + i
            basis[i] = a
            vstat[a] = BASIC
            x[a] = r
            if r >= 0.0:
                self._lo[a], self._hi[a] = 0.0, np.inf
            else:
                self._lo[a], self._hi[a] = -np.inf, 0.0
            art_rows.append(i)

        self._basis = basis
        self._vstat = vstat
        self._x = x
        self._pivots_since_refactor = 0
        self._refactor()

        if art_rows:
            phase1_costs = np.zeros(self._ncols)
            for i in art_rows:
                a = n + m + i
                phase1_costs[a] = 1.0 if self._x[a] >= 0.0 else -1.0
            saved = self._costs
            self._costs = phase1_costs
            status = self._optimize(phase=1)
            self._costs = saved
            if status is not LpStatus.OPTIMAL:
                raise SolverError("phase 1 ended in state %s" % status)
            art = np.arange(n + m, n + 2 * m)
            z1 = float(np.abs(self._x[art]).sum())
            scale = 1.0 + float(np.max(np.abs(self._b))) if m else 1.0
            if z1 > self.opts.infeas_tol * scale:
                return False
            self._pivot_out_artificials()
            self._lo[n + m:] = 0.0
            self._hi[n + m:] = 0.0
            self._x[art] = np.where(np.abs(self._x[art]) < tol, 0.0, self._x[art])
        self._have_state = True
        return True

    def _pivot_out_artificials(self) -> None:
        """Swap basic near-zero artificials for real columns so that row
        duals are not pinned to zero by leftovers. Rows with no usable
        pivot are redundant; their artificial stays basic at [0,0]."""
        m, n = self._m, self._n
        for pos in range(m):
            j = self._basis[pos]
            if j < n + m:
                continue
            row = self._binv[pos]
            # alpha_t = row . col(t) for structural and slack columns
            alpha_struct = row @ self._A
            alpha_slack = row
            best = -1
            for t in range(n + m):
                if self._vstat[t] == BASIC:
                    continue
                a = alpha_struct[t] if t < n else alpha_slack[t - n]
                if abs(a) > 1e-7:
                    best = t
                    break
            if best < 0:
                continue
            w = self._binv @ self._col(best)
            self._apply_pivot(best, pos, w)
            self._vstat[j] = NB_LOWER
            self._x[j] = 0.0

    # ------------------------------------------------------------------
    # core iteration

    def _refactor(self) -> None:
        m, n = self._m, self._n
        B = np.empty((m, m))
        for pos, j in enumerate(self._basis):
            B[:, pos] = self._col(j)
        self._binv = np.linalg.inv(B)
        self._pivots_since_refactor = 0
        self._recompute_basics()

    def _recompute_basics(self) -> None:
        m, n = self._m, self._n
        rhs = self._b.copy()
        nonbasic = self._vstat[:n] != BASIC
        vals = self._x[:n] * nonbasic
        nz = np.nonzero(vals)[0]
        if nz.size:
            rhs -= self._A[:, nz] @ vals[nz]
        # nonbasic slacks/artificials sit at a zero bound; no contribution
        self._x[self._basis] = self._binv @ rhs

    def _dual_values(self) -> np.ndarray:
        return self._binv.T @ self._costs[self._basis]

    def _reduced_costs(self, y: np.ndarray) -> np.ndarray:
        n, m = self._n, self._m
        d = np.empty(self._ncols)
        d[:n] = self._costs[:n] - self._A.T @ y
        d[n:n + m] = self._costs[n:n + m] - y
        d[n + m:] = self._costs[n + m:] - y
        return d

    def _optimize(self, phase: int) -> LpStatus:
        opts = self.opts
        m, n = self._m, self._n
        stall = 0
        bland = False
        iters = 0
        just_refactored = False
        movable = (self._hi - self._lo) > 0.0
        art = slice(n + m, n + 2 * m)
        while True:
            iters += 1
            if iters > opts.max_iterations:
                raise SolverError("simplex iteration limit exceeded")
            if self._pivots_since_refactor >= opts.refactor_every:
                self._refactor()
            if phase == 1 and float(np.abs(self._x[art]).sum()) <= 1e-10:
                self._total_iterations += iters
                return LpStatus.OPTIMAL
            y = self._dual_values()
            d = self._reduced_costs(y)
            dtol = opts.dual_tol
            vstat = self._vstat
            can = (
                ((vstat == NB_LOWER) & (d < -dtol))
                | ((vstat == NB_UPPER) & (d > dtol))
                | ((vstat == NB_FREE) & (np.abs(d) > dtol))
            )
            can &= movable
            if not can.any():
                self._total_iterations += iters
                return LpStatus.OPTIMAL
            if bland:
                t = int(np.argmax(can))
            else:
                score = np.where(can, np.abs(d), -1.0)
                t = int(np.argmax(score))
            if vstat[t] == NB_UPPER or (vstat[t] == NB_FREE and d[t] > 0.0):
                sigma = -1.0
            else:
                sigma = 1.0
            w = self._binv @ self._col(t)
            step, blocker, to_upper = self._ratio_test(t, sigma, w, bland)
            if step is None:
                self._total_iterations += iters
                if phase == 1:
                    raise SolverError("unbounded ray in phase 1")
                return LpStatus.UNBOUNDED
            if blocker >= 0 and abs(w[blocker]) < 1e-11:
                # pivot too small to trust; refresh the factorisation once
                if just_refactored:
                    raise SolverError("numerically singular pivot")
                self._refactor()
                just_refactored = True
                continue
            degenerate = step <= 1e-11
            if blocker == -1:
                # bound flip: entering variable runs to its opposite bound
                self._x[self._basis] -= step * sigma * w
                self._x[t] = self._hi[t] if sigma > 0 else self._lo[t]
                self._vstat[t] = NB_UPPER if sigma > 0 else NB_LOWER
            else:
                self._x[self._basis] -= step * sigma * w
                self._x[t] = self._x[t] + sigma * step
                leave = self._basis[blocker]
                self._x[leave] = self._hi[leave] if to_upper else self._lo[leave]
                self._vstat[leave] = NB_UPPER if to_upper else NB_LOWER
                self._apply_pivot(t, blocker, w)
            just_refactored = False
            if degenerate:
                stall += 1
                if stall >= opts.bland_after:
                    bland = True
            else:
                stall = 0
                bland = False

    def _ratio_test(self, t: int, sigma: float, w: np.ndarray, bland: bool = False):
        """Return (step, blocker_pos, leaves_to_upper). blocker_pos -1
        means the entering variable's own bound flip binds; step None
        means the ray is unbounded."""
        ptol = self.opts.pivot_tol
        basis = self._basis
        xb = self._x[basis]
        lob = self._lo[basis]
        hib = self._hi[basis]
        delta = -sigma * w  # basic change per unit of entering movement
        ratios = np.full(self._m, np.inf)
        up = delta > ptol
        dn = delta < -ptol
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[up] = (hib[up] - xb[up]) / delta[up]
            ratios[dn] = (lob[dn] - xb[dn]) / delta[dn]
        np.maximum(ratios, 0.0, out=ratios)
        best = float(ratios.min()) if self._m else np.inf
        own = self._hi[t] - self._lo[t]
        if not np.isfinite(own):
            own = np.inf
        if own < best - 1e-12:
            return own, -1, False
        if not np.isfinite(best):
            return (None, None, None)
        tie = ratios <= best + 1e-9 * (1.0 + best)
        idx = np.nonzero(tie)[0]
        if bland:
            # anti-cycling needs the lowest-index leaving variable too,
            # not just the lowest-index entering one
            pos = idx[int(np.argmin(self._basis[idx]))]
        else:
            # among blockers pick the largest pivot magnitude for stability
            pos = idx[int(np.argmax(np.abs(w[idx])))]
        return best, int(pos), bool(delta[pos] > 0)

    def _apply_pivot(self, t: int, pos: int, w: np.ndarray) -> None:
        wr = w[pos]
        if abs(wr) < 1e-12:
            raise SolverError("zero pivot")
        br = self._binv[pos] / wr
        self._binv -= np.outer(w, br)
        self._binv[pos] = br
        self._basis[pos] = t
        self._vstat[t] = BASIC
        self._pivots_since_refactor += 1

    # ------------------------------------------------------------------
    # results

    def _solution(self, problem: LpProblem, status: LpStatus) -> LpSolution:
        n = self._n
        y = self._dual_values()
        d = self._reduced_costs(y)
        x = self._x[:n].copy()
        z = float(problem.c @ x)
        return LpSolution(
            status=status,
            z=z,
            x=x,
            duals=y,
            reduced_costs=d[:n].copy(),
            iterations=self._total_iterations,
        )


def write_lp_text(problem: LpProblem, path) -> None:
    """Dump a problem in LP interchange text format for offline debugging."""
    lines = ["Minimize", " obj: " + _lin_expr(problem.c)]
    lines.append("Subject To")
    for i in range(problem.m):
        op = {Sense.LE: "<=", Sense.EQ: "=", Sense.GE: ">="}[Sense(int(problem.senses[i]))]
        lines.append(f" r{i}: {_lin_expr(problem.A[i])} {op} {problem.b[i]!r}")
    lines.append("Bounds")
    for j in range(problem.n):
        lo, hi = problem.lower[j], problem.upper[j]
        lines.append(f" {_bound_text(lo, hi, j)}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _lin_expr(coeffs: np.ndarray) -> str:
    parts = []
    for j, v in enumerate(coeffs):
        if v == 0.0:
            continue
        sign = "+" if v >= 0 else "-"
        parts.append(f"{sign} {abs(float(v))!r} x{j}")
    if not parts:
        return "0"
    return " ".join(parts).lstrip("+ ")


def _bound_text(lo: float, hi: float, j: int) -> str:
    if lo == -np.inf and hi == np.inf:
        return f"x{j} free"
    if lo == hi:
        return f"x{j} = {float(lo)!r}"
    left = "-inf" if lo == -np.inf else repr(float(lo))
    right = "+inf" if hi == np.inf else repr(float(hi))
    return f"{left} <= x{j} <= {right}"
