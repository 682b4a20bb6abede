"""Bounded-variable revised simplex over dense matrices.

Solves   min c.x   s.t.   A x {<=,=,>=} b,   l <= x <= u
with +-inf bounds allowed. Returns primal values, row duals and reduced
costs.

Design notes:

* One slack column per row (fixed at [0,0] for equality rows) plus one
  artificial column per row brings the working matrix to n + 2m columns.
  Columns n..n+2m are all unit vectors, so the matrix [A | I | I] is
  never materialised; pricing needs A.T y over the dense structural
  columns only, and one product per singleton structural column.
* The basis is kept block-triangular. Every basic singleton column
  (a slack, an artificial, or a structural column with one nonzero)
  owns its row; the k dense basic columns C meet the k rows no
  singleton owns in a k x k kernel K, whose inverse is kept
  explicitly. Solves with B or B^T cost O(m k + k^2), a refactor is a
  gather plus inv(K), and each pivot updates K^-1 in O(m + k^2) by one
  of three moves: a product-form column swap (dense for dense), a
  bordering (dense for singleton) or a Sherman-Morrison row swap
  (singleton for singleton on another row). The fourth kind, a
  singleton for a dense column, is rare enough to rebuild K^-1 instead.
  An elastic LP keeps k near its structural count n; a fully dense
  basis is the case k = m of the same formulas. K^-1 is rebuilt every
  REFACTOR_EVERY pivots.
* Cold starts. A crash step assigns each row's residual to its slack
  or to a singleton structural column when bounds allow, and otherwise
  to the row's artificial, which stays fixed at [0,0] and so starts
  basic out of bounds. Elastic constructions (every row carries a
  dedicated penalty column) start feasible and go straight to the
  primal simplex. Otherwise a dual simplex (Koberstein 2005) runs from
  the crash basis: costs shifted where a reduced cost has the wrong
  sign make that basis dual feasible (the split form of sparse
  recovery, all artificials with y = 0 and d = c >= 0, needs no
  shift), each iteration sends the most violated basic variable to its
  bound, and the primal simplex then finishes under the true costs from
  the primal-feasible basis the dual one ends at.
* Cost-only re-solves keep the current basis and primal values, which
  stay feasible, and continue the primal simplex from there.
  `save_state` and `load_state` snapshot and restore that state, so a
  caller can try a cost change and return to the incumbent basis
  without refactoring.
  A snapshot holds O(m k + k^2) numbers and fits only the structure it
  was taken on. A solve that proves the LP infeasible leaves no state
  behind; the next solve starts cold.
* Starts from a given basis. `solve(problem, start)` takes a `Basis`,
  as `basis()` returns it after a solve: the basic column of each
  position and the state of every column, O(m + n) small integers with
  no factorisation, usable on any structure of the same shape. The
  nonbasic columns go to their bounds, K^-1 is rebuilt and the basic
  values recomputed, and the primal simplex goes on from there, so a
  basis that is still optimal costs one pricing pass and no pivot. A
  singular basis (K's 1-norm condition number above START_COND) or one
  whose values miss their bounds by more than a cold start accepts
  gives way to a cold start. Sparse recovery keeps its basis-pursuit
  optimum so, and starts every method from it.
* Long steps over kinks (Fourer 1985, "A simplex algorithm for
  piecewise-linear programming I"; the primal twin of the dual
  bound-flipping ratio test). A kink pair is two singleton columns on
  one row, structural or slack, each with one finite bound at 0, the
  second lam = +-1 times the first and covering, scaled by lam, the
  other half line: a GE row's slack and +e elastic (lam = 1), an LE
  row's slack and -e elastic (lam = -1), an equality's e+/e- (lam = -1;
  its [0,0] slack is no member), and the same on FULL-mode bound rows.
  Together they are one free variable whose cost has a kink at 0,
  convex when rho_j + rho_j' >= 0 (rho = cost x side, side +1 for
  [0, inf) and -1 for (-inf, 0]). When the ratio test stops at a convex
  kink after a positive step, the step goes on past the kinks below the
  first other blocker and the entering bound, in ratio order, while the
  objective still falls; passing one hands its basis position to the
  partner column with the value times lam and leaves K^-1 alone. Two
  cases stay out because they measured worse: a kink at a zero step
  (passing those cycled through thousands of degenerate pivots) and
  the dense split pairs (u_j, v_j) of sparse recovery, whose swap
  would flip a kernel column (it raised basis-pursuit pivots by about
  a quarter, most of them degenerate). Bland's rule never passes a kink.
  A structure with no pairs, such as the split form with its fixed
  equality slacks, skips the walk on one flag.
* Anti-cycling: Dantzig pricing by default, switching to Bland's rule
  after BLAND_AFTER consecutive degenerate pivots, back on progress.
  The dual simplex does the same with dual steps, and its cost shift
  leaves a small random margin on each shifted reduced cost so that
  ties, and so degenerate dual steps, are rare.
* One primal iteration solves B^T y = c_B, prices d = c - A^T y over
  every column, takes the eligible column t with the largest |d_t|,
  solves B w = a_t, runs the ratio test over the m basic values, moves
  the values and updates K^-1. A dual iteration takes the most violated
  basic row r instead, forms row r of B^-1 A from B^T v = e_r and the
  same products, runs the dual ratio test over the columns that can
  move the right way, and updates d in place. On a full kernel each
  step is one or a few numpy calls on arrays of length m, k^2 or
  n + 2m, so a pivot costs about as much in call overhead as in
  arithmetic; the bookkeeping below keeps the calls per iteration few.
* Entering eligibility is kept in step with the basis instead of being
  rebuilt from the column states at every pass: `_price` holds, per
  column, -1 at a lower and +1 at an upper bound when the column can
  move, and 0 when it is basic, fixed or free; `_free_nb` lists the
  free nonbasic columns, priced apart. Pricing is then one product
  price * d (an eligible column scores |d_j| > DUAL_TOL), and the dual
  loop's candidates are the sign of price * alpha. Every change of
  column state goes through `_to_bound` (a column leaves or flips),
  `_apply_pivot` (a column enters) or `_pass_kinks`. A cold start and
  a start basis build both arrays from the column states (`_take_basis`)
  and a snapshot copies them, so `load_state` restores them with the
  basis. What depends only on the bounds (which columns can move, which
  are free, the cost shift's random margins) is computed once per
  structure. A primal pivot with an exactly zero step moves no value,
  so the value update is skipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

# a crash value may pass its bound by PRIMAL_TOL, and the dual simplex
# sends out only basic values past their bounds by more
PRIMAL_TOL = 1e-8
# a column may enter only when its |reduced cost| exceeds DUAL_TOL; a
# long step stops passing kinks once the slope rises to -DUAL_TOL
DUAL_TOL = 1e-8
# a basic column whose |change per unit step| is at most PIVOT_TOL
# never blocks the ratio test
PIVOT_TOL = 1e-9
# a cold start proves infeasibility when a basic value past its bound by
# more than INFEAS_TOL * (1 + max|b|) has no column that can move it
# back; a smaller violation that no column can remove is accepted, so
# the basis it hands on may miss its bounds by that much
INFEAS_TOL = 1e-7
# a cold start's dual simplex gives each reduced cost of the crash basis
# a margin of at least COST_PERTURB * (1 + |c_j|) on its right side
COST_PERTURB = 1e-7
# a start basis (`SimplexSolver.solve`) whose kernel K has a 1-norm
# condition number above START_COND counts as singular
START_COND = 1e12
# pivots between rebuilds of the factorisation
REFACTOR_EVERY = 64
# consecutive degenerate pivots before Bland's rule takes over
BLAND_AFTER = 40
# iterations of the dual or the primal simplex before the solve raises
# SolverError
MAX_ITERATIONS = 500_000

# Nonbasic/basic variable states.
NB_LOWER = 0
NB_UPPER = 1
NB_FREE = 2
BASIC = 3

# by state, the sign of reduced cost that lets a movable column enter:
# below zero at its lower bound, above zero at its upper bound. Free
# nonbasic columns are priced apart and basic ones never enter (0)
_PRICE_SIGN = np.array([-1.0, 1.0, 0.0, 0.0])


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
    # what this solve did: basis changes, entering-variable bound flips,
    # basis changes with a zero step, rebuilds of the factorisation, and
    # kinks a step passed without a pivot
    pivots: int = 0
    bound_flips: int = 0
    degenerate_pivots: int = 0
    refactors: int = 0
    kink_passes: int = 0


@dataclass(frozen=True)
class Basis:
    """A basis to start a solve from (`SimplexSolver.solve`'s `start`),
    over the engine's n + 2m columns (structural, slack, artificial):
    the basic column of each position and every column's state, plus
    the pivots and degenerate pivots of the solve that reached it. No
    factorisation: a start refactors."""

    basis: np.ndarray
    vstat: np.ndarray
    pivots: int
    degenerate_pivots: int


# the engine arrays a snapshot copies: basis, values, entering
# eligibility and factorisation (and the used rows of `_ct`)
_STATE = ("_basis", "_vstat", "_x", "_price", "_free_nb", "_prow", "_pval", "_rowpos",
          "_slot", "_dpos", "_krow", "_kinv")


@dataclass
class _Snapshot:
    structure: LpStructure
    arrays: dict
    pivots_since_refactor: int


class SimplexSolver:
    """Stateful engine. One instance drives one LP structure at a time;
    binding a new structure resets the workspace.

    The basis factorisation, position by position (see the module
    notes): `_prow[p]` is the row position p owns when its column is a
    singleton of value `_pval[p]`, and the kernel row paired with it
    when the column is dense (`_pval[p]` is then 1); `_rowpos` inverts
    `_prow`. The k dense positions sit in kernel slots: slot s holds
    position `_dpos[s]` (`_slot` maps back, -1 for a singleton), its
    kernel row `_krow[s] = _prow[_dpos[s]]`, its column `_ct[s]` (C
    transposed, rows beyond k are spare capacity) and row s of
    `_kinv`, the inverse of K[s, t] = C[_krow[s], t].

    Column states and eligibility: `_vstat[j]` is NB_LOWER, NB_UPPER,
    NB_FREE or BASIC and `_x[j]` the value. `_price[j]` is the sign of
    reduced cost that lets j enter (-1 at lower, +1 at upper, 0 when
    basic, fixed or free) and `_free_nb` the free nonbasic columns;
    both change with `_vstat` at every status change and are rebuilt
    only when a basis is taken whole (`_take_basis`). `_movable`,
    `_free` and `_margins` depend on the bounds alone and are set when
    a structure is bound.
    """

    def __init__(self):
        self._structure: LpStructure | None = None
        self._have_state = False

    # ------------------------------------------------------------------
    # public API

    def solve(self, problem: LpProblem, start: Basis | None = None) -> LpSolution:
        """Solve `problem`. A prior solve on the same structure object
        restarts from that basis instead of scratch. With `start`, the
        solve begins from that basis instead (see `_install_basis`)."""
        if self._structure is not problem.structure:
            self._bind(problem.structure)
        self._costs[: self._n] = problem.c
        self._total_iterations = 0
        self._pivots = self._bound_flips = self._degenerate = self._refactors = 0
        self._kink_passes = 0
        if start is not None:
            self._have_state = self._install_basis(start)
        if not self._have_state and not self._cold_start():
            y = self._dual_values()
            return self._solution(problem, LpStatus.INFEASIBLE, y, self._reduced_costs(y))
        return self._solution(problem, *self._optimize())

    def basis(self) -> Basis:
        """The basis the last solve ended at, with that solve's pivots."""
        if not self._have_state:
            raise SolverError("no solved state to read")
        return Basis(self._basis.copy(), self._vstat.copy(), self._pivots, self._degenerate)

    def save_state(self) -> "_Snapshot":
        """Full state snapshot (basis, values, factorisation). Restoring
        it is cheap: no refactorisation needed."""
        if not self._have_state:
            raise SolverError("no solved state to save")
        return _Snapshot(
            structure=self._structure,
            arrays={name: getattr(self, name).copy() for name in _STATE}
            | {"_ct": self._ct[: self._k].copy()},
            pivots_since_refactor=self._pivots_since_refactor,
        )

    def load_state(self, snap: "_Snapshot") -> None:
        """Restore a snapshot taken on the structure this engine holds;
        one taken on another structure raises ValueError."""
        if snap.structure is not self._structure:
            raise ValueError("snapshot was taken on another LP structure")
        for name, arr in snap.arrays.items():
            setattr(self, name, arr.copy())
        self._pivots_since_refactor = snap.pivots_since_refactor
        self._have_state = True

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
        lo[n + m:] = 0.0           # artificials are fixed at 0
        hi[n + m:] = 0.0
        self._lo, self._hi = lo, hi
        # 1.0 for a column that can move, 0.0 for a fixed one
        self._movable = ((hi - lo) > 0.0).astype(float)
        self._free = np.flatnonzero(np.isneginf(lo) & np.isposinf(hi))
        self._costs = np.zeros(self._ncols)   # slacks and artificials cost 0
        self._ratios = np.empty(m)
        # the dual simplex's cost-shift margins, one draw per column
        self._margins = np.random.default_rng(0).uniform(1.0, 2.0, self._ncols)
        # every column's singleton row (-1: dense) and its value there;
        # slacks and artificials are unit columns
        nnz = np.count_nonzero(structure.A, axis=0)
        srow = np.where(nnz == 1, np.argmax(structure.A != 0.0, axis=0), -1)
        rows = np.arange(m)
        self._colrow = np.concatenate([srow, rows, rows])
        self._colval = np.ones(self._ncols)
        single = np.flatnonzero(srow >= 0)
        self._colval[single] = structure.A[srow[single], single]
        # pricing: one product with the dense structural columns, one
        # elementwise term for the singleton ones
        dense = np.flatnonzero(srow < 0)
        self._dense_At = np.ascontiguousarray(structure.A[:, dense].T)
        self._dense_cols = _as_slice(dense)
        self._single_cols = _as_slice(single) if single.size else None
        self._single_rows = srow[single]
        self._single_vals = self._colval[single]
        # the crash's candidates: singleton structural columns by row,
        # lowest index first within a row
        self._row_singles = single[np.argsort(self._single_rows, kind="stable")]
        self._bind_kinks()

    def _bind_kinks(self) -> None:
        """Find the kink pairs: the two singleton structural or slack
        columns of a row, each with one finite bound at 0, the second
        equal to lam times the first (lam = +-1) and, scaled so, covering
        the other half line. `_partner[j]` is j's partner (-1: none),
        `_lam[j]` the factor, `_side[j]` +1 for [0, inf) and -1 for
        (-inf, 0]."""
        m, nc = self._m, self._n + self._m
        lo, hi = self._lo[:nc], self._hi[:nc]
        up, down = (lo == 0.0) & (hi == np.inf), (lo == -np.inf) & (hi == 0.0)
        cand = np.flatnonzero((self._colrow[:nc] >= 0) & (up | down))
        rows = self._colrow[cand]
        cand = cand[np.bincount(rows, minlength=m)[rows] == 2]
        cand = cand[np.argsort(self._colrow[cand], kind="stable")]
        j, jp = cand[0::2], cand[1::2]
        lam = np.where(self._colval[jp] == self._colval[j], 1.0, -1.0)
        side = np.where(up, 1.0, -1.0)
        ok = (np.abs(self._colval[jp]) == np.abs(self._colval[j])) & (side[j] == -lam * side[jp])
        j, jp, lam = j[ok], jp[ok], lam[ok]
        self._partner = np.full(self._ncols, -1, dtype=np.intp)
        self._partner[j], self._partner[jp] = jp, j
        self._lam = np.ones(self._ncols)
        self._lam[j] = self._lam[jp] = lam
        self._side = np.zeros(self._ncols)
        self._side[:nc] = side
        self._kinks = j.size > 0

    def _install(self, prow: np.ndarray, pval: np.ndarray, dpos: np.ndarray) -> None:
        """Set the position maps and gather C; `_kinv` is the caller's."""
        m = self._m
        k = dpos.size
        self._prow, self._pval, self._dpos = prow, pval, dpos
        self._rowpos = np.empty(m, dtype=np.intp)
        self._rowpos[prow] = np.arange(m)
        self._slot = np.full(m, -1, dtype=np.intp)
        self._slot[dpos] = np.arange(k)
        self._krow = prow[dpos]
        self._ct = np.empty((min(m, max(2 * k, 8)), m))
        self._ct[:k] = self._A[:, self._basis[dpos]].T

    def _col(self, j: int) -> np.ndarray:
        if j < self._n:
            return self._A[:, j]
        e = np.zeros(self._m)
        e[(j - self._n) % self._m] = 1.0
        return e

    # ------------------------------------------------------------------
    # starting bases

    def _install_basis(self, start: Basis) -> bool:
        """Take `start`'s basis and column states, nonbasic columns at
        their bounds; refactor and recompute the basic values. Returns
        False, so that the solve starts cold, when that basis is singular
        (see START_COND) or a basic value misses its bounds by more than
        a cold start accepts (INFEAS_TOL * (1 + max|b|))."""
        if start.basis.shape != (self._m,) or start.vstat.shape != (self._ncols,):
            raise ValueError("start basis does not fit this LP structure")
        basis, vstat = start.basis.copy(), start.vstat.copy()
        x = np.where(vstat == NB_LOWER, self._lo, np.where(vstat == NB_UPPER, self._hi, 0.0))
        try:
            self._take_basis(basis, vstat, x)
        except SolverError:
            return False
        k = self._k
        knorm = np.abs(self._ct[:k, self._krow]).sum(axis=1).max(initial=0.0)
        if knorm * np.abs(self._kinv).sum(axis=0).max(initial=0.0) > START_COND:
            return False
        xb = self._x[basis]
        miss = np.maximum(self._lo[basis] - xb, xb - self._hi[basis])
        return bool(miss.max(initial=0.0) <= INFEAS_TOL * (1.0 + np.abs(self._b).max(initial=0.0)))

    def _cold_start(self) -> bool:
        """Crash a starting basis; when a row needs an artificial, run the
        dual simplex from it to a primal-feasible basis. Returns False on
        proven infeasibility, leaving no warm state."""
        m, n = self._m, self._n
        lo, hi = self._lo, self._hi
        vstat = np.empty(self._ncols, dtype=np.int8)
        x = np.zeros(self._ncols)
        # structural variables to a finite bound, preferring the lower one
        fin_lo = np.isfinite(lo[:n])
        fin_hi = np.isfinite(hi[:n])
        vstat[:n] = np.where(fin_lo, NB_LOWER, np.where(fin_hi, NB_UPPER, NB_FREE))
        x[:n] = np.where(fin_lo, lo[:n], np.where(fin_hi, hi[:n], 0.0))
        # a nonbasic slack sits at whichever of its bounds is zero
        vstat[n:n + m] = np.where(self._structure.senses == Sense.GE, NB_UPPER, NB_LOWER)
        vstat[n + m:] = NB_LOWER

        # each row's residual goes to its slack when the slack's bounds
        # allow, else to its lowest-index singleton structural column
        # that can absorb it, else to its artificial
        tol = PRIMAL_TOL
        residual = self._b - self._A @ x[:n]
        slack = np.arange(n, n + m)
        fits = (lo[slack] - tol <= residual) & (residual <= hi[slack] + tol)
        basis = np.where(fits, slack, slack + m)
        cand = self._row_singles
        cand = cand[~fits[self._colrow[cand]]]
        g = self._colval[cand]
        # the residual was measured with x[j] at its bound; fold that back in
        val = (residual[self._colrow[cand]] + g * x[cand]) / g
        cand = cand[(lo[cand] - tol <= val) & (val <= hi[cand] + tol)]
        rows = self._colrow[cand]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        basis[rows[first]] = cand[first]
        vstat[basis] = BASIC

        self._take_basis(basis, vstat, x)
        if np.any(basis >= n + m):
            if not self._dual_simplex():
                return False
            self._pivot_out_artificials()
        self._have_state = True
        return True

    def _take_basis(self, basis: np.ndarray, vstat: np.ndarray, x: np.ndarray) -> None:
        """Set the basis, the column states and the nonbasic values, with
        the entering eligibility that follows from them; the refactor
        sets the basic values."""
        self._basis, self._vstat, self._x = basis, vstat, x
        self._price = _PRICE_SIGN[vstat] * self._movable
        self._free_nb = self._free[vstat[self._free] == NB_FREE]
        self._refactor()

    def _dual_simplex(self) -> bool:
        """Dual simplex from the crash basis to a primal-feasible one
        (Koberstein 2005, "The dual simplex method, techniques for a fast
        and stable implementation"). The crash basis has out-of-bounds
        basic artificials, and shifted costs make it dual feasible. Each
        iteration sends the basic variable with the largest bound
        violation to that bound; the entering column, from row r of
        B^-1 A, keeps every reduced cost on its right side, ties to the
        largest pivot. The reduced costs are updated, and recomputed
        after each refactor. The true costs come back at the end, so the
        primal simplex finishes from the feasible basis. Returns False
        when a violation above INFEAS_TOL * (1 + max|b|) has no column to
        remove it: row r of B^-1 A x = B^-1 b then proves the LP
        infeasible whatever the costs."""
        costs = self._costs
        self._costs = shifted = costs.copy()
        d = self._reduced_costs(self._dual_values())
        # each nonbasic movable column whose reduced cost, signed for its
        # bound state, lies below a small random margin takes the cost
        # that puts it there, a free one the cost that zeroes it: the
        # crash basis is then dual feasible, with few ties for the dual
        # ratio test to stall on. Basic and fixed columns have price 0
        sign = -self._price
        target = sign * COST_PERTURB * (1.0 + np.abs(costs)) * self._margins
        shift = sign * (d - target) < 0.0
        free = self._free_nb
        shift[free] = d[free] != 0.0
        shifted[shift] += target[shift] - d[shift]
        d[shift] = target[shift]
        infeasible = INFEAS_TOL * (1.0 + float(np.max(np.abs(self._b))))
        iters = stall = 0
        bland = just_refactored = False
        try:
            while True:
                iters += 1
                if iters > MAX_ITERATIONS:
                    raise SolverError("simplex iteration limit exceeded")
                if self._pivots_since_refactor >= REFACTOR_EVERY:
                    self._refactor()
                    d = self._reduced_costs(self._dual_values())
                basis = self._basis
                xb = self._x[basis]
                below, above = self._lo[basis] - xb, xb - self._hi[basis]
                viol = np.maximum(below, above)
                r = int(viol.argmax())
                if viol[r] <= PRIMAL_TOL:
                    return True
                if bland:
                    # Bland's rule sends the lowest-index variable out
                    out = (viol > PRIMAL_TOL).nonzero()[0]
                    r = int(out[basis[out].argmin()])
                to_upper = bool(above[r] > 0.0)
                alpha = self._pivot_row(r)
                # columns whose move, within their bounds, pushes the
                # leaving variable toward the bound it leaves at: one
                # at its lower bound (price -1) must rise, one at its
                # upper bound (+1) fall, a free one may go either way
                push = self._price * alpha
                can = push < -PIVOT_TOL if to_upper else push > PIVOT_TOL
                free = self._free_nb
                if free.size:
                    can[free] = np.abs(alpha[free]) > PIVOT_TOL
                cand = can.nonzero()[0]
                if cand.size == 0:
                    if viol[r] > infeasible:
                        return False
                    if not bland:
                        return True   # every violation left is below the tolerance
                    stall, bland = 0, False
                    continue
                alpha_c = alpha[cand]
                ratios = np.abs(d[cand] / alpha_c)
                best = float(ratios[ratios.argmin()])
                if bland:
                    i = int((ratios <= best + 1e-9 * (1.0 + best)).argmax())
                else:
                    i = _largest_pivot(ratios, best, alpha_c)
                q = int(cand[i])
                w = self._ftran(self._col(q))
                if abs(w[r]) < 1e-11:
                    if just_refactored:
                        raise SolverError("numerically singular pivot")
                    self._refactor()
                    d = self._reduced_costs(self._dual_values())
                    just_refactored = True
                    continue
                just_refactored = False
                theta_d = d[q] / alpha[q]
                p = basis[r]
                bound = self._hi[p] if to_upper else self._lo[p]
                theta_p = (xb[r] - bound) / w[r]
                self._x[basis] -= theta_p * w
                self._x[q] += theta_p
                self._to_bound(p, to_upper)
                d -= theta_d * alpha
                d[p], d[q] = -theta_d, 0.0
                degenerate = bool(abs(theta_d) <= 1e-11)
                self._pivots += 1
                self._degenerate += degenerate
                self._apply_pivot(q, r, w)
                stall = stall + 1 if degenerate else 0
                bland = stall >= BLAND_AFTER
        finally:
            self._costs = costs
            self._total_iterations += iters

    def _pivot_out_artificials(self) -> None:
        """Swap basic near-zero artificials for real columns so that row
        duals are not pinned to zero by leftovers. Rows with no usable
        pivot are redundant; their artificial stays basic at [0,0]."""
        m, n = self._m, self._n
        for pos in np.flatnonzero(self._basis >= n + m):
            j = self._basis[pos]
            alpha = self._pivot_row(pos)[: n + m]
            # the nonbasic column with the largest pivot enters
            alpha = np.where(self._vstat[: n + m] != BASIC, np.abs(alpha), 0.0)
            t = int(alpha.argmax())
            if alpha[t] <= 1e-7:
                continue
            self._apply_pivot(t, pos, self._ftran(self._col(t)))
            self._to_bound(j, False)

    # ------------------------------------------------------------------
    # core iteration

    def _refactor(self) -> None:
        m = self._m
        rows = self._colrow[self._basis]
        single = rows >= 0
        owned = np.zeros(m, dtype=bool)
        owned[rows[single]] = True
        dpos = np.flatnonzero(~single)
        krow = np.flatnonzero(~owned)
        if krow.size != dpos.size:
            raise SolverError("singular basis: two singleton columns share a row")
        prow = rows.copy()
        prow[dpos] = krow
        pval = np.where(single, self._colval[self._basis], 1.0)
        self._install(prow, pval, dpos)
        try:
            self._kinv = np.linalg.inv(self._ct[: dpos.size, krow].T)
        except np.linalg.LinAlgError:
            raise SolverError("singular basis") from None
        self._pivots_since_refactor = 0
        self._refactors += 1
        self._recompute_basics()

    def _ftran(self, a: np.ndarray) -> np.ndarray:
        """w with B w = a, by basis position."""
        k = self._k
        if k == self._m:
            return self._kinv.dot(a)   # a full kernel is in position and row order
        if k == 0:
            return a[self._prow] / self._pval
        wd = self._kinv.dot(a[self._krow])
        w = (a - self._ct[:k].T.dot(wd))[self._prow] / self._pval
        w[self._dpos] = wd
        return w

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        """y with B^T y = cb, where cb is given by basis position."""
        k = self._k
        if k == self._m:
            return self._kinv.T.dot(cb)
        y = np.empty(self._m)
        y[self._prow] = cb / self._pval
        if k:
            krow = self._krow
            y[krow] = 0.0
            y[krow] = self._kinv.T.dot(cb[self._dpos] - self._ct[:k].dot(y))
        return y

    @property
    def _k(self) -> int:
        return self._dpos.size

    def _recompute_basics(self) -> None:
        m, n = self._m, self._n
        rhs = self._b.copy()
        nonbasic = self._vstat[:n] != BASIC
        vals = self._x[:n] * nonbasic
        nz = np.nonzero(vals)[0]
        if nz.size:
            rhs -= self._A[:, nz] @ vals[nz]
        # nonbasic slacks/artificials sit at a zero bound; no contribution
        self._x[self._basis] = self._ftran(rhs)

    def _dual_values(self) -> np.ndarray:
        return self._btran(self._costs[self._basis])

    def _reduced_costs(self, y: np.ndarray) -> np.ndarray:
        return self._costs - self._row_products(y)

    def _pivot_row(self, pos: int) -> np.ndarray:
        """Row `pos` of B^-1 A, for every column."""
        unit = np.zeros(self._m)
        unit[pos] = 1.0
        return self._row_products(self._btran(unit))

    def _row_products(self, v: np.ndarray) -> np.ndarray:
        """a_j . v for every column j."""
        out = np.empty(self._ncols)
        dense, single = self._dense_cols, self._single_cols
        out[dense] = self._dense_At.dot(v)
        if single is not None:
            out[single] = self._single_vals * v[self._single_rows]
        # slacks and artificials: two unit blocks
        out[self._n:].reshape(2, -1)[:] = v
        return out

    def _optimize(self):
        """Pivot to optimality under the current costs from a primal-
        feasible basis. Returns (status, y, d): the duals and reduced
        costs of the last pricing pass."""
        stall = 0
        bland = False
        iters = 0
        just_refactored = False
        while True:
            iters += 1
            if iters > MAX_ITERATIONS:
                raise SolverError("simplex iteration limit exceeded")
            if self._pivots_since_refactor >= REFACTOR_EVERY:
                self._refactor()
            y = self._dual_values()
            d = self._reduced_costs(y)
            # |d_j| for a column that may enter, at most DUAL_TOL for
            # one that may not
            score = self._price * d
            free = self._free_nb
            if free.size:
                score[free] = np.abs(d[free])
            t = int(score.argmax())
            if score[t] <= DUAL_TOL:
                self._total_iterations += iters
                return LpStatus.OPTIMAL, y, d
            if bland:
                t = int((score > DUAL_TOL).argmax())
            sigma = -1.0 if d[t] > 0.0 else 1.0
            w = self._ftran(self._col(t))
            step, blocker, to_upper, passed = self._ratio_test(t, sigma, w, sigma * d[t], bland)
            if step is None:
                self._total_iterations += iters
                return LpStatus.UNBOUNDED, y, d
            if blocker >= 0 and abs(w[blocker]) < 1e-11:
                # pivot too small to trust; refresh the factorisation once
                if just_refactored:
                    raise SolverError("numerically singular pivot")
                self._refactor()
                just_refactored = True
                continue
            degenerate = step <= 1e-11
            if passed is not None:
                self._pass_kinks(passed, w)
            if blocker == -1:
                # bound flip: entering variable runs to its opposite bound
                self._x[self._basis] -= step * sigma * w
                self._to_bound(t, sigma > 0.0)
                self._bound_flips += 1
            else:
                self._pivots += 1
                self._degenerate += degenerate
                if step != 0.0:   # a zero step moves no value
                    self._x[self._basis] -= step * sigma * w
                    self._x[t] += sigma * step
                self._to_bound(self._basis[blocker], to_upper)
                self._apply_pivot(t, blocker, w)
            just_refactored = False
            if degenerate:
                stall += 1
                if stall >= BLAND_AFTER:
                    bland = True
            else:
                stall = 0
                bland = False

    def _ratio_test(self, t: int, sigma: float, w: np.ndarray, slope: float,
                    bland: bool = False):
        """Return (step, blocker_pos, leaves_to_upper, passed). blocker_pos
        -1 means the entering variable's own bound flip binds; step None
        means the ray is unbounded. `passed` holds the positions whose
        kink the step passes (None: none); `slope` is the objective's
        rate of change per unit step, sigma * d_t."""
        ptol = PIVOT_TOL
        basis = self._basis
        delta = -sigma * w  # basic change per unit of entering movement
        up = delta > ptol
        room = np.where(up, self._hi[basis], self._lo[basis]) - self._x[basis]
        ratios = self._ratios
        ratios.fill(np.inf)
        np.divide(room, delta, out=ratios, where=up | (delta < -ptol))
        np.maximum(ratios, 0.0, out=ratios)
        best = float(ratios[ratios.argmin()]) if self._m else math.inf
        own = float(self._hi[t] - self._lo[t])
        if own < best - 1e-12:
            return own, -1, False, None
        if best == math.inf:
            return None, None, None, None
        if bland:
            # anti-cycling needs the lowest-index leaving variable too,
            # not just the lowest-index entering one
            idx = (ratios <= best + 1e-9 * (1.0 + best)).nonzero()[0]
            pos = idx[basis[idx].argmin()]
        else:
            pos = _largest_pivot(ratios, best, w)
            if self._kinks and best > 1e-11:
                walk = self._long_step(t, pos, ratios, delta, w, own, slope)
                if walk is not None:
                    return walk
        return best, int(pos), bool(delta[pos] > 0), None

    def _long_step(self, t: int, first: int, ratios: np.ndarray, delta: np.ndarray,
                   w: np.ndarray, own: float, slope: float):
        """Go on past kinks while the objective still falls, when the
        blocker `first` is a kink member: the ratio test's 4-tuple, or
        None to keep the ordinary one. The kinks below the first other
        blocker and the entering bound are passed in ratio order; each
        raises the slope by |delta_p| (rho_j + rho_j'), rho = cost x side,
        and the first one that would lift it to -DUAL_TOL leaves."""
        basis, partner = self._basis, self._partner
        c, side = self._costs, self._side
        j = basis[first]
        jp = partner[j]
        if jp < 0 or jp == t:
            return None
        rho = c[j] * side[j] + c[jp] * side[jp]
        if rho < 0.0 or slope + abs(delta[first]) * rho >= -DUAL_TOL:
            return None
        # the convex kinks among the blockers are passable
        part = partner[basis]
        kp = ((part >= 0) & (part != t) & (ratios < np.inf)).nonzero()[0]
        bj, bp = basis[kp], part[kp]
        rho = c[bj] * side[bj] + c[bp] * side[bp]
        convex = rho >= 0.0
        kp, rho = kp[convex], rho[convex]
        other = ratios.copy()
        other[kp] = np.inf
        wall = float(other[other.argmin()])
        below = ratios[kp] < min(own, wall)
        kp, rho = kp[below], rho[below]
        order = ratios[kp].argsort(kind="stable")
        kp = kp[order]
        slopes = slope + (np.abs(delta[kp]) * rho[order]).cumsum()
        n_pass = int((slopes >= -DUAL_TOL).searchsorted(True))
        if n_pass == 0:
            return None
        if n_pass < kp.size:
            stop = kp[n_pass]
            return float(ratios[stop]), int(stop), bool(delta[stop] > 0), kp[:n_pass]
        if own < wall - 1e-12:
            return own, -1, False, kp
        if wall == math.inf:
            return None, None, None, None
        pos = _largest_pivot(other, wall, w)
        return wall, int(pos), bool(delta[pos] > 0), kp

    def _pass_kinks(self, pos: np.ndarray, w: np.ndarray) -> None:
        """The kink member basic at each of `pos` hands its position to
        its partner, the same column times lam: x_j' = lam x_j, x_j goes
        to its 0 bound, and the position's pivot value and w entry take
        the factor. K^-1 does not change."""
        j = self._basis[pos]
        jp = self._partner[j]
        lam = self._lam[j]
        self._x[jp] = lam * self._x[j]
        self._x[j] = 0.0
        self._vstat[j] = np.where(self._side[j] > 0.0, NB_LOWER, NB_UPPER)
        self._vstat[jp] = BASIC
        self._price[j] = -self._side[j]
        self._price[jp] = 0.0
        self._basis[pos] = jp
        self._pval[pos] *= lam
        w[pos] *= lam
        self._kink_passes += pos.size

    def _apply_pivot(self, t: int, pos: int, w: np.ndarray) -> None:
        """Column t replaces the basic column at `pos`; w = B^-1 a_t."""
        if abs(w[pos]) < 1e-12:
            raise SolverError("zero pivot")
        rt = self._colrow[t]
        s = self._slot[pos]
        self._basis[pos] = t
        if self._vstat[t] == NB_FREE:
            self._free_nb = self._free_nb[self._free_nb != t]
        self._vstat[t] = BASIC
        self._price[t] = 0.0
        if rt >= 0 and s >= 0:
            # a singleton for a dense column is rare enough to rebuild
            self._refactor()
            return
        if rt < 0:
            a = self._A[:, t]
            if s >= 0:
                self._replace_dense(s, a, w)
            else:
                self._grow(pos, a, w)
        else:
            # unless `pos` owns rt, rt is a kernel row and its partner q
            # is dense: were q a singleton, w would be zero off q
            q = self._rowpos[rt]
            if q != pos:
                self._swap_row(pos, q, rt)
            self._pval[pos] = self._colval[t]
        self._pivots_since_refactor += 1

    def _to_bound(self, j: int, upper: bool) -> None:
        """Column j becomes nonbasic at its upper or lower bound."""
        if upper:
            self._x[j], self._vstat[j], self._price[j] = self._hi[j], NB_UPPER, self._movable[j]
        else:
            self._x[j], self._vstat[j], self._price[j] = self._lo[j], NB_LOWER, -self._movable[j]

    def _replace_dense(self, s: int, a: np.ndarray, w: np.ndarray) -> None:
        """Dense for dense in slot s: a product-form update of K^-1."""
        kinv = self._kinv
        wd = w[self._dpos]
        row = kinv[s] / wd[s]
        kinv -= wd[:, None] * row
        kinv[s] = row
        self._ct[s] = a

    def _grow(self, pos: int, a: np.ndarray, w: np.ndarray) -> None:
        """Dense for the singleton at `pos`: its row joins the kernel and
        K is bordered by that row and the new column."""
        k = self._k
        r = self._prow[pos]
        ct = self._ct
        sigma = self._pval[pos] * w[pos]   # a[r] - C[r] . (K^-1 a_K)
        u = w[self._dpos] / sigma
        v = self._kinv.T.dot(ct[:k, r])
        kinv = np.empty((k + 1, k + 1))
        np.add(self._kinv, u[:, None] * v, out=kinv[:k, :k])
        kinv[:k, k] = -u
        kinv[k, :k] = v / -sigma
        kinv[k, k] = 1.0 / sigma
        self._kinv = kinv
        if k == ct.shape[0]:
            self._ct = np.empty((min(self._m, max(2 * k, 8)), self._m))
            self._ct[:k] = ct[:k]
        self._ct[k] = a
        self._dpos = np.concatenate((self._dpos, (pos,)))
        self._krow = np.concatenate((self._krow, (r,)))
        self._slot[pos] = k
        self._pval[pos] = 1.0
        if k + 1 == self._m:
            self._sort_kernel()

    def _sort_kernel(self) -> None:
        """Put a full kernel in position and row order: slot i holds
        position i and row i, so solves with B need no gathers."""
        m = self._m
        by_pos, by_row = np.argsort(self._dpos), np.argsort(self._krow)
        self._kinv = self._kinv[by_pos][:, by_row]
        self._install(np.arange(m), self._pval, np.arange(m))

    def _swap_row(self, pos: int, q: int, rt: int) -> None:
        """A singleton on kernel row rt (paired with dense q) for the
        singleton at `pos` on row r: r takes rt's kernel slot, a
        Sherman-Morrison update of K^-1."""
        j = self._slot[q]
        r = self._prow[pos]
        kinv = self._kinv
        v = kinv.T.dot(self._ct[: self._k, r])
        col = kinv[:, j] / v[j]
        v[j] -= 1.0
        kinv -= col[:, None] * v
        self._krow[j] = r
        # `pos` owns row rt; dense q pairs with row r
        self._prow[pos], self._prow[q] = rt, r
        self._rowpos[rt], self._rowpos[r] = pos, q

    # ------------------------------------------------------------------
    # results

    def _solution(self, problem: LpProblem, status: LpStatus, y: np.ndarray,
                  d: np.ndarray) -> LpSolution:
        n = self._n
        x = self._x[:n].copy()
        z = float(problem.c @ x)
        return LpSolution(
            status=status,
            z=z,
            x=x,
            duals=y,
            reduced_costs=d[:n].copy(),
            iterations=self._total_iterations,
            pivots=self._pivots,
            bound_flips=self._bound_flips,
            degenerate_pivots=self._degenerate,
            refactors=self._refactors,
            kink_passes=self._kink_passes,
        )


def _as_slice(idx: np.ndarray):
    """`idx` as a slice when it is a run of consecutive indices, where
    numpy indexes faster."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _largest_pivot(ratios: np.ndarray, best: float, w: np.ndarray) -> int:
    """Among the blockers tied at step `best`, the position with the
    largest pivot magnitude, for stability."""
    idx = (ratios <= best + 1e-9 * (1.0 + best)).nonzero()[0]
    if idx.size == 1:
        return idx[0]
    return idx[np.abs(w[idx]).argmax()]
