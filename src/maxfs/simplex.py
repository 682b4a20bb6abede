"""Bounded-variable revised simplex over dense matrices.

Solves   min c.x   s.t.   A x {<=,=,>=} b,   l <= x <= u
with +-inf bounds allowed. Returns primal values, row duals and reduced
costs.

Design notes:

* The working matrix is [A | U | I]: the structure's dense block A,
  its unit columns U (one row index and one value each; an elastic
  LP's penalty columns, see `LpStructure`), and one slack column per
  row (fixed at [0,0] for equality rows), n + m columns in all, with n
  counting A's and U's. Only A is stored as a matrix; pricing needs
  A.T y and one product per column of U. The unit columns and the
  slacks are the engine's singleton columns; every column of A is
  dense to it, whatever its nonzeros, so a structure declares its
  singletons by making them unit columns.
* The basis is kept block-triangular. Every basic singleton column
  owns its row; the k dense basic columns C meet the k rows no
  singleton owns in a k x k kernel K, whose inverse is kept
  explicitly. Solves with B or B^T cost O(m k + k^2), a refactor is a
  gather plus inv(K), and each pivot updates K^-1 in O(m + k^2) by one
  of three moves: a product-form column swap (dense for dense), a
  bordering (dense for singleton) or a Sherman-Morrison row swap
  (singleton for singleton on another row). The fourth kind, a
  singleton for a dense column, is rare enough to rebuild K^-1 instead.
  An elastic LP keeps k near its structural count n; a fully dense
  basis is the case k = m of the same formulas. A bordering that would
  fill the kernel refactors instead, since a refactor puts a full
  kernel in position and row order and its solves then need no
  gathers. K^-1 is rebuilt every REFACTOR_EVERY pivots.
* Cold starts. A crash step assigns each row's residual to its slack
  when the slack's bounds allow, else to a unit column of that row
  that can absorb it, and otherwise leaves it to the slack anyway,
  basic out of its bounds. Elastic constructions (every row carries a
  dedicated penalty column) start feasible and go straight to the
  primal simplex. Otherwise a dual simplex (Koberstein 2005) runs from
  the crash basis: costs shifted where a reduced cost has the wrong
  sign make that basis dual feasible (the split form of sparse
  recovery, all slacks with y = 0 and d = c >= 0, needs no shift),
  each iteration sends the most violated basic variable to its bound,
  and the primal simplex then finishes under the true costs from the
  primal-feasible basis the dual one ends at.
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
  one row, unit or slack, each with one finite bound at 0, the
  second lam = +-1 times the first and covering, scaled by lam, the
  other half line: a GE row's slack and +e elastic (lam = 1), an LE
  row's slack and -e elastic (lam = -1), and an equality's e+/e-
  (lam = -1; its [0,0] slack is no member).
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
  equality slacks, skips the walk on one flag. Batched probes take the
  same long steps, each under its own costs (`_long_steps`).
* Batched probes (`probe_costs`). A search round re-solves one LP from
  one basis many times, each with one entity's costs changed, so the
  engine runs those probes as one array program: stacked solves with
  B^T and B, one product with [A | U | I] for all reduced costs, and
  `_ratio_test`'s rules column by column. A probe still running holds
  its basic columns, basic values, int8 entering signs and one
  product-form eta per pivot on the incumbent factor, and chunks of
  PROBE_WORK // (n + m) probes bound the working set (on 200-row sets,
  60 probes held 1.1 MB of peak RSS against 1.7 MB for 120, at 5 to 10%
  more time). A pass over kinks scales basic columns by lam = +-1, so
  a probe carries the factor of each position it passed after its etas
  and needs no refactor. A probe leaves, for `_optimize` to re-solve
  from the incumbent, before a bound flip or a ray, or a pivot past
  PROBE_CAP; a free nonbasic column at the incumbent leaves them all.
  A winner's solve starts from `ProbeBatch.end_basis`.
  Rounding differs from `_optimize`'s and can break an exact tie the
  other way. Why 32 and 8: `jokar_pfetsch`'s probes walk long
  degenerate paths, and batching them took its 40 benchmark instances
  from 3.9 s to 4.1 s at a cap of 3 but to 2.7 s at 32, while the row
  searches' batched probes take at most 6 pivots; a chunk's pivot
  costs about two hundred numpy calls at any width, so batching rounds
  of 2 to 4 probes slowed `recovery` from 1.1 to 2.1-2.7 s
  (`core.BATCH_MIN`). With kinks passed in the batch, BATCH_MIN = 4, 8
  and 16 ran a `classify-probe` round in 0.346, 0.343 and 0.345 s,
  within noise of each other.
* Anti-cycling: Dantzig pricing, and Bland's rule (finite but slow) as
  a last resort after BLAND_AFTER consecutive degenerate pivots, dual
  steps in the dual simplex, back on progress. Held off, Dantzig
  pricing stalled for at most 98 pivots on every corpus measured (me1e2
  at 128 x 256; 47 on the 64 x 128 recovery benchmark), and BLAND_AFTER
  keeps twice that. The dual simplex's cost shift leaves a small random
  margin on each shifted reduced cost so that ties, and so degenerate
  dual steps, are rare.
* One primal iteration solves B^T y = c_B, prices d = c - A^T y over
  every column, takes the eligible column t with the largest |d_t|,
  solves B w = a_t, runs the ratio test over the m basic values, moves
  the values and updates K^-1. A dual iteration takes the most violated
  basic row r instead, forms row r of B^-1 A from B^T v = e_r and the
  same products, runs the dual ratio test over the columns that can
  move the right way, and updates d in place. On a full kernel each
  step is one or a few numpy calls on arrays of length m, k^2 or
  n + m, so a pivot costs about as much in call overhead as in
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
from dataclasses import dataclass, field
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
# consecutive degenerate pivots before Bland's rule takes over: twice
# the longest stall measured without it (98, me1e2 at 128 x 256)
BLAND_AFTER = 200
# iterations of the dual or the primal simplex before the solve raises
# SolverError
MAX_ITERATIONS = 500_000
# pivots a batched probe (`SimplexSolver.probe_costs`) may take; one
# that needs more leaves the batch (see the module notes)
PROBE_CAP = 32
# a batch runs its probes in chunks whose working arrays, one column of
# m or n + m numbers per probe, hold at most about PROBE_WORK numbers
PROBE_WORK = 24_576

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
    """Everything about an LP except its objective.

    The constraint matrix is the dense block `A` followed by unit
    columns: column A.shape[1] + i holds `unit_vals[i]` in row
    `unit_rows[i]` and zeros elsewhere. Unit columns are how a structure
    declares its singleton columns: the engine treats every column of
    `A` as dense, whatever its nonzeros. An elastic LP keeps its penalty
    columns so, in O(m) numbers instead of an m x m block; `make_problem`
    builds structures without unit columns."""

    A: np.ndarray
    senses: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    unit_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    unit_vals: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1] + self.unit_rows.size


@dataclass(frozen=True)
class LpProblem:
    """Objective vector plus a shared structure reference.

    Problems that share a structure object differ only in costs; the
    solver exploits that to re-solve from the incumbent basis. The costs
    must be finite, one per column of the structure.
    """

    c: np.ndarray
    structure: LpStructure

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.structure.n,):
            raise ValueError(f"cost vector has shape {c.shape}, expected ({self.structure.n},)")
        if not np.isfinite(c).all():
            raise ValueError("costs must be finite")
        object.__setattr__(self, "c", c)

    def with_costs(self, c) -> "LpProblem":
        return LpProblem(c=c, structure=self.structure)


def sense_codes(senses) -> np.ndarray:
    """Row senses as int8 codes (-1 LE, 0 EQ, 1 GE), read from Sense
    values, their integer codes (1.0 counts as 1) or the tokens "<=",
    "=" and ">=". Raises ValueError naming the first row that is none of
    these."""
    raw = np.asarray(senses).ravel()
    if raw.dtype.kind in "USO":
        text = raw.astype(str)
        codes = np.full(raw.size, np.nan)
        for tok, sense in TOKEN_SENSES.items():
            codes[text == tok] = sense
        # codes written as text, as numpy makes of a list mixing them
        # with tokens
        for i in np.flatnonzero(np.isnan(codes)):
            try:
                codes[i] = float(text[i])
            except ValueError:
                raise ValueError(f"row {i}: unknown sense {text[i]!r}") from None
    else:
        codes = raw.astype(float)
    bad = ~np.isin(codes, (-1.0, 0.0, 1.0))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"row {i}: sense {raw[i]!r} is not -1, 0, 1 or a sense token")
    return codes.astype(np.int8)


def checked_rows(A, senses, b, lower=None, upper=None) -> LpStructure:
    """The rows `A x (senses) b` with bounds lower <= x <= upper, checked:
    `A` is 2-d and finite, the senses are read by `sense_codes`, `b` is
    finite, every length matches, and the bounds are neither NaN nor
    crossed. Bounds may be infinite and default to free. The structure
    has no unit columns."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-d array")
    m, n = A.shape
    senses = sense_codes(senses)
    b = np.asarray(b, dtype=float)
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if senses.shape != (m,) or b.shape != (m,):
        raise ValueError(f"senses and b need one entry per row of A, {m}")
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError(f"bound vectors need one entry per column of A, {n}")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("bounds must not be NaN")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("A and b must be finite")
    return LpStructure(A=A, senses=senses, b=b, lower=lower, upper=upper)


def make_problem(c, A, senses, b, lower=None, upper=None) -> LpProblem:
    """The LP min c.x over `checked_rows(A, senses, b, lower, upper)`;
    `c` must be finite, one cost per column of `A`. Every column of `A`
    is dense to the engine, even one with a single nonzero."""
    return LpProblem(c=c, structure=checked_rows(A, senses, b, lower, upper))


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
    over the engine's n + m columns (structural, slack):
    the basic column of each position and every column's state, plus
    the pivots and degenerate pivots of the solve that reached it. No
    factorisation: a start refactors."""

    basis: np.ndarray
    vstat: np.ndarray
    pivots: int
    degenerate_pivots: int


@dataclass
class ProbeBatch:
    """The probes of `SimplexSolver.probe_costs`. A settled probe has
    its re-solve's `z`, pivot and kink-pass counts. `steps` holds, from
    the incumbent basis `start`, the basis changes in order: per pivot
    level its kink passes, one entry per pass a probe makes in that
    step, then its pivots. An entry lists the probes (ascending) with
    the column each puts in, its position and whether the column leaving
    it goes to its upper bound."""

    start: Basis
    settled: np.ndarray
    z: np.ndarray
    pivots: np.ndarray
    degenerate_pivots: np.ndarray
    kink_passes: np.ndarray
    steps: list = field(default_factory=list)

    def end_basis(self, i: int) -> Basis:
        """Settled probe i's optimal basis, to start a solve at its costs
        from (one refactor and one pricing pass, no pivot)."""
        if not self.settled[i]:
            raise ValueError(f"probe {i} left the batch: it has no end basis")
        basis, vstat = self.start.basis.copy(), self.start.vstat.copy()
        for ids, t, pos, upper in self.steps:
            at = np.searchsorted(ids, i)
            if at < ids.size and ids[at] == i:
                vstat[basis[pos[at]]] = NB_UPPER if upper[at] else NB_LOWER
                vstat[t[at]] = BASIC
                basis[pos[at]] = t[at]
        return Basis(basis, vstat, 0, 0)


# the engine arrays a snapshot copies: basis, values, entering
# eligibility and factorisation
_STATE = ("_basis", "_vstat", "_x", "_price", "_free_nb", "_prow", "_pval", "_rowpos",
          "_slot", "_dpos", "_krow", "_kinv", "_ct")


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
    kernel row `_krow[s] = _prow[_dpos[s]]`, its column `_ct[s]` (`_ct`
    is C transposed, k x m) and row s of `_kinv`, the inverse of
    K[s, t] = C[_krow[s], t]. A pivot that fills the kernel (k = m)
    refactors, which leaves slot i at position i and row i.

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
            arrays={name: getattr(self, name).copy() for name in _STATE},
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

    def probe_costs(self, problem: LpProblem, columns: np.ndarray, value: float) -> ProbeBatch:
        """Re-solve together, from this engine's state on problem's
        structure and without changing it, the LPs that `problem` becomes
        when the costs of each row of `columns` are set to `value`, each
        by `_optimize`'s pivots, until it ends or leaves the batch (see
        the module notes)."""
        if not self._have_state or problem.structure is not self._structure:
            raise SolverError("no solved state on this structure to probe from")
        size = len(columns)
        self._costs[: self._n] = problem.c
        batch = ProbeBatch(self.basis(), np.zeros(size, dtype=bool), np.full(size, np.nan),
                           np.zeros(size, dtype=int), np.zeros(size, dtype=int),
                           np.zeros(size, dtype=int))
        if self._free_nb.size:
            return batch
        chunk = max(1, PROBE_WORK // self._ncols)
        # every level of every chunk prices into one buffer: a fresh
        # (n + m) x chunk array per level churned the heap, and its page
        # faults cost up to 8% of a `classify-probe` round (2-core host)
        work = np.empty(self._ncols * min(chunk, size))
        for first in range(0, size, chunk):
            self._settle(batch, columns, value, np.arange(first, min(first + chunk, size)), work)
        return batch

    def _settle(self, batch: ProbeBatch, columns: np.ndarray, value: float,
                ids: np.ndarray, work: np.ndarray) -> None:
        """Run the probes `ids` of `batch` to their end or their exit,
        passing kinks as `_long_step` does. The working arrays hold one
        column per probe still running; they are views of the
        incumbent's until the first pivot. A probe's basis is the
        incumbent factor, its etas and then `sign`, the factor lam of
        each position whose kink it passed (None until one does): a pass
        scales a basic column by lam, which commutes past the later etas
        once they take the factor of their own position."""
        m, n, lo, hi = self._m, self._n, self._lo, self._hi
        c, x0 = self._costs, self._x
        j0, j1 = columns[ids, 0], columns[ids, 1]
        z = (float(c[:n] @ x0[:n]) + (value - c[j0]) * x0[j0]
             + np.where(j1 != j0, (value - c[j1]) * x0[j1], 0.0))
        degenerate = np.zeros(ids.size, dtype=int)
        passes = np.zeros(ids.size, dtype=int)
        basis = np.broadcast_to(self._basis[:, None], (m, ids.size))
        xb = np.broadcast_to(x0[self._basis][:, None], (m, ids.size))
        price = np.broadcast_to(self._price.astype(np.int8)[:, None], (self._ncols, ids.size))
        etas = []   # (position, w) of each pivot
        sign = None

        for level in range(PROBE_CAP + 1):
            cols = columns[ids]
            ar = np.arange(ids.size)
            # Dantzig pricing on the duals of the probes' basic costs
            y = c[basis]
            y[(basis == cols[:, 0]) | (basis == cols[:, 1])] = value
            if sign is not None:
                y *= sign
            for pos, w in reversed(etas):
                _eta_solve_t(y, pos, w)
            y = self._btran(y)
            score = work[: self._ncols * ids.size].reshape(self._ncols, ids.size)
            self._row_products(y, score)
            del y
            r0, r1 = score[cols[:, 0], ar], score[cols[:, 1], ar]
            np.subtract(c[:, None], score, out=score)
            score[cols[:, 0], ar], score[cols[:, 1], ar] = value - r0, value - r1
            np.multiply(score, price, out=score)
            t = score.argmax(axis=0)
            top = score[t, ar]
            del score
            done = top <= DUAL_TOL
            ended = ids[done]
            batch.settled[ended] = True
            batch.z[ended] = z[done]
            batch.pivots[ended] = level
            batch.degenerate_pivots[ended] = degenerate[done]
            batch.kink_passes[ended] = passes[done]
            if level == PROBE_CAP or done.all():
                break
            # the entering columns through the etas, and `_ratio_test`'s
            # blocker and tie rules, column by column
            sigma = -price[t, ar].astype(float)
            a = np.zeros((m, ids.size))
            dense = t < self._nd
            a[:, dense] = self._A[:, t[dense]]
            single = np.flatnonzero(~dense)
            a[self._colrow[t[single]], single] = self._colval[t[single]]
            delta = self._ftran(a)
            del a
            for pos, e in etas:
                _eta_solve(delta, pos, e)
            if sign is not None:
                delta *= sign
            delta *= -sigma   # from w = B^-1 a_t to the basics' change per unit step
            ratios = np.where(delta > PIVOT_TOL, hi[basis], lo[basis])
            ratios -= xb
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios /= delta
            ratios[np.abs(delta) <= PIVOT_TOL] = np.inf   # no blocker
            np.maximum(ratios, 0.0, out=ratios)
            step = ratios.min(axis=0)
            pos = _largest_pivots(ratios, step, delta)
            # a probe that is done, or whose step would flip a bound or
            # meet a ray, stops here
            stay = ~done & (hi[t] - lo[t] >= step - 1e-12) & (step < np.inf)
            slope = -top
            crossed = None
            if self._kinks:
                crossed, step, pos, rise = self._long_steps(stay, ratios, delta, basis, cols,
                                                            t, pos, step, slope, value)
            del ratios
            keep = np.flatnonzero(stay)
            upper = delta[pos, ar][keep] > 0.0
            w = delta[:, keep]
            del delta
            w *= -sigma[keep]   # w again: a sign flip is exact
            basis = basis[:, keep]
            xb = xb[:, keep]
            price = price[:, keep]
            etas = [(p[keep], e[:, keep]) for p, e in etas]
            ids, z, degenerate, passes = ids[keep], z[keep], degenerate[keep], passes[keep]
            step, t, pos, sigma = step[keep], t[keep], pos[keep], sigma[keep]
            ar = np.arange(keep.size)
            z += step * slope[keep]
            if sign is not None:
                sign = sign[:, keep]
            if crossed is not None:
                z += rise[keep]
                # `_pass_kinks` on each probe's passed positions, recorded
                # as steps in the order of their positions
                q, p = np.nonzero(crossed[:, keep].T)
                if q.size:
                    j = basis[p, q]
                    jp, lam = self._partner[j], self._lam[j]
                    xb[p, q] *= lam
                    w[p, q] *= lam
                    if sign is None:
                        sign = np.ones((m, keep.size))
                    sign[p, q] *= lam
                    price[j, q] = -self._side[j]
                    price[jp, q] = 0
                    basis[p, q] = jp
                    passes += np.bincount(q, minlength=keep.size)
                    rank = np.arange(q.size) - np.searchsorted(q, q)
                    for r in range(rank.max() + 1):
                        at = rank == r
                        batch.steps.append((ids[q[at]], jp[at], p[at], self._side[j[at]] < 0.0))
            degenerate += step <= 1e-11
            out = basis[pos, ar]
            xt = np.where(price[t, ar] < 0, lo[t], hi[t]) + sigma * step
            xb -= (step * sigma) * w
            xb[pos, ar] = xt
            price[out, ar] = np.where(upper, self._movable[out], -self._movable[out])
            price[t, ar] = 0
            basis[pos, ar] = t
            if sign is not None:
                w *= sign * sign[pos, ar]
            etas.append((pos, w))
            batch.steps.append((ids, t, pos, upper))

    def _long_steps(self, stay, ratios, delta, basis, cols, t, pos, best, slope, value):
        """`_long_step` for the probes of `_settle`, column by column and
        under each probe's own costs: a probe whose step of more than
        1e-11 stops at a convex kink goes on past the kinks below its
        first other blocker and its entering bound, in ratio order,
        while its slope stays below -DUAL_TOL. Returns (crossed, step,
        pos, rise): the positions each probe passes (m x probes, None
        when none does), its step and pivot position, and its objective's
        change beyond slope x step. A walk that ends in a bound flip or a
        ray clears the probe's `stay`."""
        hi, lo, partner, side, c = self._hi, self._lo, self._partner, self._side, self._costs
        ar = np.arange(stay.size)

        def rho_of(j, k):
            """c_j side_j + c_j' side_j' of basic columns j under probes k's costs."""
            jp, own = partner[j], (j == cols[k, 0]) | (j == cols[k, 1])
            mate = (jp == cols[k, 0]) | (jp == cols[k, 1])
            return (np.where(own, value, c[j]) * side[j]
                    + np.where(mate, value, c[jp]) * side[jp])

        out = basis[pos, ar]
        jp, rho = partner[out], rho_of(out, ar)
        walk = np.flatnonzero(stay & (best > 1e-11) & (jp >= 0) & (jp != t) & (rho >= 0.0)
                              & (slope + np.abs(delta[pos, ar]) * rho < -DUAL_TOL))
        rise = np.zeros(stay.size)
        if walk.size == 0:
            return None, best, pos, rise
        b, r, d, tw = basis[:, walk], ratios[:, walk], delta[:, walk], t[walk]
        rho = rho_of(b, walk)
        kink = (partner[b] >= 0) & (partner[b] != tw) & (r < np.inf) & (rho >= 0.0)
        other = np.where(kink, np.inf, r)
        wall = other.min(axis=0)
        own = hi[tw] - lo[tw]
        below = kink & (r < np.minimum(own, wall))
        order = np.where(below, r, np.inf).argsort(axis=0, kind="stable")
        gain = np.where(below, np.abs(d) * rho, 0.0)
        slopes = slope[walk] + np.take_along_axis(gain, order, axis=0).cumsum(axis=0)
        n_below = below.sum(axis=0)
        count = np.minimum((slopes < -DUAL_TOL).sum(axis=0), n_below)
        # the walk pivots on the first kink it does not pass, or past them
        # all on the largest pivot of the other blockers at the wall
        at_kink = count < n_below
        stop = order[np.minimum(count, self._m - 1), np.arange(walk.size)]
        wpos = stop if at_kink.all() else np.where(at_kink, stop, _largest_pivots(other, wall, d))
        wstep = np.where(at_kink, r[stop, np.arange(walk.size)], wall)
        go = count > 0
        leave = go & ~at_kink & ((own < wall - 1e-12) | (wall == np.inf))
        stay[walk[leave]] = False
        wstep[leave | ~go] = 0.0   # no walk: they leave or take the ordinary step
        passed = np.zeros(b.shape, dtype=bool)
        np.put_along_axis(passed, order, np.arange(self._m)[:, None] < count, axis=0)
        crossed = np.zeros(basis.shape, dtype=bool)
        crossed[:, walk] = passed
        step, pos = best.copy(), pos.copy()
        step[walk[go]], pos[walk[go]] = wstep[go], wpos[go]
        rise[walk] = (gain * (wstep - np.where(passed, r, wstep))).sum(axis=0)
        return crossed, step, pos, rise

    # ------------------------------------------------------------------
    # workspace

    def _bind(self, structure: LpStructure) -> None:
        self._structure = structure
        self._have_state = False
        m, n = structure.m, structure.n
        self._m, self._n = m, n
        self._ncols = n + m
        self._A = structure.A
        self._b = structure.b
        lo = np.empty(self._ncols)
        hi = np.empty(self._ncols)
        lo[:n] = structure.lower
        hi[:n] = structure.upper
        senses = structure.senses
        # slack bounds by sense: LE [0,inf), GE (-inf,0], EQ [0,0]
        lo[n:] = np.where(senses == Sense.GE, -np.inf, 0.0)
        hi[n:] = np.where(senses == Sense.LE, np.inf, 0.0)
        self._lo, self._hi = lo, hi
        # 1.0 for a column that can move, 0.0 for a fixed one
        self._movable = ((hi - lo) > 0.0).astype(float)
        self._free = np.flatnonzero(np.isneginf(lo) & np.isposinf(hi))
        self._costs = np.zeros(self._ncols)   # slacks cost 0
        self._ratios = np.empty(m)
        # the dual simplex's cost-shift margins, one draw per column
        self._margins = np.random.default_rng(0).uniform(1.0, 2.0, self._ncols)
        # every column's singleton row (-1: dense) and its value there;
        # the unit columns and the slacks are the singletons
        self._nd = nd = structure.A.shape[1]
        self._colrow = np.concatenate([np.full(nd, -1), structure.unit_rows, np.arange(m)])
        self._colval = np.concatenate([np.ones(nd), structure.unit_vals, np.ones(m)])
        # pricing: one product with A, one elementwise term for the unit
        # columns, whose rows and values are kept as views
        self._At = np.ascontiguousarray(structure.A.T)
        self._unit_rows, self._unit_vals = self._colrow[nd:n], self._colval[nd:n]
        # the crash's candidates: the unit columns by row, lowest index
        # first within a row
        self._row_singles = nd + np.argsort(structure.unit_rows, kind="stable")
        self._bind_kinks()

    def _bind_kinks(self) -> None:
        """Find the kink pairs: the two singleton columns of a row (unit
        columns or its slack), each with one finite bound at 0, the
        second equal to lam times the first (lam = +-1) and, scaled so,
        covering the other half line. `_partner[j]` is j's partner (-1:
        none), `_lam[j]` the factor, `_side[j]` +1 for [0, inf) and -1
        for (-inf, 0]."""
        m, lo, hi = self._m, self._lo, self._hi
        up, down = (lo == 0.0) & (hi == np.inf), (lo == -np.inf) & (hi == 0.0)
        cand = np.flatnonzero((self._colrow >= 0) & (up | down))
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
        self._side = side
        self._kinks = j.size > 0

    def _col(self, j: int) -> np.ndarray:
        if j < self._nd:
            return self._A[:, j]
        e = np.zeros(self._m)   # a unit column or a slack
        e[self._colrow[j]] = self._colval[j]
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
        knorm = np.abs(self._ct[:, self._krow]).sum(axis=1).max(initial=0.0)
        if knorm * np.abs(self._kinv).sum(axis=0).max(initial=0.0) > START_COND:
            return False
        xb = self._x[basis]
        miss = np.maximum(self._lo[basis] - xb, xb - self._hi[basis])
        return bool(miss.max(initial=0.0) <= INFEAS_TOL * (1.0 + np.abs(self._b).max(initial=0.0)))

    def _cold_start(self) -> bool:
        """Crash a starting basis; when a slack starts basic out of its
        bounds, run the dual simplex from it to a primal-feasible basis.
        Returns False on proven infeasibility, leaving no warm state."""
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
        vstat[n:] = np.where(self._structure.senses == Sense.GE, NB_UPPER, NB_LOWER)

        # each row's residual goes to its slack when the slack's bounds
        # allow, else to its lowest-index unit column that can absorb
        # it, else to its slack out of bounds
        tol = PRIMAL_TOL
        residual = self._b - self._times(x[:n])
        basis = np.arange(n, n + m)
        fits = (lo[n:] - tol <= residual) & (residual <= hi[n:] + tol)
        cand = self._row_singles
        cand = cand[~fits[self._colrow[cand]]]
        g = self._colval[cand]
        # the residual was measured with x[j] at its bound; fold that back in
        val = (residual[self._colrow[cand]] + g * x[cand]) / g
        cand = cand[(lo[cand] - tol <= val) & (val <= hi[cand] + tol)]
        rows = self._colrow[cand]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        basis[rows[first]] = cand[first]
        fits[rows[first]] = True
        vstat[basis] = BASIC

        self._take_basis(basis, vstat, x)
        if not fits.all():
            if not self._dual_simplex():
                return False
            self._pivot_out_fixed_slacks()
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
        and stable implementation"). The crash basis has basic slacks out
        of their bounds, and shifted costs make it dual feasible. Each
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
                    i = int(_ties(ratios, best)[0])
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

    def _pivot_out_fixed_slacks(self) -> None:
        """Swap the basic fixed (equality-row) slacks the dual simplex left
        for other columns so that row duals are not pinned to zero. Rows
        with no usable pivot are redundant; their slack stays basic at 0."""
        basis = self._basis
        fixed = (basis >= self._n) & (self._lo[basis] == self._hi[basis])
        for pos in np.flatnonzero(fixed):
            j = basis[pos]
            # the nonbasic column with the largest pivot enters
            alpha = np.where(self._vstat != BASIC, np.abs(self._pivot_row(pos)), 0.0)
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
        self._prow, self._dpos, self._krow = prow, dpos, krow
        self._pval = np.where(single, self._colval[self._basis], 1.0)
        self._rowpos = np.empty(m, dtype=np.intp)
        self._rowpos[prow] = np.arange(m)
        self._slot = np.full(m, -1, dtype=np.intp)
        self._slot[dpos] = np.arange(dpos.size)
        self._ct = self._At[self._basis[dpos]]
        try:
            self._kinv = np.linalg.inv(self._ct[:, krow].T)
        except np.linalg.LinAlgError:
            raise SolverError("singular basis") from None
        self._pivots_since_refactor = 0
        self._refactors += 1
        self._recompute_basics()

    def _ftran(self, a: np.ndarray) -> np.ndarray:
        """w with B w = a, by basis position; `a` may be a stack of
        columns (m x C), solved at once."""
        k = self._k
        if k == self._m:
            return self._kinv.dot(a)   # a full kernel is in position and row order (`_grow`)
        g = self._pval if a.ndim == 1 else self._pval[:, None]
        if k == 0:
            return a[self._prow] / g
        wd = self._kinv.dot(a[self._krow])
        w = (a - self._ct.T.dot(wd))[self._prow] / g
        w[self._dpos] = wd
        return w

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        """y with B^T y = cb, where cb is given by basis position; `cb`
        may be a stack of columns (m x C)."""
        k = self._k
        if k == self._m:
            return self._kinv.T.dot(cb)
        y = np.empty(cb.shape)
        y[self._prow] = cb / (self._pval if cb.ndim == 1 else self._pval[:, None])
        if k:
            krow = self._krow
            y[krow] = 0.0
            y[krow] = self._kinv.T.dot(cb[self._dpos] - self._ct.dot(y))
        return y

    @property
    def _k(self) -> int:
        return self._dpos.size

    def _recompute_basics(self) -> None:
        n = self._n
        nonbasic = self._vstat[:n] != BASIC
        # nonbasic slacks sit at a zero bound; no contribution
        self._x[self._basis] = self._ftran(self._b - self._times(self._x[:n] * nonbasic))

    def _times(self, v: np.ndarray) -> np.ndarray:
        """The sum of a_j v_j over the structural columns j, the dense
        block's and the unit columns; only the nonzero v_j are read."""
        nd, n = self._nd, self._n
        nz = np.flatnonzero(v[:nd])
        out = self._A[:, nz] @ v[nz] if nz.size else np.zeros(self._m)
        if n > nd:
            out += np.bincount(self._unit_rows, self._unit_vals * v[nd:], minlength=self._m)
        return out

    def _dual_values(self) -> np.ndarray:
        return self._btran(self._costs[self._basis])

    def _reduced_costs(self, y: np.ndarray) -> np.ndarray:
        return self._costs - self._row_products(y)

    def _pivot_row(self, pos: int) -> np.ndarray:
        """Row `pos` of B^-1 A, for every column."""
        unit = np.zeros(self._m)
        unit[pos] = 1.0
        return self._row_products(self._btran(unit))

    def _row_products(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """a_j . v for every column j; for a stack of vectors v (m x C),
        one row of products per column, into `out` when given."""
        if out is None:
            out = np.empty((self._ncols,) + v.shape[1:])
        nd, n = self._nd, self._n
        out[:nd] = self._At.dot(v)
        if n > nd:   # the split form of sparse recovery has no unit columns
            vals = self._unit_vals if v.ndim == 1 else self._unit_vals[:, None]
            np.multiply(vals, v[self._unit_rows], out=out[nd:n])
        out[n:] = v   # slacks: one unit block
        return out

    def _optimize(self):
        """Pivot to optimality under the current costs from a primal-
        feasible basis. Returns (status, y, d): the duals and reduced
        costs of the last pricing pass."""
        iters = stall = 0
        bland = False
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
            stall = stall + 1 if degenerate else 0
            bland = stall >= BLAND_AFTER

    def _ratio_test(self, t: int, sigma: float, w: np.ndarray, slope: float,
                    bland: bool = False):
        """Return (step, blocker_pos, leaves_to_upper, passed). blocker_pos
        -1 means the entering variable's own bound flip binds; step None
        means the ray is unbounded. `passed` holds the positions whose
        kink the step passes (None: none); `slope` is the objective's
        rate of change per unit step, sigma * d_t. Every blocker
        returned has |w| > PIVOT_TOL, since only those have a finite
        ratio, so the pivot on it needs no size check."""
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
            idx = _ties(ratios, best)
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
        K is bordered by that row and the new column. A kernel this
        fills (k = m) is built by a refactor instead, which leaves slot i
        at position i and row i."""
        k = self._k
        if k + 1 == self._m:
            self._refactor()
            return
        r = self._prow[pos]
        sigma = self._pval[pos] * w[pos]   # a[r] - C[r] . (K^-1 a_K)
        u = w[self._dpos] / sigma
        v = self._kinv.T.dot(self._ct[:, r])
        kinv = np.empty((k + 1, k + 1))
        np.add(self._kinv, u[:, None] * v, out=kinv[:k, :k])
        kinv[:k, k] = -u
        kinv[k, :k] = v / -sigma
        kinv[k, k] = 1.0 / sigma
        self._kinv = kinv
        self._ct = np.vstack((self._ct, a))
        self._dpos = np.concatenate((self._dpos, (pos,)))
        self._krow = np.concatenate((self._krow, (r,)))
        self._slot[pos] = k
        self._pval[pos] = 1.0

    def _swap_row(self, pos: int, q: int, rt: int) -> None:
        """A singleton on kernel row rt (paired with dense q) for the
        singleton at `pos` on row r: r takes rt's kernel slot, a
        Sherman-Morrison update of K^-1."""
        j = self._slot[q]
        r = self._prow[pos]
        kinv = self._kinv
        v = kinv.T.dot(self._ct[:, r])
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


def _eta_solve(v: np.ndarray, pos: np.ndarray, w: np.ndarray) -> None:
    """v := E^-1 v in place, column by column, E the identity with
    column pos[i] replaced by w[:, i]: a pivot's product-form eta."""
    ar = np.arange(v.shape[1])
    vp = v[pos, ar] / w[pos, ar]
    v -= w * vp
    v[pos, ar] = vp


def _eta_solve_t(v: np.ndarray, pos: np.ndarray, w: np.ndarray) -> None:
    """v := E^-T v in place, column by column, for the etas of `_eta_solve`."""
    ar = np.arange(v.shape[1])
    vp, wp = v[pos, ar], w[pos, ar]
    v[pos, ar] = (vp - (np.einsum("ij,ij->j", w, v) - wp * vp)) / wp


def _largest_pivots(ratios: np.ndarray, best: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """`_largest_pivot` column by column."""
    size = np.where(ratios <= best + 1e-9 * (1.0 + best), np.abs(delta), -1.0)
    return size.argmax(axis=0)


def _largest_pivot(ratios: np.ndarray, best: float, w: np.ndarray) -> int:
    """Among the blockers tied at step `best`, the position with the
    largest pivot magnitude, for stability."""
    idx = _ties(ratios, best)
    if idx.size == 1:
        return idx[0]
    return idx[np.abs(w[idx]).argmax()]


def _ties(ratios: np.ndarray, best: float) -> np.ndarray:
    """The positions, ascending, whose ratio is within 1e-9 * (1 + best) of `best`."""
    return (ratios <= best + 1e-9 * (1.0 + best)).nonzero()[0]
