"""Dense linear constraint systems and their elastic relaxations.

A system is rows `a_i . x (<=|=|>=) b_i` plus optional variable bounds.
Elasticisation appends one nonnegative penalty column per inequality row
(a pair for equality rows) so that the relaxed LP is always feasible and
its objective measures total constraint violation; `lift_bounds` turns
each finite variable bound into a row, penalised and deletable like any
other. The penalty columns are the LP structure's unit columns (+1 on a
GE row, -1 on an LE row, +1 then -1 on an equality row), stored as a
row index and a value each, so the elastic LP holds the system's dense
block and O(m) numbers more, not an m x m block. `row_elastics` is the
column table of the rows: an (m, 2) array of each row's first and last
penalty column, the same column twice for an inequality row.

Row removal never rebuilds the LP: a removed row keeps its penalty
columns but their objective coefficients drop to zero, which makes the
row freely violable at no cost. That is exactly equivalent to deleting
the constraint and lets the simplex engine restart from the incumbent
basis after every removal.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .simplex import (
    LpProblem,
    LpSolution,
    LpStructure,
    Sense,
    SENSE_TOKENS,
    TOKEN_SENSES,
    checked_rows,
)


@dataclass(frozen=True)
class LinearSystem:
    """Rows `coeffs[i] . x (<=|=|>=) rhs[i]` with bounds lower <= x <= upper.
    The rows are checked by `simplex.checked_rows`: senses may be given as
    `sense_codes` reads them, and bounds may be infinite, not NaN, and
    default to free. A system has at least one row and one column, and
    no all-zero row."""

    coeffs: np.ndarray   # (m, n)
    senses: np.ndarray   # (m,) of Sense values
    rhs: np.ndarray      # (m,)
    lower: np.ndarray = None  # (n,) -inf allowed
    upper: np.ndarray = None  # (n,) +inf allowed

    def __post_init__(self):
        rows = checked_rows(self.coeffs, self.senses, self.rhs, self.lower, self.upper)
        if rows.m < 1 or rows.n < 1:
            raise ValueError("system needs at least one row and one column")
        if np.any(~rows.A.any(axis=1)):
            raise ValueError("every row needs at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", rows.A)
        object.__setattr__(self, "senses", rows.senses)
        object.__setattr__(self, "rhs", rows.b)
        object.__setattr__(self, "lower", rows.lower)
        object.__setattr__(self, "upper", rows.upper)

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]


def lift_bounds(base: LinearSystem) -> LinearSystem:
    """The system with each finite variable bound written as a row and
    the variables freed. The bound rows follow the system's rows in
    variable order, a lower bound (x_j >= l_j) before an upper one
    (x_j <= u_j), so each is a row the search may delete."""
    # entry 2j stands for x_j's lower bound, 2j + 1 for its upper one
    lifted = np.flatnonzero(np.isfinite(np.column_stack([base.lower, base.upper])))
    var, upper_side = lifted // 2, lifted % 2 == 1
    rows = np.zeros((lifted.size, base.n))
    rows[np.arange(lifted.size), var] = 1.0
    return LinearSystem(
        coeffs=np.vstack([base.coeffs, rows]),
        senses=np.concatenate([base.senses, np.where(upper_side, Sense.LE, Sense.GE)]),
        rhs=np.concatenate([base.rhs, np.where(upper_side, base.upper[var], base.lower[var])]),
    )


@dataclass(frozen=True)
class ElasticModel:
    """An elastic LP wrapped around a base system.

    `problem` holds the LP with every penalty column priced at 1; the
    live objective for the current removal state comes from
    `lp_costs()`. Removal state is immutable: `remove_row` returns a
    new model sharing all large arrays.
    """

    base: LinearSystem
    problem: LpProblem
    row_elastics: np.ndarray       # (m, 2): first and last penalty column per row
    removed_rows: frozenset = field(default_factory=frozenset)

    def lp_costs(self) -> np.ndarray:
        c = self.problem.c.copy()
        c[self.row_elastics[sorted(self.removed_rows)]] = 0.0
        return c

    def lp_problem(self) -> LpProblem:
        return self.problem.with_costs(self.lp_costs())

    def remove_row(self, row: int) -> "ElasticModel":
        if not 0 <= row < self.base.m:
            raise ValueError(f"row {row} out of range")
        if row in self.removed_rows:
            raise ValueError(f"row {row} already removed")
        return replace(self, removed_rows=self.removed_rows | {row})

    def violations(self, sol: LpSolution) -> np.ndarray:
        """Per-row violation magnitude: the larger value of the row's
        first and last penalty column (equality rows carry a pair)."""
        return sol.x[self.row_elastics].max(axis=1)


def elasticize(base: LinearSystem) -> ElasticModel:
    m, n = base.m, base.n
    # penalty columns in row order: one per row, +1 on GE rows and -1 on
    # LE rows, an equality row's pair +1 then -1
    eq = base.senses == Sense.EQ
    per_row = 1 + eq
    unit_rows = np.repeat(np.arange(m), per_row)
    first = np.cumsum(per_row) - per_row
    unit_vals = np.where(base.senses == Sense.LE, -1.0, 1.0)[unit_rows]
    unit_vals[first[eq] + 1] = -1.0
    ncols = n + unit_rows.size

    lower = np.zeros(ncols)
    upper = np.full(ncols, np.inf)
    lower[:n] = base.lower
    upper[:n] = base.upper
    costs = np.zeros(ncols)
    costs[n:] = 1.0
    structure = LpStructure(A=base.coeffs, senses=base.senses, b=base.rhs, lower=lower,
                            upper=upper, unit_rows=unit_rows, unit_vals=unit_vals)

    return ElasticModel(base=base, problem=LpProblem(c=costs, structure=structure),
                        row_elastics=np.column_stack([n + first, n + first + eq]))


# ----------------------------------------------------------------------
# text interchange format
#
#   m n
#   a_i1 ... a_in sense rhs      (m lines, sense in {<=, =, >=})
#   l_j u_j                      (optional n lines; -inf/inf literals)


def _fmt(v: float) -> str:
    v = float(v)
    if v == np.inf:
        return "inf"
    if v == -np.inf:
        return "-inf"
    return repr(v)


def format_system(sys_: LinearSystem) -> str:
    out = io.StringIO()
    out.write(f"{sys_.m} {sys_.n}\n")
    for i in range(sys_.m):
        coeffs = " ".join(_fmt(v) for v in sys_.coeffs[i])
        tok = SENSE_TOKENS[Sense(int(sys_.senses[i]))]
        out.write(f"{coeffs} {tok} {_fmt(sys_.rhs[i])}\n")
    if np.any(np.isfinite(sys_.lower)) or np.any(np.isfinite(sys_.upper)):
        for j in range(sys_.n):
            out.write(f"{_fmt(sys_.lower[j])} {_fmt(sys_.upper[j])}\n")
    return out.getvalue()


def _header(line: str) -> tuple[int, int]:
    """The 'm n' line that opens a system or matrix file: two integers,
    each at least 1."""
    try:
        m, n = map(int, line.split())
    except ValueError:
        m = n = 0
    if m < 1 or n < 1:
        raise ValueError(f"header must be 'm n', two integers of at least 1, got {line!r}")
    return m, n


def _numbers(toks: list[str], where: str) -> list[float]:
    """`toks` as floats; one that is no number raises a ValueError that
    names `where`, the line it came from."""
    try:
        return [float(t) for t in toks]
    except ValueError as exc:
        raise ValueError(f"{where}: bad number: {exc}") from None


def parse_system(text: str) -> LinearSystem:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty system file")
    m, n = _header(lines[0])
    if len(lines) - 1 not in (m, m + n):
        raise ValueError(f"expected {m} rows plus optional {n} bound lines, "
                         f"found {len(lines) - 1} data lines")
    coeffs = np.empty((m, n))
    senses = np.empty(m, dtype=np.int8)
    rhs = np.empty(m)
    for i in range(m):
        toks = lines[1 + i].split()
        if len(toks) != n + 2:
            raise ValueError(f"row {i}: expected {n} coefficients, sense and rhs")
        vals = _numbers(toks[:n] + toks[n + 1:], f"row {i}")
        coeffs[i], rhs[i] = vals[:n], vals[n]
        if toks[n] not in TOKEN_SENSES:
            raise ValueError(f"row {i}: unknown sense {toks[n]!r}")
        senses[i] = TOKEN_SENSES[toks[n]]
    lower = upper = None  # free
    if len(lines) - 1 == m + n:
        lower = np.empty(n)
        upper = np.empty(n)
        for j in range(n):
            toks = lines[1 + m + j].split()
            if len(toks) != 2:
                raise ValueError(f"bound line {j}: expected 'l u'")
            lower[j], upper[j] = _numbers(toks, f"bound line {j}")
    return LinearSystem(coeffs=coeffs, senses=senses, rhs=rhs, lower=lower, upper=upper)


def write_system(sys_: LinearSystem, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_system(sys_))


def read_system(path) -> LinearSystem:
    with open(path) as fh:
        return parse_system(fh.read())


# ----------------------------------------------------------------------
# dense matrix/vector files used by the recovery front end


def write_matrix(A: np.ndarray, path) -> None:
    A = np.asarray(A, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    m, n = _header(lines[0])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} matrix rows, found {len(lines) - 1}")
    A = np.empty((m, n))
    for i in range(m):
        toks = lines[1 + i].split()
        if len(toks) != n:
            raise ValueError(f"matrix row {i}: expected {n} entries")
        A[i] = _numbers(toks, f"matrix row {i}")
    return A


def write_vector(v: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for x in np.asarray(v, dtype=float).ravel():
            fh.write(_fmt(x) + "\n")


def read_vector(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    return np.array([_numbers([ln], f"vector entry {i}") for i, ln in enumerate(lines)]).ravel()
