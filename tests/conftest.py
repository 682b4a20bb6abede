"""Shared oracles and generators.

The oracles here deliberately avoid the package's own machinery:
feasibility questions go to scipy's HiGHS LP solver, minimum covers and
IIS families come from explicit subset enumeration, and the changepoint
reference recomputes segment errors directly. Tests compare the
package's answers against these independent implementations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import norm

from maxfs.classify import Dataset
from maxfs.simplex import LpProblem, LpStructure, SimplexSolver
from maxfs.systems import LinearSystem

# ---------------------------------------------------------------------------
# scipy-based LP feasibility / reference solves


def scipy_feasible(sys_: LinearSystem, rows=None) -> bool:
    """Feasibility of (a row subset of) a system, by HiGHS."""
    if rows is None:
        rows = range(sys_.m)
    rows = sorted(rows)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i in rows:
        a, s, b = sys_.coeffs[i], int(sys_.senses[i]), sys_.rhs[i]
        if s == 0:
            A_eq.append(a)
            b_eq.append(b)
        elif s > 0:
            A_ub.append(-a)
            b_ub.append(-b)
        else:
            A_ub.append(a)
            b_ub.append(b)
    bounds = list(zip(
        [None if not np.isfinite(l) else l for l in sys_.lower],
        [None if not np.isfinite(u) else u for u in sys_.upper],
    ))
    res = linprog(
        c=np.zeros(sys_.n),
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    return res.status == 0


def scipy_lp(c, A, senses, b, lower, upper):
    """Reference solve of the package's LP form. Returns (status, z):
    status 0 optimal, 2 infeasible, 3 unbounded. An "infeasible" from
    HiGHS is confirmed by a zero-cost solve, and when that finds a point
    the LP is solved again without presolve: HiGHS's presolve called a
    5 x 6 LP with entries in {-2, ..., 2}, feasible at an integer point
    and unbounded, "infeasible". Presolve stays on otherwise, because
    without it HiGHS ends some infeasible LPs in numerical difficulties
    (status 4)."""
    A = np.asarray(A, dtype=float)
    senses = np.asarray(senses)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i in range(A.shape[0]):
        if senses[i] == 0:
            A_eq.append(A[i])
            b_eq.append(b[i])
        elif senses[i] > 0:
            A_ub.append(-A[i])
            b_ub.append(-b[i])
        else:
            A_ub.append(A[i])
            b_ub.append(b[i])
    bounds = list(zip(
        [None if not np.isfinite(l) else l for l in lower],
        [None if not np.isfinite(u) else u for u in upper],
    ))

    def highs(costs, presolve=True):
        return linprog(
            c=costs,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
            options={"presolve": presolve},
        )

    res = highs(c)
    if res.status == 2 and highs(np.zeros(A.shape[1])).status == 0:
        res = highs(c, presolve=False)
    return res.status, (res.fun if res.status == 0 else None)


def lp_matrix(problem):
    """An LP's whole constraint matrix [A | U]: the dense block followed
    by its unit columns written out, as the oracle needs it."""
    structure = problem.structure
    k = structure.unit_rows.size
    units = np.zeros((structure.m, k))
    units[structure.unit_rows, np.arange(k)] = structure.unit_vals
    return np.hstack([structure.A, units])


def scipy_problem(problem):
    """`scipy_lp` of a package `LpProblem`, unit columns written out."""
    rows = problem.structure
    return scipy_lp(problem.c, lp_matrix(problem), rows.senses, rows.b, rows.lower, rows.upper)


def zeroing_lp(A, b, weights=None):
    """The l1 recovery LP min sum_j w_j |y_j| s.t. A y = b written out with
    y free and one row y_j + e_j^+ - e_j^- = 0 per variable, its e pair
    (columns n + j and 2n + j) costing w_j (default 1): m + n rows, 3n
    columns, the e pairs unit columns after the dense block [A; I]. The
    split form of `maxfs.recovery` is the same LP."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    structure = LpStructure(
        A=np.vstack([A, np.eye(n)]),
        senses=np.zeros(m + n, dtype=np.int8),
        b=np.concatenate([b, np.zeros(n)]),
        lower=np.concatenate([np.full(n, -np.inf), np.zeros(2 * n)]),
        upper=np.full(3 * n, np.inf),
        unit_rows=np.tile(m + np.arange(n), 2),
        unit_vals=np.repeat([1.0, -1.0], n),
    )
    return LpProblem(c=np.concatenate([np.zeros(n), w, w]), structure=structure)


# ---------------------------------------------------------------------------
# brute-force structure oracles (small systems only)


def min_cover_size(sys_: LinearSystem) -> int:
    """Smallest number of rows whose removal leaves a feasible system."""
    m = sys_.m
    if scipy_feasible(sys_):
        return 0
    for r in range(1, m + 1):
        for drop in combinations(range(m), r):
            keep = [i for i in range(m) if i not in drop]
            if scipy_feasible(sys_, keep):
                return r
    raise AssertionError("unreachable: dropping all rows is always feasible")


def all_iises(sys_: LinearSystem) -> list[frozenset]:
    """Every irreducible infeasible subset, by full enumeration."""
    m = sys_.m
    infeasible = {}
    for r in range(1, m + 1):
        for rows in combinations(range(m), r):
            infeasible[rows] = not scipy_feasible(sys_, rows)
    out = []
    for rows, bad in infeasible.items():
        if not bad:
            continue
        proper_subsets_ok = all(
            not infeasible[tuple(sorted(set(rows) - {i}))] for i in rows
        ) if len(rows) > 1 else True
        if proper_subsets_ok:
            out.append(frozenset(rows))
    return out


def brute_force_cut(s: np.ndarray) -> int:
    """Reference mean-change rule in exact arithmetic: a direct
    two-segment search whose ties take the smallest cut, the best cut
    kept when its error is below the one-segment error of the whole
    series, and the flat guard relative to the largest magnitude.
    Every float is an integer times a power of two, so one common power
    of two turns the series into integers; that scales every error by
    the same factor and changes no comparison."""
    s = np.asarray(s, dtype=float)
    if s[0] - s[-1] <= 1e-12 * float(np.max(np.abs(s))):
        return 1
    scale = max(Fraction(x).denominator for x in s)
    v = [int(Fraction(x) * scale) for x in s]

    def sse(seg):
        return Fraction(len(seg) * sum(x * x for x in seg) - sum(seg) ** 2, len(seg))

    errors = [sse(v[:p]) + sse(v[p:]) for p in range(1, len(v))]
    best = min(errors)
    if best < sse(v):
        return errors.index(best) + 1
    return 1


# ---------------------------------------------------------------------------
# generators


def random_feasible_system(rng, m=None, n=None) -> LinearSystem:
    m = m or int(rng.integers(2, 21))
    n = n or int(rng.integers(1, 6))
    x0 = rng.normal(size=n)
    A = rng.uniform(-5, 5, size=(m, n))
    while np.any(~A.any(axis=1)):
        A = rng.uniform(-5, 5, size=(m, n))
    slack = rng.uniform(0.0, 2.0, size=m)
    senses = rng.choice([">=", "<=", "="], size=m, p=[0.4, 0.4, 0.2])
    b = A @ x0
    b = np.where(senses == ">=", b - slack, b)
    b = np.where(senses == "<=", b + slack, b)
    return LinearSystem(A, senses, b)


def bounded_system() -> LinearSystem:
    """A 15x3 system of all three senses whose variables carry every kind
    of bound: [-1, 1], (-inf, 2] and [0, inf)."""
    rng = np.random.default_rng(43)
    A = np.round(rng.uniform(-5, 5, size=(15, 3)), 3)
    return LinearSystem(A, [">=", "<=", "="] * 5, np.round(rng.uniform(-6, 6, size=15), 3),
                        lower=[-1.0, -np.inf, 0.0], upper=[1.0, 2.0, np.inf])


def random_infeasible_system(rng, m_extra=3, n=None) -> LinearSystem:
    """A feasible core plus directly contradicting row pairs."""
    n = n or int(rng.integers(1, 5))
    base = random_feasible_system(rng, m=int(rng.integers(2, 6)), n=n)
    coeffs = list(base.coeffs)
    sens = [{-1: "<=", 0: "=", 1: ">="}[int(s)] for s in base.senses]
    b = list(base.rhs)
    for _ in range(m_extra):
        a = rng.uniform(-5, 5, size=n)
        while not a.any():
            a = rng.uniform(-5, 5, size=n)
        t = rng.uniform(1.0, 3.0)
        c = rng.uniform(-2.0, 2.0)
        coeffs.extend([a, a])
        sens.extend([">=", "<="])
        b.extend([c + t, c - t])
    return LinearSystem(np.array(coeffs), sens, np.array(b))


def planted_instance(rng_or_seed, m, n, S):
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, np.random.Generator)
        else np.random.default_rng(rng_or_seed)
    )
    A = rng.uniform(-10, 10, size=(m, n))
    x = np.zeros(n)
    if S:
        x[rng.choice(n, size=S, replace=False)] = rng.standard_normal(S)
    return A, x, A @ x


def bcw_shaped(seed) -> Dataset:
    """A seeded stand-in for the breast-cancer data: 683 points in 9
    features, 444 of class 0 and 239 of class 1. The classes are
    unit-variance Gaussians whose means lie 2.8 apart, turned by a random
    rotation. Each class is Latin-hypercube stratified along every axis,
    which keeps the class overlap, and with it the removal work, steady
    from seed to seed."""
    rng = np.random.default_rng([seed, 683])

    def stratified(n, d):
        u = (np.argsort(rng.random((n, d)), axis=0) + rng.random((n, d))) / n
        return norm.ppf(u)

    z = np.vstack([stratified(444, 9), stratified(239, 9)])
    z[444:, 0] += 2.8
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    return Dataset(z @ q.T, np.repeat([0, 1], [444, 239]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def cold_starts(monkeypatch):
    """One entry per cold start of any `SimplexSolver`."""
    calls = []
    cold_start = SimplexSolver._cold_start

    def counted(self):
        calls.append(1)
        return cold_start(self)

    monkeypatch.setattr(SimplexSolver, "_cold_start", counted)
    return calls
