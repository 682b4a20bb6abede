"""Engine correctness against scipy's HiGHS plus state-management checks."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfs import simplex
from maxfs.classify import Dataset, build_constraints
from maxfs.recovery import RecoveryProblem, _split_env, _split_problem
from maxfs.simplex import (
    Basis,
    LpProblem,
    LpStatus,
    LpStructure,
    Sense,
    SimplexSolver,
    SolverError,
    make_problem,
)
from maxfs.systems import LinearSystem, elasticize, lift_bounds

from conftest import lp_matrix, scipy_problem, zeroing_lp

STATUS_CODE = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 2, LpStatus.UNBOUNDED: 3}


def random_lp(rng, m=None, n=None, bounded=False):
    m = m or int(rng.integers(1, 8))
    n = n or int(rng.integers(1, 7))
    A = np.round(rng.uniform(-5, 5, size=(m, n)), 3)
    c = np.round(rng.uniform(-3, 3, size=n), 3)
    b = np.round(rng.uniform(-5, 5, size=m), 3)
    senses = rng.choice([-1, 0, 1], size=m, p=[0.4, 0.2, 0.4])
    if bounded:
        lower = np.zeros(n)
        upper = np.full(n, 10.0)
    else:
        lower = np.where(rng.random(n) < 0.7, 0.0, -np.inf)
        upper = np.where(rng.random(n) < 0.3, rng.uniform(1, 8, size=n), np.inf)
        upper = np.maximum(upper, lower)
    return make_problem(c, A, senses, b, lower, upper)


def random_feasible_lp(rng, m, n):
    # x = 0 satisfies every row, so the box-bounded LP is always optimal
    A = np.round(rng.uniform(-5, 5, size=(m, n)), 3)
    c = np.round(rng.uniform(-3, 3, size=n), 3)
    b = np.round(rng.uniform(0.5, 5, size=m), 3)
    return make_problem(c, A, np.full(m, -1), b, np.zeros(n), np.full(n, 10.0))


def check_against_scipy(prob, sol):
    status, z = scipy_problem(prob)
    assert STATUS_CODE[sol.status] == status, (sol.status, status)
    if status == 0:
        scale = 1.0 + abs(z)
        assert abs(sol.z - z) <= 1e-6 * scale, (sol.z, z)


def check_kkt(prob, sol):
    """Primal feasibility, complementary slackness, and the duality
    identity z = y.b + r.x that holds at any complementary basic pair."""
    rows = prob.structure
    x = sol.x
    tol = 1e-6 * (1.0 + float(np.max(np.abs(rows.b))) + float(np.max(np.abs(x), initial=0.0)))
    Ax = lp_matrix(prob) @ x
    for i in range(rows.m):
        s = int(rows.senses[i])
        if s == 0:
            assert abs(Ax[i] - rows.b[i]) <= tol
        elif s > 0:
            assert Ax[i] >= rows.b[i] - tol
        else:
            assert Ax[i] <= rows.b[i] + tol
        # a priced row must be binding
        assert abs(sol.duals[i] * (Ax[i] - rows.b[i])) <= tol * (1.0 + abs(sol.duals[i]))
        # sign convention for a minimisation
        if s > 0:
            assert sol.duals[i] >= -1e-7
        elif s < 0:
            assert sol.duals[i] <= 1e-7
    assert np.all(x >= rows.lower - tol) and np.all(x <= rows.upper + tol)
    gap = sol.z - (sol.duals @ rows.b + sol.reduced_costs @ x)
    assert abs(gap) <= 1e-6 * (1.0 + abs(sol.z))


def check_random_corpus():
    rng = np.random.default_rng(7)
    optimal = 0
    for _ in range(120):
        prob = random_lp(rng)
        sol = SimplexSolver().solve(prob)
        check_against_scipy(prob, sol)
        if sol.status is LpStatus.OPTIMAL:
            optimal += 1
            check_kkt(prob, sol)
    assert optimal >= 30  # the mix must actually exercise the optimal path


def test_matches_scipy_on_random_lps():
    check_random_corpus()


def test_matches_scipy_on_bounded_lps():
    rng = np.random.default_rng(11)
    for _ in range(60):
        prob = random_lp(rng, bounded=True)
        sol = SimplexSolver().solve(prob)
        assert sol.status is not LpStatus.UNBOUNDED  # the box forbids rays
        check_against_scipy(prob, sol)
        if sol.status is LpStatus.OPTIMAL:
            check_kkt(prob, sol)


def beale_lp():
    # classic cycling instance for the naive pivot rule; its optimum is -0.05
    return make_problem(
        c=[-0.75, 150.0, -0.02, 6.0],
        A=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        senses=[-1, -1, -1],
        b=[0.0, 0.0, 1.0],
        lower=[0.0] * 4,
        upper=[np.inf] * 4,
    )


def test_beale_degenerate_example():
    sol = SimplexSolver().solve(beale_lp())
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.z - (-0.05)) <= 1e-9


def test_infeasible_and_unbounded_classification():
    bad = make_problem([0.0, 0.0], [[1, 1], [1, 1]], [0, 0], [1.0, 2.0])
    assert SimplexSolver().solve(bad).status is LpStatus.INFEASIBLE

    down = make_problem([-1.0], [[1.0]], [1], [0.0], [0.0], [np.inf])
    assert SimplexSolver().solve(down).status is LpStatus.UNBOUNDED


def test_fixed_and_negative_bounds():
    prob = make_problem(
        c=[1.0, 1.0, -1.0],
        A=[[1.0, 1.0, 1.0]],
        senses=[1],
        b=[-1.0],
        lower=[2.0, -5.0, -3.0],
        upper=[2.0, -1.0, -3.0],
    )
    sol = SimplexSolver().solve(prob)
    check_against_scipy(prob, sol)
    if sol.status is LpStatus.OPTIMAL:
        assert abs(sol.x[0] - 2.0) <= 1e-9
        assert abs(sol.x[2] - (-3.0)) <= 1e-9


def test_cost_swap_reuses_state():
    rng = np.random.default_rng(3)
    prob = random_feasible_lp(rng, m=6, n=5)
    eng = SimplexSolver()
    first = eng.solve(prob)
    assert first.status is LpStatus.OPTIMAL
    c2 = prob.c.copy()
    c2[0] += 0.5
    warm = eng.solve(prob.with_costs(c2))
    cold = SimplexSolver().solve(prob.with_costs(c2))
    assert warm.status is cold.status is LpStatus.OPTIMAL
    assert abs(warm.z - cold.z) <= 1e-8 * (1.0 + abs(cold.z))
    assert warm.iterations <= max(cold.iterations, 1)


def test_unchanged_costs_resolve_instantly():
    rng = np.random.default_rng(5)
    prob = random_feasible_lp(rng, m=5, n=4)
    eng = SimplexSolver()
    first = eng.solve(prob)
    again = eng.solve(prob)
    # one pricing pass confirms optimality; no pivots happen
    assert again.iterations <= 1
    assert abs(again.z - first.z) <= 1e-12


def test_infeasible_solve_leaves_no_warm_state():
    # a re-solve after proven infeasibility must start cold, not from
    # the basis the dual simplex stopped at, still out of bounds
    prob = make_problem([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1, -1], [3.0, 1.0],
                        [0.0, 0.0], [np.inf, np.inf])
    eng = SimplexSolver()
    assert eng.solve(prob).status is LpStatus.INFEASIBLE
    assert eng.solve(prob.with_costs([1.0, 2.0])).status is LpStatus.INFEASIBLE
    with pytest.raises(SolverError):
        eng.save_state()


def test_save_load_state_roundtrip():
    rng = np.random.default_rng(13)
    prob = random_feasible_lp(rng, m=6, n=5)
    eng = SimplexSolver()
    sol = eng.solve(prob)
    snap = eng.save_state()
    c2 = prob.c.copy()
    c2[: len(c2) // 2] *= -1.0
    eng.solve(prob.with_costs(c2))
    eng.load_state(snap)
    back = eng.solve(prob)
    assert back.iterations <= 1
    assert abs(back.z - sol.z) <= 1e-12


def test_iteration_cap_raises(monkeypatch):
    rng = np.random.default_rng(17)
    prob = random_lp(rng, m=6, n=6, bounded=True)
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    with pytest.raises(SolverError):
        SimplexSolver().solve(prob)


def test_make_problem_validation():
    with pytest.raises(ValueError):
        make_problem([1.0], [[1.0, 2.0]], [1], [0.0])  # c length
    with pytest.raises(ValueError):
        make_problem([1.0, 1.0], [[1.0, 2.0]], [1, 1], [0.0])  # senses length
    with pytest.raises(ValueError):
        make_problem([1.0], [[np.inf]], [1], [0.0])  # nonfinite
    with pytest.raises(ValueError):
        make_problem([1.0], [[1.0]], [1], [0.0], [1.0], [0.0])  # crossed bounds
    # a NaN bound passes `lower > upper`; it must not be solved as a number
    for lo, hi in (([np.nan], [5.0]), ([0.0], [np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            make_problem([1.0], [[1.0]], [1], [1.0], lo, hi)
    # infinite bounds stay legal: min x over x >= 1, -inf <= x <= 5
    prob = make_problem([1.0], [[1.0]], [1], [1.0], [-np.inf], [5.0])
    assert SimplexSolver().solve(prob).z == 1.0


def test_every_problem_checks_its_costs():
    # one check for `make_problem` and `with_costs`: a NaN cost used to
    # reach the pricing step, and an infinite one solved to z = nan
    prob = make_problem([1, 1], [[1, 1]], [">="], [1], lower=[0, 0])
    for bad in ([np.inf, 1.0], [np.nan, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="costs must be finite"):
            prob.with_costs(bad)
        with pytest.raises(ValueError, match="costs must be finite"):
            make_problem(bad, [[1, 1]], [">="], [1], lower=[0, 0])
    with pytest.raises(ValueError, match="shape"):
        prob.with_costs([1.0, 1.0, 1.0])
    assert SimplexSolver().solve(prob.with_costs([2, 1])).z == 1.0


def test_make_problem_senses():
    A, b = [[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]
    for senses in ([1, 0, -1], [Sense.GE, Sense.EQ, Sense.LE], [">=", "=", "<="],
                   [1.0, 0.0, -1.0], np.array([1, 0, -1], dtype=np.int8), [Sense.GE, "=", -1]):
        prob = make_problem([0.0], A, senses, b)
        assert list(prob.structure.senses) == [1, 0, -1]
        assert prob.structure.senses.dtype == np.int8
    for bad, row in (([1, 0.5, -1], 1), ([1, 0, -0.7], 2), ([1, 0, 2], 2), ([1, -2, 0], 1),
                     ([">=", ">", "<="], 1), (["=>", "=", "<="], 0), ([1, 0, np.nan], 2)):
        with pytest.raises(ValueError, match=f"row {row}"):
            make_problem([0.0], A, bad, b)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_small_lps_match_scipy(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    ints = st.integers(-4, 4)
    A = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                    min_size=m, max_size=m)), dtype=float)
    for i in range(m):
        if not A[i].any():
            A[i, 0] = 1.0
    c = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)
    b = np.array(data.draw(st.lists(ints, min_size=m, max_size=m)), dtype=float)
    senses = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m))
    prob = make_problem(c, A, senses, b, np.zeros(n), np.full(n, 6.0))
    sol = SimplexSolver().solve(prob)
    check_against_scipy(prob, sol)


# ---------------------------------------------------------------------------
# block-triangular basis: every basis-change kind, snapshots, counters

KINDS = ("_replace_dense", "_grow", "_swap_row")


@pytest.fixture
def kinds(monkeypatch):
    """Counts of each basis-change kind the engine makes during a test,
    under "rebuilds" the pivots that refactored instead, and under
    "kinks" one (row, lam, rho_j + rho_j') per kink passed. After every
    pivot and every kink pass, solves with the factorisation must match
    the explicit basis matrix, and the entering eligibility the column
    states."""
    counts = dict.fromkeys(KINDS, 0)
    counts["rebuilds"] = 0
    counts["kinks"] = []
    for name in KINDS:
        method = getattr(SimplexSolver, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SimplexSolver, name, counted)
    pivot, pass_kinks = SimplexSolver._apply_pivot, SimplexSolver._pass_kinks
    rng = np.random.default_rng(0)

    def basis(self):
        return np.column_stack([self._col(j) for j in self._basis])

    def check(self, B):
        a = rng.standard_normal(self._m)
        tol = 1e-8 * np.abs(B).max()
        assert np.abs(B @ self._ftran(a) - a).max() <= tol
        assert np.abs(B.T @ self._btran(a) - a).max() <= tol

    def checked(self, t, pos, w):
        refactors = self._refactors
        pivot(self, t, pos, w)
        counts["rebuilds"] += self._refactors - refactors
        check(self, basis(self))
        check_eligibility(self)

    def passed(self, pos, w):
        j = self._basis[pos]
        jp = self._partner[j]
        assert np.all(self._x[j] != 0.0)  # never a member sitting at its kink
        c, side = self._costs, self._side
        rho = c[j] * side[j] + c[jp] * side[jp]
        assert np.all(rho >= 0.0)  # never a non-convex kink
        counts["kinks"].extend(zip(self._colrow[j].tolist(), self._lam[j].tolist(),
                                   rho.tolist()))
        a_t = basis(self) @ w
        pass_kinks(self, pos, w)
        B = basis(self)
        check(self, B)
        check_eligibility(self)
        # the adjusted w still solves B w = a_t in the new basis
        assert np.abs(B @ w - a_t).max() <= 1e-8 * (1.0 + np.abs(a_t).max())

    monkeypatch.setattr(SimplexSolver, "_apply_pivot", checked)
    monkeypatch.setattr(SimplexSolver, "_pass_kinks", passed)
    return counts


def check_eligibility(eng):
    """The price signs and free nonbasic columns the engine keeps up to
    date are the ones its column states give."""
    assert np.array_equal(eng._price, simplex._PRICE_SIGN[eng._vstat] * eng._movable)
    free = eng._free
    assert np.array_equal(eng._free_nb, free[eng._vstat[free] == simplex.NB_FREE])


def check_against_fresh_engine(prob, sol):
    fresh = SimplexSolver().solve(prob)
    assert fresh.status is sol.status
    if sol.status is LpStatus.OPTIMAL:
        assert abs(fresh.z - sol.z) <= 1e-7 * (1.0 + abs(fresh.z)), (sol.z, fresh.z)


def run_cost_sequence(prob, costs):
    """Solve each cost vector warm on one engine. After each solve, save,
    probe the next cost vector, restore and re-solve: the re-solve must
    take at most one iteration and return the same Z. Returns how many
    probes changed the number of dense basic columns."""
    eng = SimplexSolver()
    k_changes = 0
    for i, c in enumerate(costs):
        p = prob.with_costs(c)
        sol = eng.solve(p)
        check_against_scipy(p, sol)
        check_against_fresh_engine(p, sol)
        if i + 1 == len(costs):
            break
        k = eng._k
        snap = eng.save_state()
        eng.solve(prob.with_costs(costs[i + 1]))
        k_changes += eng._k != k
        eng.load_state(snap)
        again = eng.solve(p)
        assert again.iterations <= 1
        assert abs(again.z - sol.z) <= 1e-9 * (1.0 + abs(sol.z))
    return k_changes


def removal_costs(model, steps):
    """Elastic costs after deleting, one at a time, the most violated row
    of the fresh solution before each deletion."""
    costs = [model.lp_costs()]
    for _ in range(steps):
        sol = SimplexSolver().solve(model.lp_problem())
        v = model.violations(sol)
        v[list(model.removed_rows)] = -1.0
        if v.max() <= 1e-9:
            break
        model = model.remove_row(int(np.argmax(v)))
        costs.append(model.lp_costs())
    return costs


def passed_rows(kinds, problem, m):
    """The kind of row of each kink passed: its sense, or "bound" for
    a row that `lift_bounds` wrote from a variable bound (index >= m)."""
    name = {Sense.GE: "GE", Sense.LE: "LE", Sense.EQ: "EQ"}
    return {"bound" if r >= m else name[Sense(int(problem.structure.senses[r]))]
            for r, _, _ in kinds["kinks"]}


def test_standard_mode_with_equality_rows(kinds):
    # every third row an equality, so its +- penalty pair sits on one row
    rng = np.random.default_rng(23)
    A = np.round(rng.uniform(-5, 5, size=(18, 3)), 3)
    senses = np.array([">=", "<=", "="] * 6)
    base = LinearSystem(A, senses, np.round(rng.uniform(-4, 4, size=18), 3))
    model = elasticize(base)
    assert np.any(model.row_elastics[:, 0] != model.row_elastics[:, 1])
    run_cost_sequence(model.problem, removal_costs(model, 6))
    assert kinds["_grow"] > 0 and kinds["_swap_row"] > 0
    # kinks of all three senses are passed: lam = +1 on GE rows, -1 on
    # LE rows and on an equality's e+/e- pair
    assert passed_rows(kinds, model.problem, 18) == {"GE", "LE", "EQ"}
    assert {lam for _, lam, _ in kinds["kinks"]} == {1.0, -1.0}


def test_full_mode_with_bound_rows(kinds):
    rng = np.random.default_rng(29)
    A = np.round(rng.uniform(-5, 5, size=(14, 4)), 3)
    senses = rng.choice([">=", "<="], size=14)
    base = LinearSystem(A, senses, np.round(rng.uniform(-6, 6, size=14), 3),
                        lower=np.full(4, -1.0), upper=np.full(4, 1.0))
    model = elasticize(lift_bounds(base))
    assert model.base.m == 14 + 8
    run_cost_sequence(model.problem, removal_costs(model, 5))
    assert kinds["_grow"] > 0 and kinds["_swap_row"] > 0
    assert "bound" in passed_rows(kinds, model.problem, 14)
    # a deleted row's kink costs nothing to pass
    assert any(rho == 0.0 for _, _, rho in kinds["kinks"])


@pytest.mark.parametrize("form", ["split", "zeroing"])
def test_recovery_forms(kinds, form):
    # the split form fills a kernel of k = m dense columns; in the
    # zeroing form the e+/e- unit columns own their rows, which leaves
    # k < m, and pair up there as kinks
    rng = np.random.default_rng(31)
    A = rng.uniform(-10, 10, size=(12, 24))
    y = np.zeros(24)
    y[rng.choice(24, size=5, replace=False)] = rng.standard_normal(5)
    if form == "split":
        env = _split_env(RecoveryProblem(A, A @ y), 0.1)
        problem, columns, deleted = env.problem, env.columns, 0.1
    else:
        problem = zeroing_lp(A, A @ y)
        columns, deleted = [(24 + j, 48 + j) for j in range(24)], 0.0
    costs = [problem.c.copy()]
    for entity in rng.choice(24, size=4, replace=False):
        c = costs[-1].copy()
        c[list(columns[entity])] = deleted
        costs.append(c)
    run_cost_sequence(problem, costs)
    assert kinds["_grow"] > 0
    eng = SimplexSolver()
    eng.solve(problem)
    if form == "split":
        assert kinds["_replace_dense"] > 0  # every basic column ends up dense
        # the fixed EQ slacks leave no kink pair
        assert not eng._kinks and kinds["kinks"] == []
    else:
        assert eng._k < problem.structure.m and eng._kinks


def test_full_kernel_is_in_position_and_row_order():
    # the split form's cold solve ends with every basic column dense; the
    # refactor at the pivot that filled the kernel put slot i at position
    # i and row i, which the solves with B on a full kernel assume
    problem = split_form()
    m = problem.structure.m
    eng = SimplexSolver()
    assert eng.solve(problem).status is LpStatus.OPTIMAL
    assert eng._k == m
    for name in ("_dpos", "_krow", "_prow"):
        assert np.array_equal(getattr(eng, name), np.arange(m)), name
    B = np.column_stack([eng._col(j) for j in eng._basis])
    for a in np.random.default_rng(5).standard_normal((3, m)):
        ref = np.linalg.solve(B, a)
        assert np.abs(eng._ftran(a) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_unit_columns_solve_like_their_dense_copy():
    # the zeroing LP with its e+/e- identity blocks written densely
    # through make_problem: every column of A is dense to the engine, so
    # the copy's only singletons are its slacks, and both forms reach
    # HiGHS's optimum at the same point
    prob = planted_recovery(np.random.default_rng(31), 12, 24, 5)
    units = zeroing_lp(prob.A, prob.b)
    rows = units.structure
    dense = make_problem(units.c, lp_matrix(units), rows.senses, rows.b, rows.lower, rows.upper)
    x = []
    for problem in (units, dense):
        eng = SimplexSolver()
        sol = eng.solve(problem)
        check_against_scipy(problem, sol)
        x.append(sol.x)
    assert np.all(eng._colrow[: dense.structure.n] == -1)
    assert np.abs(x[0] - x[1]).max() <= 1e-9


def test_singleton_replaces_dense_column(kinds):
    # maximising x1 + x2 makes both dense columns basic; minimising
    # drives them out again, each replaced by its row's slack
    prob = make_problem([-1.0, -1.0], [[1.0, 1.0], [1.0, -1.0]], [-1, -1], [4.0, 2.0],
                        [0.0, 0.0], [np.inf, np.inf])
    k_changes = run_cost_sequence(prob, [prob.c, np.array([1.0, 1.0]), prob.c])
    assert kinds["rebuilds"] > 0 and kinds["_grow"] > 0
    assert k_changes > 0


def large_elastic_model():
    """The elastic LP of two overlapping Gaussian classes in the 683 x 9
    shape of the breast-cancer data."""
    rng = np.random.default_rng(37)
    X = np.vstack([rng.normal(0.0, 1.0, size=(444, 9)), rng.normal(0.9, 1.0, size=(239, 9))])
    ds = Dataset(X, np.repeat([0, 1], [444, 239]))
    return elasticize(build_constraints(ds))


def test_snapshot_of_a_large_elastic_lp_is_small():
    # k stays near 10, so a snapshot must not hold anything m x m
    model = large_elastic_model()
    eng = SimplexSolver()
    assert eng.solve(model.lp_problem()).status is LpStatus.OPTIMAL
    snap = eng.save_state()
    m = model.base.m
    floats = sum(arr.nbytes for arr in snap.arrays.values()) / 8
    assert floats < 0.05 * m * m
    # nor the LP itself: its penalty columns are unit columns
    structure = model.problem.structure
    floats = sum(getattr(structure, f.name).nbytes for f in fields(structure)) / 8
    assert floats < 0.05 * m * m


def test_snapshot_from_another_structure_is_refused():
    p1 = make_problem([1, 1], [[1, 1], [1, -1]], [1, -1], [2, 0], [0, 0], [np.inf, np.inf])
    p2 = make_problem([1, 2], [[1, 2], [3, 1]], [1, 1], [4, 3], [0, 0], [np.inf, np.inf])
    eng = SimplexSolver()
    eng.solve(p1)
    s = eng.save_state()
    eng.solve(p2)
    with pytest.raises(ValueError):
        eng.load_state(s)
    assert abs(eng.solve(p2).z - SimplexSolver().solve(p2).z) <= 1e-12


def test_counters():
    rng = np.random.default_rng(41)
    prob = random_feasible_lp(rng, m=8, n=6)
    eng = SimplexSolver()
    first = eng.solve(prob)
    assert first.pivots > 0 and first.refactors >= 1
    assert first.pivots + first.bound_flips < first.iterations
    assert first.degenerate_pivots <= first.pivots
    assert first.kink_passes == 0  # slacks only: no row has a kink pair
    again = eng.solve(prob)
    assert (again.pivots, again.bound_flips, again.refactors, again.kink_passes) == (0,) * 4
    # a fixed-size LP with a box: the entering variable can run to its
    # other bound without a basis change
    box = make_problem([-1.0, -1.0], [[1.0, 1.0]], [-1], [10.0], [0.0, 0.0], [1.0, 1.0])
    flips = SimplexSolver().solve(box)
    assert flips.bound_flips == 2 and flips.pivots == 0


# ---------------------------------------------------------------------------
# the long step over kinks: a row's slack/elastic pair (or an equality's
# e+/e- pair) is one variable whose cost has a kink at 0


def test_large_elastic_lp_passes_its_kinks():
    # one step moves many violated rows across their kinks: without the
    # long step this cold solve takes 739 pivots
    model = large_elastic_model()
    prob = model.lp_problem()
    sol = SimplexSolver().solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.pivots <= 100 and sol.kink_passes > 0
    _, z = scipy_problem(prob)
    assert abs(sol.z - z) <= 1e-9 * abs(z)


def test_long_step_ends_in_a_bound_flip(kinds):
    # x in [0, 0.5] against x >= 0.2, 0.4, 0.6: x enters with slope -3,
    # passes the first two kinks (slope -1) and stops at its own bound
    base = LinearSystem([[1.0]] * 3, [">="] * 3, [0.2, 0.4, 0.6], lower=[0.0], upper=[0.5])
    prob = elasticize(base).lp_problem()
    sol = SimplexSolver().solve(prob)
    check_against_scipy(prob, sol)
    assert abs(sol.z - 0.1) <= 1e-12
    assert (sol.pivots, sol.bound_flips, sol.kink_passes) == (0, 1, 2)
    assert [r for r, _, _ in kinds["kinks"]] == [0, 1]


def test_nonconvex_kink_is_not_passed(kinds):
    # a negative elastic cost on the x >= 1.5 row makes its kink
    # non-convex (and the LP unbounded along that row's pair): the step
    # passes the kink at x = 1 and stops at that row
    base = LinearSystem([[1.0]] * 4, [">="] * 4, [1.0, 1.5, 2.0, 3.0], lower=[0.0], upper=[np.inf])
    model = elasticize(base)
    c = model.lp_costs()
    c[model.row_elastics[1][0]] = -1.0
    prob = model.problem.with_costs(c)
    sol = SimplexSolver().solve(prob)
    check_against_scipy(prob, sol)
    assert sol.status is LpStatus.UNBOUNDED
    assert kinds["kinks"][0][0] == 0
    assert 1 not in {r for r, _, _ in kinds["kinks"]}


def test_kink_member_at_zero_is_not_passed(kinds):
    # x >= 0 starts with its slack basic at 0; x falls with slope -2, and
    # passing that kink would leave the slope at -1, but a zero step
    # passes nothing: the first pivot is degenerate
    base = LinearSystem([[1.0]] * 3, [">=", "<=", "<="], [0.0, -1.0, -2.0])
    prob = elasticize(base).lp_problem()
    sol = SimplexSolver().solve(prob)
    check_against_scipy(prob, sol)
    assert abs(sol.z - 2.0) <= 1e-12
    assert sol.degenerate_pivots >= 1


# ---------------------------------------------------------------------------
# cold starts: the dual simplex from the crash basis, against HiGHS


@pytest.fixture
def dual_starts(monkeypatch):
    """One entry per cold start that runs the dual simplex: how many
    nonbasic columns of the crash basis had a reduced cost of the wrong
    sign for their bound state, and so needed a cost shift."""
    shifts = []
    run = SimplexSolver._dual_simplex

    def counted(self):
        d = self._reduced_costs(self._dual_values())
        vstat = self._vstat
        wrong = ((vstat == simplex.NB_LOWER) & (d < 0.0)) | ((vstat == simplex.NB_UPPER) & (d > 0.0))
        wrong |= (vstat == simplex.NB_FREE) & (d != 0.0)
        shifts.append(int(np.count_nonzero(wrong & (self._hi > self._lo))))
        return run(self)

    monkeypatch.setattr(SimplexSolver, "_dual_simplex", counted)
    return shifts


def cold_start_lp(rng, family):
    """A seeded LP whose crash basis leaves slacks basic out of their
    bounds (a third of its rows or more are equalities, or, in the
    inequality family, every row is LE or GE). Columns start at a lower
    bound with a negative cost, at an upper bound with a positive cost,
    or free, so the crash basis is not dual feasible as it stands."""
    m, n = int(rng.integers(5, 25)), int(rng.integers(5, 25))
    A = np.round(rng.uniform(-5, 5, size=(m, n)), 3)
    kind = rng.integers(0, 3, size=n)   # 0: [0, inf), 1: (-inf, 2], 2: free
    lower = np.where(kind == 0, 0.0, -np.inf)
    upper = np.where(kind == 1, 2.0, np.inf)
    c = np.round(rng.uniform(0.1, 3, size=n), 3) * np.where(kind == 0, -1.0, 1.0)
    c[kind == 2] *= rng.choice([-1.0, 1.0], size=np.count_nonzero(kind == 2))
    if family == "equality":
        # bounded, mostly equality rows: always optimal
        lower, upper = np.full(n, -2.0), np.full(n, 3.0)
        senses = np.where(rng.random(m) < 0.8, 0, rng.choice([-1, 1], size=m))
    elif family == "inequality":
        # LE and GE rows only: each slack has one finite bound, which
        # the dual simplex sends it back to when the crash leaves it out
        senses = rng.choice([-1, 1], size=m)
    else:
        senses = rng.choice([-1, 0, 1], size=m, p=[0.3, 0.4, 0.3])
    if family == "unbounded":
        # the last two columns are one free column with two costs: the
        # ray along their difference lowers Z without end
        A[:, -1] = A[:, -2]
        lower[-2:], upper[-2:] = -np.inf, np.inf
        c[-2:] = (1.0, -2.0)
    x0 = np.clip(rng.normal(size=n), np.maximum(lower, -3.0), np.minimum(upper, 3.0))
    b = A @ x0 - senses * rng.uniform(0.0, 1.0, size=m)   # x0 is feasible
    if family == "near-duplicate":
        k = int(rng.integers(1, m))
        A[k] = A[0] * (1.0 + rng.normal(scale=1e-6, size=n))
        senses[k] = senses[0] = rng.choice([-1, 1])
        b[[0, k]] = A[[0, k]] @ x0 - senses[[0, k]] * rng.uniform(0.0, 1e-3, size=2)
    elif family == "scaled":
        s = 10.0 ** rng.uniform(-4, 4, size=m)
        A, b = A * s[:, None], b * s
    elif family == "integer-degenerate":
        # entries in {-2, ..., 2} and every row tight at an integer x0
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = A @ np.round(x0)
    elif family == "infeasible":
        # equality rows 0, 1 and k = 0 + 1, whose right-hand sides disagree
        k = int(rng.integers(2, m))
        A[k] = A[0] + A[1]
        senses[[0, 1, k]] = 0
        b[[0, 1]] = A[[0, 1]] @ x0
        b[k] = b[0] + b[1] + rng.uniform(0.5, 2.0)
    return make_problem(c, A, senses, b, lower, upper)


@pytest.mark.parametrize("family, statuses", [
    ("mixed", {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}),
    ("equality", {LpStatus.OPTIMAL}),
    ("scaled", {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}),
    ("near-duplicate", {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}),
    ("infeasible", {LpStatus.INFEASIBLE}),
    ("unbounded", {LpStatus.UNBOUNDED}),
    ("inequality", {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}),
    ("integer-degenerate", {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}),
])
def test_cold_starts_match_highs(dual_starts, family, statuses):
    # status and Z as HiGHS has them, from a crash basis that needs a
    # cost shift in nearly every LP
    rng = np.random.default_rng([43, sum(map(ord, family))])
    seen = set()
    for _ in range(30):
        prob = cold_start_lp(rng, family)
        sol = SimplexSolver().solve(prob)
        check_against_scipy(prob, sol)
        if sol.status is LpStatus.OPTIMAL and family != "scaled":
            check_kkt(prob, sol)
        seen.add(sol.status)
    assert seen == statuses
    # an inequality LP's crash basis is now and then primal feasible as
    # it stands, and then no dual simplex runs
    assert len(dual_starts) == 30 or (family == "inequality" and len(dual_starts) >= 27)
    assert sum(s > 0 for s in dual_starts) >= 27


def unit_column_lp(rng):
    """A seeded LP with a dense block and random unit columns (values
    +-1 or 2.5), every column in [0, inf) or [-1, 2], feasible at a
    random point."""
    m, n, nu = int(rng.integers(5, 25)), int(rng.integers(2, 15)), int(rng.integers(1, 50))
    A = np.round(rng.uniform(-5, 5, size=(m, n)), 3)
    rows = rng.integers(0, m, size=nu)
    vals = rng.choice([1.0, -1.0, 2.5], size=nu)
    boxed = rng.random(n + nu) < 0.5
    lower, upper = np.where(boxed, -1.0, 0.0), np.where(boxed, 2.0, np.inf)
    c = np.round(rng.uniform(-3, 3, size=n + nu), 3)
    senses = rng.choice([-1, 0, 1], size=m, p=[0.3, 0.4, 0.3]).astype(np.int8)
    x0 = np.clip(rng.normal(size=n + nu), lower, np.minimum(upper, 3.0))
    b = A @ x0[:n] + np.bincount(rows, vals * x0[n:], minlength=m)
    b -= senses * rng.uniform(0.0, 1.0, size=m)
    return LpProblem(c=c, structure=LpStructure(A=A, senses=senses, b=b, lower=lower,
                                                upper=upper, unit_rows=rows, unit_vals=vals))


def test_cold_starts_with_unit_columns_match_highs(monkeypatch):
    # the crash hands a row's residual that its slack cannot take to a
    # unit column of the row, in most LPs here; the solves then price
    # the unit columns and form A x over them
    crashed = []
    take = SimplexSolver._take_basis

    def recorded(self, basis, vstat, x):
        crashed.append(np.count_nonzero((basis >= self._nd) & (basis < self._n)))
        take(self, basis, vstat, x)

    monkeypatch.setattr(SimplexSolver, "_take_basis", recorded)
    rng = np.random.default_rng([43, 1])
    seen = set()
    for _ in range(30):
        prob = unit_column_lp(rng)
        sol = SimplexSolver().solve(prob)
        check_against_scipy(prob, sol)
        if sol.status is LpStatus.OPTIMAL:
            check_kkt(prob, sol)
        seen.add(sol.status)
    assert seen == {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}
    assert len(crashed) == 30 and sum(k > 0 for k in crashed) >= 20


def test_oracle_confirms_an_infeasible_verdict():
    # HiGHS's presolve (scipy 1.17) calls this LP infeasible, yet it is
    # feasible at x = (0, 0, 2, -2, 2, 0) and unbounded; `scipy_lp`
    # solves it again without presolve and agrees with the engine
    A = [[1, 0, 0, -2, 0, -1], [2, 2, -1, -2, -2, -2], [2, -2, 2, -2, 0, -1],
         [-2, -1, -1, 2, 2, 2], [-2, 2, -1, -2, -1, 0]]
    inf = np.inf
    prob = make_problem([-0.63, -0.5, 1.056, 1.101, -0.213, -1.205], A, [0, 1, -1, 0, -1],
                        [4.0, -2.0, 8.0, -2.0, 0.0], [0, 0, -inf, -inf, 0, -inf],
                        [inf, inf, inf, 2.0, inf, inf])
    sol = SimplexSolver().solve(prob)
    assert sol.status is LpStatus.UNBOUNDED
    check_against_scipy(prob, sol)


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_infeasibility_tolerance_scales_with_b(scale):
    # x >= scale and x <= scale - eps: infeasible by eps, which counts
    # only above INFEAS_TOL * (1 + max|b|)
    tol = simplex.INFEAS_TOL * (1.0 + scale)
    for gap, status in ((0.5, LpStatus.OPTIMAL), (2.0, LpStatus.INFEASIBLE)):
        prob = make_problem([1.0], [[1.0], [1.0]], [1, -1], [scale, scale - gap * tol],
                            [0.0], [np.inf])
        assert SimplexSolver().solve(prob).status is status


def test_elastic_cold_start_runs_no_dual_simplex(dual_starts):
    # every row's residual fits its slack or its elastic column
    model = large_elastic_model()
    assert SimplexSolver().solve(model.lp_problem()).status is LpStatus.OPTIMAL
    assert dual_starts == []


@pytest.mark.parametrize("calls", [1, 2])
def test_dual_loop_refreshes_a_small_pivot_once(monkeypatch, calls):
    # w[r] comes from the entering column by FTRAN, but that column was
    # chosen from row r of B^-1 A by BTRAN; when the two disagree the
    # dual loop refactors and tries again, and a second small pivot
    # right after the refactor raises. Here the first `calls` columns
    # the engine reads come back times 1e-14
    problem = _split_problem(planted_recovery(np.random.default_rng([41, 1]), 16, 32, 5))
    ref = SimplexSolver().solve(problem)
    col, count = SimplexSolver._col, [0]

    def shrunk(self, j):
        count[0] += 1
        return col(self, j) * (1e-14 if count[0] <= calls else 1.0)

    monkeypatch.setattr(SimplexSolver, "_col", shrunk)
    if calls == 2:
        with pytest.raises(SolverError, match="numerically singular pivot"):
            SimplexSolver().solve(problem)
        return
    sol = SimplexSolver().solve(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.refactors == ref.refactors + 1
    assert abs(sol.z - ref.z) <= 1e-9


def planted_recovery(rng, m, n, s):
    """A uniform(-10, 10) in R^{m x n}, b = A y for a y with s Gaussian
    nonzeros at random positions (the benchmark's generator)."""
    A = rng.uniform(-10.0, 10.0, size=(m, n))
    y = np.zeros(n)
    y[rng.choice(n, size=s, replace=False)] = rng.standard_normal(s)
    return RecoveryProblem(A, A @ y)


def basic_fixed_slacks(eng):
    """Basis positions held by a fixed (equality-row) slack."""
    basis = eng._basis
    return np.flatnonzero((basis >= eng._n) & (eng._lo[basis] == eng._hi[basis]))


def replaceable_fixed_slacks(eng):
    """Basis positions held by a fixed slack that a nonbasic structural
    or slack column could replace: its row of B^-1 A is nonzero there."""
    found = []
    for pos in basic_fixed_slacks(eng):
        unit = np.zeros(eng._m)
        unit[pos] = 1.0
        row = eng._btran(unit)
        alpha = np.concatenate([eng._A.T @ row, row])
        if np.any((eng._vstat != simplex.BASIC) & (np.abs(alpha) > 1e-7)):
            found.append(int(pos))
    return found


@pytest.mark.parametrize("i", range(5))
def test_basis_pursuit_cold_solve_pivot_budget(dual_starts, i):
    # the split form's all-slack crash basis is dual feasible as it
    # stands (y = 0, d = c >= 0)
    m, n = 128, 256
    problem = _split_problem(planted_recovery(np.random.default_rng([41, i]), m, n, 52))
    eng = SimplexSolver()
    sol = eng.solve(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.pivots <= 4 * m
    _, z = scipy_problem(problem)
    assert abs(sol.z - z) <= 1e-9 * abs(z)
    assert dual_starts == [0]
    assert replaceable_fixed_slacks(eng) == []


def test_leftover_fixed_slack_is_pivoted_out(monkeypatch):
    # here the dual simplex ends with one fixed slack basic at about 6e-14
    leftovers = []
    pivot_out = SimplexSolver._pivot_out_fixed_slacks

    def counted(self):
        leftovers.append(basic_fixed_slacks(self).size)
        pivot_out(self)

    monkeypatch.setattr(SimplexSolver, "_pivot_out_fixed_slacks", counted)
    problem = _split_problem(planted_recovery(np.random.default_rng([41, 1]), 64, 128, 20))
    eng = SimplexSolver()
    assert eng.solve(problem).status is LpStatus.OPTIMAL
    assert leftovers == [1]
    assert basic_fixed_slacks(eng).size == 0


def test_leftover_fixed_slack_gives_way_to_the_largest_pivot(monkeypatch):
    # row 2 is row 0 + 1000 x row 1, so a fixed slack stays basic at 0
    # after the dual simplex. Its row of B^-1 A is about 1e-3 at the
    # lowest-index column that could replace it and 1 at another: the
    # one with the largest |alpha| enters
    chosen = []
    pivot = SimplexSolver._apply_pivot

    def recorded(self, t, pos, w):
        if pos in basic_fixed_slacks(self):
            alpha = np.abs(self._pivot_row(pos))
            alpha[self._vstat == simplex.BASIC] = 0.0
            chosen.append((abs(alpha[t]), alpha.max()))
        pivot(self, t, pos, w)

    monkeypatch.setattr(SimplexSolver, "_apply_pivot", recorded)
    A = np.array([[1.0, 0.1, 2.0], [1.0, 3.0, -1.0], [0.0, 0.0, 0.0]])
    b = np.array([1.0, 2.0, 0.0])
    A[2], b[2] = A[0] + 1000.0 * A[1], b[0] + 1000.0 * b[1]
    prob = make_problem([1.0, 1.0, 1.0], A, [0, 0, 0], b, [0.0] * 3, [np.inf] * 3)
    sol = SimplexSolver().solve(prob)
    check_against_scipy(prob, sol)
    assert chosen and all(a == best for a, best in chosen)


# ---------------------------------------------------------------------------
# Bland's rule, and the entering eligibility across snapshots


@pytest.fixture
def bland_pivots(monkeypatch):
    """Bland's rule after every degenerate pivot (BLAND_AFTER = 1). Counts
    the pivots Bland's rule chose in the primal and in the dual loop: a
    pivot chosen by the default rule goes through `_largest_pivot`, one
    chosen by Bland's rule does not."""
    monkeypatch.setattr(simplex, "BLAND_AFTER", 1)
    counts = {"primal": 0, "dual": 0, "pivot_out": 0}
    loop = ["primal"]

    def tagged(name, method):
        def run(self):
            loop.append(name)
            try:
                return method(self)
            finally:
                loop.pop()
        return run

    for name, attr in (("dual", "_dual_simplex"), ("pivot_out", "_pivot_out_fixed_slacks")):
        monkeypatch.setattr(SimplexSolver, attr, tagged(name, getattr(SimplexSolver, attr)))
    pivot, largest = SimplexSolver._apply_pivot, simplex._largest_pivot

    def counted_pivot(self, *args):
        counts[loop[-1]] += 1
        return pivot(self, *args)

    def counted_largest(*args):
        counts[loop[-1]] -= 1
        return largest(*args)

    monkeypatch.setattr(SimplexSolver, "_apply_pivot", counted_pivot)
    monkeypatch.setattr(simplex, "_largest_pivot", counted_largest)
    return counts


def test_bland_rule_on_the_random_corpus(bland_pivots):
    # degenerate primal pivots are rare here; degenerate dual steps of
    # the cold starts are not
    check_random_corpus()
    assert bland_pivots["dual"] > 0


def test_bland_rule_on_beale(bland_pivots):
    sol = SimplexSolver().solve(beale_lp())
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.z - (-0.05)) <= 1e-9
    assert bland_pivots["primal"] > 0


def test_bland_rule_in_the_dual_loop(bland_pivots):
    # a +-1 matrix makes ties, and so zero dual steps, in the split form's
    # cold dual simplex
    rng = np.random.default_rng([41, 0])
    A = rng.choice([-1.0, 0.0, 1.0], size=(16, 32))
    y = np.zeros(32)
    y[rng.choice(32, size=6, replace=False)] = rng.integers(1, 3, size=6)
    problem = _split_problem(RecoveryProblem(A, A @ y))
    sol = SimplexSolver().solve(problem)
    check_against_scipy(problem, sol)
    assert bland_pivots["dual"] > 0


@pytest.mark.parametrize("bland", [False, True])
def test_every_blocker_has_a_pivot_above_the_tolerance(monkeypatch, bland):
    # only a basic column with |w| > PIVOT_TOL has a finite ratio, so the
    # primal loop pivots on the blocker the ratio test returns, or on the
    # one a long step over kinks ends at, with no size check. With
    # BLAND_AFTER = 0 every pivot after the first is Bland's
    blockers = {"plain": 0, "long step": 0}
    test = SimplexSolver._ratio_test

    def checked(self, t, sigma, w, *args):
        out = test(self, t, sigma, w, *args)
        _, blocker, _, passed = out
        if blocker is not None and blocker >= 0:
            assert abs(w[blocker]) > simplex.PIVOT_TOL
            blockers["plain" if passed is None else "long step"] += 1
        return out

    monkeypatch.setattr(SimplexSolver, "_ratio_test", checked)
    if bland:
        monkeypatch.setattr(simplex, "BLAND_AFTER", 0)
    for family in ("mixed", "equality", "scaled", "near-duplicate", "inequality",
                   "integer-degenerate"):
        rng = np.random.default_rng([43, sum(map(ord, family))])
        for _ in range(30):
            prob = cold_start_lp(rng, family)
            check_against_scipy(prob, SimplexSolver().solve(prob))
    check_against_scipy(beale_lp(), SimplexSolver().solve(beale_lp()))
    # an elastic LP of overlapping classes, whose long steps pass kinks
    rng = np.random.default_rng(47)
    X = np.vstack([rng.normal(0.0, 1.0, size=(60, 2)), rng.normal(1.0, 1.0, size=(60, 2))])
    prob = elasticize(build_constraints(Dataset(X, np.repeat([0, 1], 60)))).lp_problem()
    sol = SimplexSolver().solve(prob)
    check_against_scipy(prob, sol)
    assert blockers["plain"] > 0
    if not bland:
        assert sol.kink_passes > 0 and blockers["long step"] > 0


def snapshot_case(case):
    """An LP, detour costs and final costs for a save/detour/restore."""
    if case == "free column":
        # x0 >= 1 fixes the duals, and w (free, cost 0) prices to 0 and
        # stays nonbasic; the detour makes w enter, the final costs too
        inf = np.inf
        prob = make_problem([1.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
                            [1, 1, -1], [1.0, 0.0, 5.0], [0.0, -inf, 0.0], [inf, inf, inf])
        return prob, [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]
    if case == "split form":
        prob = planted_recovery(np.random.default_rng([41, 2]), 16, 32, 6)
        problem = _split_problem(prob)
        nonzero = np.flatnonzero(SimplexSolver().solve(problem).x)
        detour, final = problem.c.copy(), problem.c.copy()
        detour[nonzero[:3]] = 0.0
        final[nonzero[3:5]] = 0.0
        return problem, detour, final
    rng = np.random.default_rng(47)
    X = np.vstack([rng.normal(0.0, 1.0, size=(30, 2)), rng.normal(1.0, 1.0, size=(30, 2))])
    model = elasticize(build_constraints(Dataset(X, np.repeat([0, 1], 30))))
    costs = removal_costs(model, 3)
    return model.problem.with_costs(costs[0]), costs[3], costs[1]


@pytest.mark.parametrize("case", ["free column", "split form", "elastic"])
def test_restored_state_solves_like_the_state_it_saved(case):
    # a probe's detour changes which columns may enter; load_state must
    # bring that back with the basis, or the next solve prices stale signs
    prob, detour, final = snapshot_case(case)
    eng, kept = SimplexSolver(), SimplexSolver()
    eng.solve(prob)
    kept.solve(prob)
    snap = eng.save_state()
    eng.solve(prob.with_costs(detour))
    eng.load_state(snap)
    check_eligibility(eng)
    back, ref = eng.solve(prob.with_costs(final)), kept.solve(prob.with_costs(final))
    assert ref.pivots > 0
    assert (back.pivots, back.degenerate_pivots) == (ref.pivots, ref.degenerate_pivots)
    # the same arithmetic on copied arrays: a BLAS product may round
    # differently at another memory alignment, so x agrees to rounding
    assert np.allclose(back.x, ref.x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("saved_k", [0, 1])
def test_restored_state_grows_its_kernel(kinds, saved_k):
    # x >= 0 under positive LE rows: at costs >= 0 the optimum is x = 0
    # with every slack basic (k = 0), and one negative cost brings one
    # dense column in (k = 1). After a detour and a restore, all-negative
    # costs make dense columns enter, each bordering the restored C, and
    # `kinds` checks the solves with B after every pivot
    rng = np.random.default_rng(53)
    m, n = 8, 5
    c = rng.uniform(0.5, 1.0, n)
    c[:saved_k] *= -1.0
    prob = make_problem(c, rng.uniform(0.5, 2.0, size=(m, n)), np.full(m, -1),
                        rng.uniform(1.0, 2.0, m), np.zeros(n))
    eng = SimplexSolver()
    eng.solve(prob)
    assert eng._k == saved_k
    snap = eng.save_state()
    eng.solve(prob.with_costs(-rng.uniform(0.5, 1.0, n)))
    eng.load_state(snap)
    final = prob.with_costs(-rng.uniform(0.5, 1.0, n))
    sol, ref = eng.solve(final), SimplexSolver().solve(final)
    assert saved_k + 1 < eng._k < m
    assert sol.status is ref.status is LpStatus.OPTIMAL
    assert abs(sol.z - ref.z) <= 1e-12 * abs(ref.z)
    assert np.allclose(sol.x, ref.x, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# starting from a given basis


def split_form(sign=1.0):
    prob = planted_recovery(np.random.default_rng([41, 3]), 24, 48, 10)
    return _split_problem(RecoveryProblem(prob.A, sign * prob.b))


def test_optimal_start_basis_prices_once(cold_starts):
    problem = split_form()
    eng = SimplexSolver()
    sol = eng.solve(problem)
    start = eng.basis()
    assert (start.pivots, start.degenerate_pivots) == (sol.pivots, sol.degenerate_pivots) != (0, 0)
    again = SimplexSolver()
    warm = again.solve(problem, start)
    assert cold_starts == [1]
    assert warm.status is LpStatus.OPTIMAL
    assert (warm.pivots, warm.refactors) == (0, 1)
    assert np.allclose(warm.x, sol.x, rtol=1e-12, atol=1e-12)
    check_eligibility(again)
    # the engine goes on warm from the installed basis
    assert again.solve(problem).pivots == 0 and cold_starts == [1]


@pytest.mark.parametrize("case", ["misses its bounds", "singular"])
def test_unusable_start_basis_starts_cold(cold_starts, case):
    eng = SimplexSolver()
    eng.solve(split_form())
    start = eng.basis()
    if case == "misses its bounds":
        # the optimum for b has positive basic values; for -b they flip
        problem = split_form(-1.0)
    else:
        # u_j and v_j, whose column is -a_j, both basic
        problem = split_form()
        basis, vstat = start.basis.copy(), start.vstat.copy()
        n = problem.structure.n
        p = int(np.flatnonzero(basis < n)[0])
        q = (p + 1) % basis.size
        partner = (basis[p] + n // 2) % n
        vstat[basis[q]], vstat[partner] = simplex.NB_LOWER, simplex.BASIC
        basis[q] = partner
        start = Basis(basis, vstat, 0, 0)
    cold_starts.clear()
    sol = SimplexSolver().solve(problem, start)
    assert cold_starts == [1]
    check_against_scipy(problem, sol)
    assert sol.status is LpStatus.OPTIMAL


def test_start_basis_whose_refactor_raises_starts_cold(cold_starts, monkeypatch):
    problem = split_form()
    eng = SimplexSolver()
    cold = eng.solve(problem)
    start = eng.basis()
    # the first row's slack basic in the first two positions: two
    # singleton columns share a row, so the refactor raises
    basis, vstat = start.basis.copy(), start.vstat.copy()
    slack = problem.structure.n
    vstat[basis[:2]] = simplex.NB_LOWER
    basis[:2] = slack
    vstat[slack] = simplex.BASIC
    raised = []
    take = SimplexSolver._take_basis

    def recorded(self, *args):
        try:
            take(self, *args)
        except SolverError as e:
            raised.append(str(e))
            raise

    monkeypatch.setattr(SimplexSolver, "_take_basis", recorded)
    cold_starts.clear()
    sol = SimplexSolver().solve(problem, Basis(basis, vstat, 0, 0))
    assert raised == ["singular basis: two singleton columns share a row"]
    assert cold_starts == [1]
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.z - cold.z) <= 1e-9 * abs(cold.z)


def test_start_basis_must_fit_the_structure():
    eng = SimplexSolver()
    eng.solve(split_form())
    problem = _split_problem(planted_recovery(np.random.default_rng([41, 4]), 8, 16, 2))
    with pytest.raises(ValueError, match="does not fit"):
        SimplexSolver().solve(problem, eng.basis())
