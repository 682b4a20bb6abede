"""Engine correctness against scipy's HiGHS plus state-management checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfs.simplex import (
    LpStatus,
    Sense,
    SimplexSolver,
    SolverError,
    SolverOptions,
    make_problem,
    write_lp_text,
)

from conftest import scipy_lp

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
    status, z = scipy_lp(prob.c, prob.A, prob.senses, prob.b, prob.lower, prob.upper)
    assert STATUS_CODE[sol.status] == status, (sol.status, status)
    if status == 0:
        scale = 1.0 + abs(z)
        assert abs(sol.z - z) <= 1e-6 * scale, (sol.z, z)


def check_kkt(prob, sol):
    """Primal feasibility, complementary slackness, and the duality
    identity z = y.b + r.x that holds at any complementary basic pair."""
    x = sol.x
    tol = 1e-6 * (1.0 + float(np.max(np.abs(prob.b))) + float(np.max(np.abs(x), initial=0.0)))
    Ax = prob.A @ x
    for i in range(prob.m):
        s = int(prob.senses[i])
        if s == 0:
            assert abs(Ax[i] - prob.b[i]) <= tol
        elif s > 0:
            assert Ax[i] >= prob.b[i] - tol
        else:
            assert Ax[i] <= prob.b[i] + tol
        # a priced row must be binding
        assert abs(sol.duals[i] * (Ax[i] - prob.b[i])) <= tol * (1.0 + abs(sol.duals[i]))
        # sign convention for a minimisation
        if s > 0:
            assert sol.duals[i] >= -1e-7
        elif s < 0:
            assert sol.duals[i] <= 1e-7
    assert np.all(x >= prob.lower - tol) and np.all(x <= prob.upper + tol)
    gap = sol.z - (sol.duals @ prob.b + sol.reduced_costs @ x)
    assert abs(gap) <= 1e-6 * (1.0 + abs(sol.z))


def test_matches_scipy_on_random_lps():
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


def test_matches_scipy_on_bounded_lps():
    rng = np.random.default_rng(11)
    for _ in range(60):
        prob = random_lp(rng, bounded=True)
        sol = SimplexSolver().solve(prob)
        assert sol.status is not LpStatus.UNBOUNDED  # the box forbids rays
        check_against_scipy(prob, sol)
        if sol.status is LpStatus.OPTIMAL:
            check_kkt(prob, sol)


def test_beale_degenerate_example():
    # classic cycling instance for the naive pivot rule
    prob = make_problem(
        c=[-0.75, 150.0, -0.02, 6.0],
        A=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        senses=[-1, -1, -1],
        b=[0.0, 0.0, 1.0],
        lower=[0.0] * 4,
        upper=[np.inf] * 4,
    )
    sol = SimplexSolver().solve(prob)
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
    # the phase-1 basis with its artificials still open
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


def test_iteration_cap_raises():
    rng = np.random.default_rng(17)
    prob = random_lp(rng, m=6, n=6, bounded=True)
    eng = SimplexSolver(SolverOptions(max_iterations=1))
    with pytest.raises(SolverError):
        eng.solve(prob)


def test_make_problem_validation():
    with pytest.raises(ValueError):
        make_problem([1.0], [[1.0, 2.0]], [1], [0.0])  # c length
    with pytest.raises(ValueError):
        make_problem([1.0, 1.0], [[1.0, 2.0]], [1, 1], [0.0])  # senses length
    with pytest.raises(ValueError):
        make_problem([1.0], [[np.inf]], [1], [0.0])  # nonfinite
    with pytest.raises(ValueError):
        make_problem([1.0], [[1.0]], [1], [0.0], [1.0], [0.0])  # crossed bounds


def test_write_lp_text(tmp_path):
    prob = make_problem([1.0, -2.0], [[1.0, 1.0]], [Sense.LE], [4.0], [0.0, 0.0], [np.inf, 3.0])
    path = tmp_path / "toy.lp"
    write_lp_text(prob, path)
    text = path.read_text()
    assert "x0" in text and "x1" in text
    assert "<=" in text


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
