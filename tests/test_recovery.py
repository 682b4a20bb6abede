"""Sparse recovery methods on planted underdetermined systems."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from maxfs.recovery import (
    RESIDUAL_TOL,
    RecoveryProblem,
    _split_env,
    basis_pursuit,
    jokar_pfetsch,
    method_b,
    method_c,
    method_m,
    method_me1e2,
    postprocess,
)
from maxfs.simplex import SimplexSolver, SolverError

from conftest import planted_instance, scipy_lp, zeroing_lp

ALL_METHODS = [basis_pursuit, method_b, method_c, method_m, method_me1e2, jokar_pfetsch]


def planted_problem(seed, m, n, S):
    A, x, b = planted_instance(seed, m, n, S)
    return RecoveryProblem(A, b), x


def check_result(prob, res):
    assert np.max(np.abs(prob.A @ res.y - prob.b)) <= RESIDUAL_TOL
    assert res.support == {int(j) for j in np.flatnonzero(np.abs(res.y) > prob.zero_tol)}
    assert res.T == len(res.support)
    assert res.lp_count >= 1


def test_problem_validation():
    with pytest.raises(ValueError):
        RecoveryProblem(np.ones((3, 3)), np.ones(3))  # square
    with pytest.raises(ValueError):
        RecoveryProblem(np.ones((2, 4)), np.ones(3))  # b length
    with pytest.raises(ValueError):
        RecoveryProblem(np.ones(4), np.ones(1))  # not 2-d
    with pytest.raises(ValueError):
        RecoveryProblem(np.full((1, 2), np.nan), np.ones(1))
    with pytest.raises(ValueError):
        RecoveryProblem(np.empty((0, 2)), np.empty(0))  # no rows


@pytest.mark.parametrize("fn", [method_b, method_c, method_m, jokar_pfetsch])
@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_rejected(fn, k):
    # method_m is included on an instance where it would take the
    # basis-pursuit shortcut and never use k
    prob, _ = planted_problem(3, 8, 16, 2)
    assert method_m(prob).bp_shortcut_taken
    with pytest.raises(ValueError, match="k must be at least 1"):
        fn(prob, k=k)


def test_zero_rhs_recovers_zero():
    prob, _ = planted_problem(1, 6, 12, 0)
    for fn in ALL_METHODS:
        res = fn(prob)
        assert res.T == 0, fn.__name__
        assert np.max(np.abs(res.y)) <= prob.zero_tol
        check_result(prob, res)


def test_single_spike():
    A = np.eye(2, 4)
    A[:, 2:] = [[3.0, 1.0], [1.0, 2.0]]
    b = np.array([0.0, 5.0])
    prob = RecoveryProblem(A, b)
    for fn in ALL_METHODS:
        res = fn(prob)
        check_result(prob, res)
        assert res.T <= 2, fn.__name__


@pytest.mark.parametrize("fn", ALL_METHODS, ids=lambda f: f.__name__)
def test_planted_sparse_vectors_are_found(fn):
    for seed in range(5):
        prob, x = planted_problem(seed, 16, 32, 3)
        res = fn(prob)
        check_result(prob, res)
        assert np.max(np.abs(res.y - x)) <= 1e-6, (fn.__name__, seed)
        assert res.support == {int(j) for j in np.flatnonzero(x)}


def test_infeasible_rhs_raises_value_error():
    # b outside the column space: row space has rank 1, b does not comply
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    b = np.array([1.0, 3.0])
    prob = RecoveryProblem(A, b)
    with pytest.raises(ValueError, match="range"):
        basis_pursuit(prob)
    with pytest.raises(ValueError):
        method_b(prob)


def test_bp_is_single_lp():
    prob, _ = planted_problem(3, 10, 20, 2)
    res = basis_pursuit(prob)
    assert res.lp_count == 1
    assert res.iterations == 0
    sol = SimplexSolver().solve(_split_env(prob, None).problem)
    assert (res.pivots, res.degenerate_pivots) == (sol.pivots, sol.degenerate_pivots)


def test_method_m_shortcut_on_bp_recoverable_instance():
    prob, x = planted_problem(4, 16, 32, 3)
    bp = basis_pursuit(prob)
    assert bp.T < prob.m - 3  # this instance is the shortcut case
    res = method_m(prob)
    assert res.bp_shortcut_taken
    assert res.lp_count == 1
    assert (res.pivots, res.degenerate_pivots) == (bp.pivots, bp.degenerate_pivots)
    assert np.array_equal(res.y, bp.y)


def test_method_m_falls_through_when_bp_is_dense():
    # S close to m defeats plain l1 minimisation at this aspect ratio
    prob, x = planted_problem(11, 10, 20, 8)
    bp = basis_pursuit(prob)
    assert bp.T >= prob.m - 3  # dense first solve, so the search must run
    res = method_m(prob)
    assert not res.bp_shortcut_taken
    b_res = method_b(prob)
    # method_b's first LP is basis pursuit's, solved once and counted once
    assert res.lp_count == b_res.lp_count
    assert (res.pivots, res.degenerate_pivots) == (b_res.pivots, b_res.degenerate_pivots)
    assert res.pivots >= bp.pivots
    assert np.array_equal(res.y, b_res.y)


def test_me1e2_is_one_lp_when_bp_recovers():
    prob, x = planted_problem(5, 16, 32, 3)
    res = method_me1e2(prob)
    assert res.lp_count == 1
    assert np.max(np.abs(res.y - x)) <= 1e-6


def test_me1e2_ell_below_one_disables_bulk_exit():
    prob, x = planted_problem(6, 4, 8, 1)
    res = method_me1e2(prob, ell=0)
    check_result(prob, res)
    assert res.support == {int(j) for j in np.flatnonzero(x)}


def test_methods_report_deterministic_counts():
    prob, _ = planted_problem(7, 12, 24, 4)
    for fn in ALL_METHODS:
        a, b = fn(prob), fn(prob)
        assert a.lp_count == b.lp_count
        assert a.support == b.support
        assert np.array_equal(a.y, b.y)


def test_method_b_and_c_iteration_counts_positive_when_bp_fails():
    prob, x = planted_problem(11, 10, 20, 8)
    for fn in (method_b, method_c):
        res = fn(prob)
        check_result(prob, res)
        assert res.iterations >= 1, fn.__name__
        assert res.lp_count > 1


def test_removal_loop_methods_keep_their_rounds():
    prob, _ = planted_problem(11, 10, 20, 8)
    for fn in (method_b, method_c, method_me1e2, jokar_pfetsch):
        res = fn(prob)
        assert len(res.removal_sizes) == res.iterations >= 1, fn.__name__
        assert min(res.removal_sizes) >= 1, fn.__name__
        # Z after the first solve and after each solved round; an exit
        # that deletes without solving leaves out its own round
        assert res.iterations <= len(res.z_history) <= res.iterations + 1, fn.__name__
    # me1e2 deletes the head of its ranking, a group at a time
    me = method_me1e2(prob)
    assert max(me.removal_sizes) > 1
    assert me.lp_count < method_b(prob).lp_count
    # method_m's fallback reports method_b's rounds
    assert method_m(prob).removal_sizes == method_b(prob).removal_sizes
    shortcut, _ = planted_problem(4, 16, 32, 3)
    for res in (basis_pursuit(prob), method_m(shortcut)):
        assert res.removal_sizes == () and res.z_history == ()


# ----------------------------------------------------------------------
# the recorded basis-pursuit optimum

HISTORY_CASES = [(11, 10, 20, 8), (4, 16, 32, 3), (12, 24, 48, 10)]


@pytest.mark.parametrize("case", HISTORY_CASES)
def test_bp_lp_is_solved_cold_once_per_problem(cold_starts, case):
    prob, _ = planted_problem(*case)
    for fn in ALL_METHODS:
        check_result(prob, fn(prob))
    assert len(cold_starts) == 1


@pytest.mark.parametrize("case", HISTORY_CASES)
def test_results_do_not_depend_on_call_history(case):
    shared, _ = planted_problem(*case)
    for fn in ALL_METHODS:
        fn(shared)
    for fn in ALL_METHODS:
        late = fn(shared)   # after every method ran on this problem
        fresh = fn(planted_problem(*case)[0])
        name = fn.__name__
        assert late.support == fresh.support, name
        assert (late.lp_count, late.pivots, late.degenerate_pivots) == (
            fresh.lp_count, fresh.pivots, fresh.degenerate_pivots), name
        assert late.removal_sizes == fresh.removal_sizes, name
        assert late.z_history == pytest.approx(fresh.z_history, rel=1e-12, abs=1e-12), name
        assert np.max(np.abs(late.y - fresh.y)) <= 1e-12, name


def test_env_and_engine_are_freed_without_the_collector():
    # a reference cycle would keep every method call's LP alive until
    # the garbage collector ran
    prob, _ = planted_problem(4, 16, 32, 3)
    env = _split_env(prob, 0.0, dual_list=True)
    env.solve_current()
    engine = weakref.ref(env.engine)
    gc.disable()
    try:
        del env
        assert engine() is None
    finally:
        gc.enable()


def test_problem_data_are_read_only_copies():
    A, _, b = planted_instance(3, 6, 12, 2)
    prob = RecoveryProblem(A, b)
    with pytest.raises(ValueError, match="read-only"):
        prob.A[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        prob.b[0] = 1.0
    A[0, 0] += 1.0
    b[0] += 1.0
    assert prob.A[0, 0] != A[0, 0] and prob.b[0] != b[0]
    basis_pursuit(prob)
    assert prob._bp is not None
    assert dataclasses.replace(prob)._bp is None
    assert dataclasses.replace(prob, b=-prob.b)._bp is None


# ----------------------------------------------------------------------
# postprocessing


def test_postprocess_drops_redundant_columns():
    # columns 0 and 1 are identical; b needs only one of them
    A = np.array([[1.0, 1.0, 0.0, 2.0], [0.0, 0.0, 1.0, 1.0]])
    b = np.array([2.0, 0.0])
    prob = RecoveryProblem(A, b)
    pruned = postprocess(prob, {0, 1})
    assert pruned in ({0}, {1})
    assert len(pruned) == 1


def test_postprocess_keeps_minimal_support():
    prob, x = planted_problem(8, 12, 24, 3)
    true_support = {int(j) for j in np.flatnonzero(x)}
    assert postprocess(prob, true_support) == true_support


def test_postprocess_empty_support_only_for_zero_rhs():
    prob, _ = planted_problem(9, 6, 12, 0)
    assert postprocess(prob, set()) == frozenset()
    nz, _ = planted_problem(9, 6, 12, 2)
    assert postprocess(nz, set(range(nz.n))) != frozenset()


def test_result_vector_is_not_thresholded():
    # the support ignores sub-threshold noise but y keeps it, so the
    # residual bound holds exactly as returned
    prob, x = planted_problem(10, 16, 32, 3)
    res = method_b(prob)
    assert np.max(np.abs(prob.A @ res.y - prob.b)) <= RESIDUAL_TOL


def test_bp_terminates_on_degenerate_dense_instance():
    # a 128x256 draw that once trapped the pricing loop in a degenerate
    # cycle; Bland's entering rule alone did not break it, the leaving
    # tie-break has to follow suit
    from maxfs.bench import SweepSpec, gen_instance

    spec = SweepSpec(
        m=128, n=256, s_levels=(52,), instances=20, seed=61, methods=("bp",)
    )
    prob, x = gen_instance(spec, 52, 14)
    res = basis_pursuit(prob)
    assert res.lp_count == 1
    np.testing.assert_allclose(res.y, x, atol=1e-6)


def test_split_form_is_the_zeroing_form():
    # method_c's dual list rests on this: the split LP it solves and the
    # zeroing form (y free, rows y_j + e_j^+ - e_j^- = 0 carrying the
    # weights) are one LP, so they reach the same Z, and the split
    # form's row duals p satisfy |a_j^T p| <= w_j, w_j the weight of j
    A, _, b = planted_instance(43, 12, 24, 9)
    prob = RecoveryProblem(A, b)
    env = _split_env(prob, 0.0, dual_list=True)
    w = np.ones(prob.n)
    sol = env.solve_current()
    for _ in range(4):
        _, cands, _ = env.candidates(sol)
        env.remove_batch(cands[:1])
        w[cands[0]] = 0.0
        sol = env.solve_current()
        zero = zeroing_lp(A, b, w)
        status, z = scipy_lp(zero.c, zero.A, zero.senses, zero.b, zero.lower, zero.upper)
        assert status == 0
        assert z > 0.0
        assert abs(sol.z - z) <= 1e-9 * z
        assert np.all(np.abs(A.T @ sol.duals) <= w + 1e-9)
