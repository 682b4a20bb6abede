"""Candidate builders, the removal loop, and the row-deletion search."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from maxfs.core import (
    Candidate,
    CandidateKind,
    CostDeletionEnv,
    ExitReason,
    RemovalLedger,
    StrategyConfig,
    build_candidates_alg1,
    build_candidates_alg2,
    build_candidates_alg3,
    run_removal_loop,
    solve_maxfs,
)
from maxfs.recovery import RecoveryProblem, _zero_env
from maxfs.simplex import LpSolution, LpStatus, SimplexSolver, SolverError
from maxfs.systems import ElasticMode, elasticize, system

from conftest import (
    min_cover_size,
    planted_instance,
    random_feasible_system,
    random_infeasible_system,
    scipy_feasible,
)


# ----------------------------------------------------------------------
# candidate builders, on a handcrafted solution


def _handmade():
    sys_ = system(
        [[1.0], [1.0], [1.0], [1.0]], [">=", "<=", "=", ">="], [2.0, 1.0, 1.5, 0.0]
    )
    model = elasticize(sys_)
    # columns: x, e0, e1, e2+, e2-, e3
    x = np.array([0.0, 0.5, 0.0, 0.2, 0.1, 0.0])
    duals = np.array([1.0, -0.5, 2.0, 0.0])
    sol = LpSolution(
        status=LpStatus.OPTIMAL,
        z=0.8,
        x=x,
        duals=duals,
        reduced_costs=np.zeros(6),
        iterations=0,
    )
    return model, sol


def test_alg1_ranks_by_absolute_dual():
    model, sol = _handmade()
    cands = build_candidates_alg1(sol, model)
    assert [c.entity for c in cands] == [2, 0, 1]  # |2.0| > |1.0| > |-0.5|
    assert [c.score for c in cands] == [2.0, 1.0, 0.5]
    assert all(c.kind is CandidateKind.DUAL for c in cands)
    assert [c.entity for c in build_candidates_alg1(sol, model, k=2)] == [2, 0]


def test_alg2_ranks_violated_rows_by_product():
    model, sol = _handmade()
    cands = build_candidates_alg2(sol, model)
    # row 0: 0.5 x 1.0 = 0.5; row 2: max(0.2, 0.1) x 2.0 = 0.4
    assert [(c.entity, c.score) for c in cands] == [(0, 0.5), (2, 0.4)]
    assert all(c.kind is CandidateKind.VIOLATION_PRODUCT for c in cands)
    assert [c.entity for c in build_candidates_alg2(sol, model, k=1)] == [0]


def test_alg3_merges_violated_and_satisfied_lists():
    model, sol = _handmade()
    cands = build_candidates_alg3(sol, model, k=1)
    # one from each list: top violated row 0, top satisfied-with-price row 1
    assert [c.entity for c in cands] == [0, 1]
    assert cands[0].kind is CandidateKind.VIOLATION_PRODUCT
    assert cands[1].kind is CandidateKind.SATISFIED_DUAL
    full = build_candidates_alg3(sol, model)
    assert [c.entity for c in full] == [0, 2, 1]  # row 3 has no dual price


def test_builders_skip_removed_rows():
    model, sol = _handmade()
    removed = model.remove_row(0)
    assert [c.entity for c in build_candidates_alg2(sol, removed)] == [2]
    assert 0 not in [c.entity for c in build_candidates_alg1(sol, removed)]


def test_equal_scores_rank_by_row_index():
    sys_ = system([[1.0], [1.0]], [">=", ">="], [1.0, 1.0])
    model = elasticize(sys_)
    sol = LpSolution(
        status=LpStatus.OPTIMAL,
        z=0.6,
        x=np.array([0.0, 0.3, 0.3]),
        duals=np.array([1.0, 1.0]),
        reduced_costs=np.zeros(3),
        iterations=0,
    )
    assert [c.entity for c in build_candidates_alg2(sol, model)] == [0, 1]


# ----------------------------------------------------------------------
# the removal loop, on a scripted environment with no LP inside


class ToyEnv:
    """Z is the sum of active weights; deleting an entity subtracts its
    weight. Candidates are the active positive-weight entities, largest
    first. Mirrors the protocol the loop relies on, nothing more."""

    def __init__(self, weights, k=None):
        self.w = dict(enumerate(map(float, weights)))
        self.active = set(self.w)
        self.k = k
        self.lp_count = 0

    def _z(self):
        return sum(self.w[e] for e in self.active)

    def _sol(self, z):
        return SimpleNamespace(z=z)

    def solve_current(self):
        self.lp_count += 1
        return self._sol(self._z())

    def candidates(self, sol):
        pool = sorted(
            (e for e in self.active if self.w[e] > 0), key=lambda e: (-self.w[e], e)
        )
        cands = [Candidate(e, self.w[e], CandidateKind.VIOLATION_PRODUCT) for e in pool]
        return len(cands), cands if self.k is None else cands[: self.k]

    def probe(self, entity):
        self.lp_count += 1
        return self._sol(self._z() - self.w[entity]), entity

    def adopt(self, entity, state):
        self.active.discard(entity)

    def remove_batch(self, entities):
        self.active -= set(entities)


def test_probing_loop_picks_min_probe_and_singleton_exits():
    env = ToyEnv([3.0, 2.0])
    tel = run_removal_loop(env, ztol=1e-6, max_iterations=50)
    # round 1 probes both and deletes the heavier entity; round 2 sees a
    # one-entry pool and deletes without probing
    assert tel.exit_reason is ExitReason.SINGLETON
    assert tel.ledger.entities() == [0, 1]
    assert tel.probes == 2
    assert tel.iterations == 2
    assert tel.removal_sizes == [1, 1]
    assert env.lp_count == 3  # initial solve + two probes
    # the singleton's z comes from the caller's finishing solve
    assert tel.z_history == [5.0, 2.0]


def test_probing_loop_early_adopts_a_feasible_probe():
    env = ToyEnv([3.0, 2.0, 0.5])
    tel = run_removal_loop(env, ztol=2.5, max_iterations=50)
    # the first probe already reaches ztol; the other two candidates of
    # the round are never probed
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.ledger.entities() == [0]
    assert tel.probes == 1
    assert tel.z_history == [5.5, 2.5]
    assert env.lp_count == 2


def test_probing_loop_feasible_at_start():
    env = ToyEnv([0.0, 0.0])
    tel = run_removal_loop(env, ztol=1e-6, max_iterations=50)
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.iterations == 0
    assert len(tel.ledger) == 0
    assert env.lp_count == 1


def test_probing_loop_exit_on_empty_keeps_positive_z():
    env = ToyEnv([1.0, 2.0])
    tel = run_removal_loop(env, ztol=1e-6, exit_on_empty=True, max_iterations=50)
    # exit_on_empty never early-adopts; it drains the pool instead
    assert tel.exit_reason in (ExitReason.EMPTY_CANDIDATES, ExitReason.SINGLETON)
    assert set(tel.ledger.entities()) == {0, 1}


def test_probing_loop_raises_on_empty_pool_with_positive_z():
    class NoCands(ToyEnv):
        def candidates(self, sol):
            return 0, []

    with pytest.raises(SolverError):
        run_removal_loop(NoCands([1.0]), ztol=1e-6, max_iterations=50)


def test_probing_loop_respects_iteration_cap():
    # round 1 deletes entity 0 and leaves Z = 3 with a two-entry pool;
    # a second round would exceed the cap
    with pytest.raises(SolverError, match="1 rounds"):
        run_removal_loop(ToyEnv([3.0, 2.0, 1.0]), ztol=1e-6, max_iterations=1)


def test_probing_loop_e2_bulk_exit_first_round_only():
    env = ToyEnv([2.0, 1.0])
    tel = run_removal_loop(
        env, ztol=1e-6, e2_ell=2, e2_first_iteration_only=True, max_iterations=50
    )
    assert tel.exit_reason is ExitReason.BULK_E2
    assert tel.removal_sizes == [2]
    assert env.lp_count == 1  # no probe happened

    # pool too large on round one: the bulk exit stays off afterwards
    env2 = ToyEnv([3.0, 2.0, 1.0])
    tel2 = run_removal_loop(
        env2, ztol=1e-6, e2_ell=2, e2_first_iteration_only=True, max_iterations=50
    )
    assert tel2.exit_reason is not ExitReason.BULK_E2


def test_batch_loop_cuts_score_groups():
    env = ToyEnv([10.0, 10.0, 10.0, 1.0, 1.0, 1.0])
    tel = run_removal_loop(env, ztol=1e-6, batch=True, max_iterations=50)
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.removal_sizes == [3, 1, 1, 1]
    assert tel.iterations == 4
    assert env.lp_count == tel.iterations + 1  # one solve per round plus the last
    # batch entries learn the z of the next solve
    zs = [tel.z_history[e.iteration] for e in tel.ledger]
    assert zs == [3.0, 3.0, 3.0, 2.0, 1.0, 0.0]
    assert tel.z_history == [33.0, 3.0, 2.0, 1.0, 0.0]
    # the cap counts removal rounds, as for probing: four fit a cap of 4
    weights = [10.0, 10.0, 10.0, 1.0, 1.0, 1.0]
    capped = run_removal_loop(ToyEnv(weights), ztol=1e-6, batch=True, max_iterations=4)
    assert capped.exit_reason is ExitReason.FEASIBLE
    with pytest.raises(SolverError, match="3 rounds"):
        run_removal_loop(ToyEnv(weights), ztol=1e-6, batch=True, max_iterations=3)


def test_batch_loop_has_no_singleton_shortcut_by_default():
    env = ToyEnv([5.0])
    tel = run_removal_loop(env, ztol=1e-6, batch=True, max_iterations=50)
    # the lone candidate goes through the mean-change cut and the next
    # solve certifies feasibility; exit is FEASIBLE, not SINGLETON
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.removal_sizes == [1]
    assert env.lp_count == 2


def test_batch_loop_e2_gating():
    env = ToyEnv([5.0, 5.0, 5.0, 1.0])
    tel = run_removal_loop(
        env, ztol=1e-6, batch=True, e2_ell=2, e2_first_iteration_only=True,
        max_iterations=50,
    )
    # round 1 pool has 4 entries, too many; the flag keeps E2 off later
    assert tel.exit_reason is ExitReason.FEASIBLE

    env2 = ToyEnv([5.0, 5.0, 5.0, 1.0])
    tel2 = run_removal_loop(
        env2, ztol=1e-6, batch=True, e2_ell=2, e2_first_iteration_only=False,
        max_iterations=50,
    )
    assert tel2.exit_reason is ExitReason.BULK_E2
    assert tel2.removal_sizes[-1] == 1  # the tail entity went out in bulk


def test_batch_loop_exit_on_empty():
    env = ToyEnv([2.0, 1.0])
    tel = run_removal_loop(env, ztol=1e-6, batch=True, exit_on_empty=True, max_iterations=50)
    assert tel.exit_reason is ExitReason.EMPTY_CANDIDATES
    assert set(tel.ledger.entities()) == {0, 1}
    assert tel.last_solution.z == 0.0


def test_probe_restores_engine_state():
    # one row-form and one recovery-form environment; every entity is
    # probed, and after each probe the current costs re-solve at once
    model = elasticize(random_infeasible_system(np.random.default_rng(9)))
    row_env = CostDeletionEnv(model.lp_problem(), model.row_elastics, 0.0, rank=None)
    A, _, b = planted_instance(9, 8, 16, 5)
    zero_env = _zero_env(RecoveryProblem(A, b), k=None)
    for env in (row_env, zero_env):
        base = env.solve_current()
        pivoted = 0
        for entity in range(len(env.columns)):
            probed, _ = env.probe(entity)
            assert probed.z <= base.z + 1e-9  # a deletion never raises Z
            pivoted += probed.iterations > 1
            after = env.solve_current()
            assert after.iterations <= 1
            assert abs(after.z - base.z) <= 1e-12
        assert pivoted  # some probe moved the basis
        assert env.removed == set()


def test_ledger_rejects_duplicates_and_regressions():
    led = RemovalLedger()
    led.add(3, 1)
    with pytest.raises(ValueError):
        led.add(3, 2)
    with pytest.raises(ValueError):
        led.add(4, 0)
    led.add(5, 1)
    assert led.entities() == [3, 5]
    assert len(led) == 2


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(algorithm=4)
    with pytest.raises(ValueError):
        StrategyConfig(k=0)
    with pytest.raises(ValueError):
        StrategyConfig(e2_ell=0)
    with pytest.raises(ValueError):
        StrategyConfig(beta=-1.0)
    with pytest.raises(ValueError):
        StrategyConfig(max_iterations=0)


# ----------------------------------------------------------------------
# end-to-end row deletion


def test_feasible_system_is_left_alone():
    sys_ = system([[1.0, 1.0], [1.0, -1.0]], [">=", "<="], [1.0, 3.0])
    res = solve_maxfs(sys_)
    assert res.exit_reason is ExitReason.FEASIBLE
    assert res.removed_rows == []
    assert res.lp_count == 1
    assert res.final_z <= 1e-6


def test_contradiction_pair_loses_one_row():
    sys_ = system([[1.0], [1.0]], [">=", "<="], [2.0, 1.0])
    res = solve_maxfs(sys_)
    assert len(res.removed_rows) == 1
    assert res.final_z <= 1e-6
    survivors = [i for i in range(2) if i not in res.removed_rows]
    assert scipy_feasible(sys_, survivors)


def test_disjoint_contradictions_need_one_removal_each():
    # three independent pairs on three variables
    coeffs = np.zeros((6, 3))
    for j in range(3):
        coeffs[2 * j, j] = 1.0
        coeffs[2 * j + 1, j] = 1.0
    sys_ = system(coeffs, [">=", "<="] * 3, [2.0, 1.0] * 3)
    for cfg in (
        StrategyConfig(algorithm=2),
        StrategyConfig(algorithm=2, use_e1=True),
        StrategyConfig(algorithm=2, k=1),
        StrategyConfig(algorithm=1),
        StrategyConfig(algorithm=3, k=2),
    ):
        res = solve_maxfs(sys_, cfg)
        assert len(res.removed_rows) == 3, cfg
        # exactly one row from each pair
        for j in range(3):
            assert len({2 * j, 2 * j + 1} & set(res.removed_rows)) == 1
        assert res.final_z <= 1e-6


def test_lp_count_formula_for_probing():
    rng = np.random.default_rng(100)
    for _ in range(8):
        sys_ = random_infeasible_system(rng)
        res = solve_maxfs(sys_, StrategyConfig(algorithm=2))
        finishing = 1 if res.exit_reason in (ExitReason.SINGLETON, ExitReason.BULK_E2) else 0
        assert res.lp_count == 1 + res.probes + finishing


def test_lp_count_is_iterations_plus_one_for_batch():
    rng = np.random.default_rng(200)
    for _ in range(8):
        sys_ = random_infeasible_system(rng)
        res = solve_maxfs(sys_, StrategyConfig(algorithm=2, use_e1=True))
        assert res.lp_count == res.iterations + 1
        assert res.probes == 0


def test_z_history_never_increases():
    rng = np.random.default_rng(300)
    for _ in range(6):
        sys_ = random_infeasible_system(rng)
        res = solve_maxfs(sys_, StrategyConfig(algorithm=2))
        hist = np.asarray(res.z_history)
        assert np.all(np.diff(hist) <= 1e-9)


def test_survivors_are_feasible_and_cover_is_not_undersized():
    rng = np.random.default_rng(400)
    for _ in range(6):
        sys_ = random_infeasible_system(rng, m_extra=2)
        res = solve_maxfs(sys_)
        survivors = [i for i in range(sys_.m) if i not in res.removed_rows]
        assert scipy_feasible(sys_, survivors)
        assert len(res.removed_rows) >= min_cover_size(sys_)


def test_feasible_random_systems_stay_whole():
    rng = np.random.default_rng(500)
    for _ in range(6):
        sys_ = random_feasible_system(rng)
        res = solve_maxfs(sys_)
        assert res.removed_rows == []
        assert res.lp_count == 1


def test_determinism():
    rng = np.random.default_rng(600)
    sys_ = random_infeasible_system(rng)
    a = solve_maxfs(sys_, StrategyConfig(algorithm=2))
    b = solve_maxfs(sys_, StrategyConfig(algorithm=2))
    assert a.removed_rows == b.removed_rows
    assert a.lp_count == b.lp_count
    assert a.final_z == b.final_z
    assert a.z_history == b.z_history


def test_accepts_prebuilt_model_with_prior_removals():
    sys_ = system([[1.0], [1.0], [1.0]], [">=", "<=", "<="], [2.0, 1.0, 0.5])
    model = elasticize(sys_).remove_row(2)
    res = solve_maxfs(model)
    # row 2 was gone before the search; the ledger records new work only
    assert 2 not in res.removed_rows
    assert len(res.removed_rows) == 1
    assert 2 in res.model.removed_rows


def test_full_elastic_model_runs():
    sys_ = system([[1.0]], [">="], [5.0], lower=[0.0], upper=[2.0])
    model = elasticize(sys_, ElasticMode.FULL)
    # the bound rows are not deletable entities; the single base row is
    res = solve_maxfs(model)
    assert res.removed_rows == [0]
    assert res.final_z <= 1e-6


def test_e2_bulk_exit_end_to_end():
    # two independent contradictions: the first solve sees two violated
    # rows, which is neither a singleton pool nor above the threshold
    coeffs = np.zeros((4, 2))
    coeffs[0, 0] = coeffs[1, 0] = 1.0
    coeffs[2, 1] = coeffs[3, 1] = 1.0
    sys_ = system(coeffs, [">=", "<=", ">=", "<="], [2.0, 1.0, 2.0, 1.0])
    res = solve_maxfs(sys_, StrategyConfig(algorithm=2, e2_ell=5))
    assert res.exit_reason is ExitReason.BULK_E2
    assert res.lp_count == 2  # initial solve + finishing solve
    assert res.probes == 0
    assert len(res.removed_rows) == 2
    assert res.final_z <= 1e-6
    assert [res.z_history[e.iteration] for e in res.ledger] == [res.final_z] * 2


def test_iteration_cap_raises():
    rng = np.random.default_rng(700)
    sys_ = random_infeasible_system(rng, m_extra=4)
    with pytest.raises(SolverError):
        solve_maxfs(sys_, StrategyConfig(algorithm=2, max_iterations=1, k=1))


def test_alg1_can_delete_satisfied_rows():
    # an equality pins x where the inequalities clash; the dual ranking
    # may pick the binding equality even though it is not violated
    sys_ = system([[1.0], [1.0], [1.0]], ["=", ">=", "<="], [1.5, 2.0, 1.0])
    res = solve_maxfs(sys_, StrategyConfig(algorithm=1))
    assert res.final_z <= 1e-6
    survivors = [i for i in range(3) if i not in res.removed_rows]
    assert scipy_feasible(sys_, survivors)
