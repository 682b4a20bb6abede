"""The ranking routine, the candidate builders, the removal loop, and the
row-deletion search."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfs.core import (
    CostDeletionEnv,
    ExitReason,
    StrategyConfig,
    build_candidates_alg1,
    build_candidates_alg2,
    build_candidates_alg3,
    rank_candidates,
    run_removal_loop,
    solve_maxfs,
)
from maxfs import core, recovery, simplex
from maxfs.classify import Dataset, build_constraints
from maxfs.recovery import (
    RecoveryProblem,
    _split_env,
    jokar_pfetsch,
    method_b,
    method_c,
    method_me1e2,
)
from maxfs.simplex import LpSolution, LpStatus, SimplexSolver, SolverError
from maxfs.systems import LinearSystem, elasticize, lift_bounds

from conftest import (
    bounded_system,
    min_cover_size,
    planted_instance,
    random_feasible_system,
    random_infeasible_system,
    scipy_feasible,
)


# ----------------------------------------------------------------------
# candidate builders, on a handcrafted solution


def _handmade():
    sys_ = LinearSystem(
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
    pool, ents, scores = build_candidates_alg1(sol, model)
    assert ents == [2, 0, 1]  # |2.0| > |1.0| > |-0.5|
    assert pool == ents
    assert scores.tolist() == [2.0, 1.0, 0.5]
    assert all(type(e) is int for e in ents)
    pool, ents, _ = build_candidates_alg1(sol, model, k=2)
    assert ents == [2, 0]
    assert len(pool) == 3  # the pool is counted before the cut


def test_alg2_ranks_violated_rows_by_product():
    model, sol = _handmade()
    _, ents, scores = build_candidates_alg2(sol, model)
    # row 0: 0.5 x 1.0 = 0.5; row 2: max(0.2, 0.1) x 2.0 = 0.4
    assert list(zip(ents, scores.tolist())) == [(0, 0.5), (2, 0.4)]
    pool, ents, _ = build_candidates_alg2(sol, model, k=1)
    assert ents == [0]
    assert pool == [0, 2]


def test_alg3_merges_violated_and_satisfied_lists():
    model, sol = _handmade()
    pool, ents, scores = build_candidates_alg3(sol, model, k=1)
    # one from each list: top violated row 0 (0.5 x 1.0), then the top
    # satisfied row with a price, row 1 (|-0.5|)
    assert ents == [0, 1]
    assert scores.tolist() == [0.5, 0.5]
    assert pool == [0, 2, 1]
    _, full, _ = build_candidates_alg3(sol, model)
    assert full == [0, 2, 1]  # row 3 has no dual price


def test_builders_skip_removed_rows():
    model, sol = _handmade()
    assert build_candidates_alg2(sol, model, removed={0})[1] == [2]
    assert 0 not in build_candidates_alg1(sol, model, removed={0})[1]
    assert build_candidates_alg3(sol, model, removed={0, 2})[0] == [1]


def test_equal_scores_rank_by_row_index():
    sys_ = LinearSystem([[1.0], [1.0]], [">=", ">="], [1.0, 1.0])
    model = elasticize(sys_)
    sol = LpSolution(
        status=LpStatus.OPTIMAL,
        z=0.6,
        x=np.array([0.0, 0.3, 0.3]),
        duals=np.array([1.0, 1.0]),
        reduced_costs=np.zeros(3),
        iterations=0,
    )
    assert build_candidates_alg2(sol, model)[1] == [0, 1]


def _reference_ranking(lists, removed, k):
    # plain Python: each list sorted by (-score, entity), cut to k, then
    # entities an earlier cut list holds are dropped
    pool, cands, scores = [], [], []
    for score, eligible in lists:
        ranked = sorted(
            (e for e in range(len(score)) if eligible[e] and e not in removed),
            key=lambda e: (-score[e], e),
        )
        pool += [e for e in ranked if e not in pool]
        head = [e for e in ranked[:k] if e not in cands]
        cands += head
        scores += [score[e] for e in head]
    return pool, cands, scores


@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_rank_candidates_matches_plain_python(k):
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        # few distinct values, so exact ties are common
        lists = [
            (rng.integers(0, 4, size=n) / 2.0, rng.random(n) < 0.7)
            for _ in range(int(rng.integers(1, 3)))
        ]
        removed = set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
        pool, cands, scores = rank_candidates(lists, removed, k)
        want = _reference_ranking(lists, removed, k)
        assert (pool, cands, scores.tolist()) == want
        assert all(type(e) is int for e in pool + cands)
        if k is None:
            assert cands == pool


def test_rank_candidates_overlapping_lists_dedup_after_the_cut():
    # two lists sharing entities 0 and 2, as method_c's value and dual
    # lists can
    first = (np.array([5.0, 1.0, 4.0, 0.0]), np.array([True, True, True, False]))
    second = (np.array([3.0, 0.0, 3.0, 2.0]), np.array([True, False, True, True]))
    pool, cands, scores = rank_candidates([first, second], k=2)
    # first list cut to [0, 2]; second cut to [0, 2] before dropping
    # the held entities, so entity 3 is not a candidate
    assert cands == [0, 2]
    assert scores.tolist() == [5.0, 4.0]
    assert pool == [0, 2, 1, 3]  # the union of both masks, counted once
    pool, cands, _ = rank_candidates([first, second], removed={0}, k=2)
    assert cands == [2, 1, 3]
    assert pool == [2, 1, 3]
    pool, cands, scores = rank_candidates([first, second], removed={0, 1, 2, 3})
    assert pool == cands == [] and scores.size == 0


def test_rank_candidates_ties_ignore_rounding_noise():
    # entities 1..8 tie at 1 up to noise of 1e-15, which must not order
    # them; the returned scores keep the noise
    noise = np.random.default_rng(5).uniform(-1e-15, 1e-15, 8)
    score = np.concatenate([[0.5], 1.0 + noise, [2.0]])
    pool, cands, scores = rank_candidates([(score, score > 0.0)])
    assert pool == cands == [9, *range(1, 9), 0]
    assert scores.tolist() == score[cands].tolist()
    # a gap far above the tolerance still orders
    score[4] += 1e-6
    assert rank_candidates([(score, score > 0.0)])[0][:3] == [9, 4, 1]


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
        self.lp_count = self.pivots = self.degenerate_pivots = self.kink_passes = 0

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
        cands = pool[: self.k]
        return pool, cands, np.array([self.w[e] for e in cands])

    def probe_round(self, candidates, stop):
        best, beat, probes = None, math.inf, 0
        for e in candidates:
            self.lp_count += 1
            probes += 1
            z = self._z() - self.w[e]
            if z < beat:
                best, beat = e, z
            if beat <= stop:
                break
        self.active.discard(best)
        return best, self._sol(beat), probes, 0

    def remove_batch(self, entities):
        self.active -= set(entities)


def test_probing_loop_picks_min_probe_and_singleton_exits():
    env = ToyEnv([3.0, 2.0])
    tel = run_removal_loop(env)
    # round 1 probes both and deletes the heavier entity; round 2 sees a
    # one-entry pool and deletes without probing
    assert tel.exit_reason is ExitReason.SINGLETON
    assert tel.removed_rows == [0, 1]
    assert tel.probes == 2
    assert tel.iterations == 2
    assert tel.removal_sizes == [1, 1]
    assert env.lp_count == 3  # initial solve + two probes
    # the singleton's z comes from the caller's finishing solve
    assert tel.z_history == [5.0, 2.0]


def test_probing_loop_early_adopts_a_feasible_probe():
    env = ToyEnv([3.0, 5e-7, 4e-7])
    tel = run_removal_loop(env)
    # the first probe already reaches ZTOL (1e-6); the other two
    # candidates of the round are never probed
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.removed_rows == [0]
    assert tel.probes == 1
    assert tel.z_history == pytest.approx([3.0 + 9e-7, 9e-7], rel=1e-12)
    assert env.lp_count == 2


def test_probing_loop_feasible_at_start():
    env = ToyEnv([0.0, 0.0])
    tel = run_removal_loop(env)
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.iterations == 0
    assert tel.removed_rows == []
    assert env.lp_count == 1


def test_probing_loop_exit_on_empty_keeps_positive_z():
    env = ToyEnv([1.0, 2.0])
    tel = run_removal_loop(env, exit_on_empty=True)
    # exit_on_empty never early-adopts; it drains the pool instead
    assert tel.exit_reason in (ExitReason.EMPTY_CANDIDATES, ExitReason.SINGLETON)
    assert set(tel.removed_rows) == {0, 1}


def test_probing_loop_raises_on_empty_pool_with_positive_z():
    class NoCands(ToyEnv):
        def candidates(self, sol):
            return [], [], np.zeros(0)

    with pytest.raises(SolverError):
        run_removal_loop(NoCands([1.0]))


def test_probing_loop_e2_bulk_exit_first_round_only():
    env = ToyEnv([2.0, 1.0])
    tel = run_removal_loop(env, e2_ell=2, e2_first_iteration_only=True)
    assert tel.exit_reason is ExitReason.BULK_E2
    assert tel.removal_sizes == [2]
    assert env.lp_count == 1  # no probe happened

    # pool too large on round one: the bulk exit stays off afterwards
    env2 = ToyEnv([3.0, 2.0, 1.0])
    tel2 = run_removal_loop(env2, e2_ell=2, e2_first_iteration_only=True)
    assert tel2.exit_reason is not ExitReason.BULK_E2


def test_batch_loop_cuts_score_groups():
    env = ToyEnv([10.0, 10.0, 10.0, 1.0, 1.0, 1.0])
    tel = run_removal_loop(env, batch=True)
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.removal_sizes == [3, 1, 1, 1]
    assert tel.iterations == 4
    assert env.lp_count == tel.iterations + 1  # one solve per round plus the last
    # batch entries learn the z of the next solve
    zs = [z for z, size in zip(tel.z_history[1:], tel.removal_sizes) for _ in range(size)]
    assert zs == [3.0, 3.0, 3.0, 2.0, 1.0, 0.0]
    assert tel.z_history == [33.0, 3.0, 2.0, 1.0, 0.0]


def test_batch_loop_cuts_ties_in_ranked_order():
    # entities 0 and 1 tie on rank_candidates' grid, so the ranking puts
    # 0 first and its scores rise by 1.5e-9, past first_mean_change's
    # 1e-9 check; the cut reads the series as ranked, flat across a tie
    class RankedEnv(ToyEnv):
        def candidates(self, sol):
            w = np.array(list(self.w.values()))
            return rank_candidates([(w, w > 0.0)], set(self.w) - self.active, self.k)

    env = RankedEnv([1.0, 1.0 + 1.5e-9, 0.1, 0.1])
    scores = env.candidates(None)[2]
    assert scores[1] - scores[0] > 1e-9
    tel = run_removal_loop(env, batch=True)
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.removed_rows == [0, 1, 2, 3]
    assert tel.removal_sizes == [2, 1, 1]


def test_batch_loop_has_no_singleton_shortcut_by_default():
    env = ToyEnv([5.0])
    tel = run_removal_loop(env, batch=True)
    # the lone candidate goes through the mean-change cut and the next
    # solve certifies feasibility; exit is FEASIBLE, not SINGLETON
    assert tel.exit_reason is ExitReason.FEASIBLE
    assert tel.removal_sizes == [1]
    assert env.lp_count == 2


def test_batch_loop_e2_gating():
    env = ToyEnv([5.0, 5.0, 5.0, 1.0])
    tel = run_removal_loop(env, batch=True, e2_ell=2, e2_first_iteration_only=True)
    # round 1 pool has 4 entries, too many; the flag keeps E2 off later
    assert tel.exit_reason is ExitReason.FEASIBLE

    env2 = ToyEnv([5.0, 5.0, 5.0, 1.0])
    tel2 = run_removal_loop(env2, batch=True, e2_ell=2, e2_first_iteration_only=False)
    assert tel2.exit_reason is ExitReason.BULK_E2
    assert tel2.removal_sizes[-1] == 1  # the tail entity went out in bulk


def test_e2_bulk_exit_reads_the_pool_not_the_truncated_list():
    env = ToyEnv([3.0, 2.0, 1.0], k=1)
    tel = run_removal_loop(env, e2_ell=2)
    # round 1: a pool of three is above the threshold, so the one
    # candidate is probed; round 2: the pool of two goes out in bulk
    assert tel.exit_reason is ExitReason.BULK_E2
    assert tel.removed_rows == [0, 1, 2]
    assert tel.removal_sizes == [1, 2]
    assert env.active == set()


def test_batch_loop_exit_on_empty():
    env = ToyEnv([2.0, 1.0])
    tel = run_removal_loop(env, batch=True, exit_on_empty=True)
    assert tel.exit_reason is ExitReason.EMPTY_CANDIDATES
    assert set(tel.removed_rows) == {0, 1}
    assert tel.final_z == 0.0


def test_probe_restores_engine_state():
    # one row-form environment and method_c's recovery environment; every
    # entity is probed, and after each probe the current costs re-solve
    # at once
    model = elasticize(random_infeasible_system(np.random.default_rng(9)))
    row_env = CostDeletionEnv(model.lp_problem(), model.row_elastics, 0.0, rank=None)
    A, _, b = planted_instance(9, 8, 16, 5)
    c_env = _split_env(RecoveryProblem(A, b), 0.0, dual_list=True)
    for env in (row_env, c_env):
        base = env.solve_current()
        pivoted = 0
        for entity in range(len(env.columns)):
            probed, _ = env.probe(entity, np.inf)
            assert probed.z <= base.z + 1e-9  # a deletion never raises Z
            pivoted += probed.iterations > 1
            after = env.solve_current()
            assert after.iterations <= 1
            assert abs(after.z - base.z) <= 1e-12
        assert pivoted  # some probe moved the basis
        assert env.removed == set()


def test_remove_batch_zeroes_every_penalty_column_of_its_rows():
    # row 0 is an equality (two penalty columns), row 1 a GE row (one)
    model = elasticize(LinearSystem([[1.0]] * 3, ["=", ">=", "<="], [1.0, 2.0, 0.0]))
    env = CostDeletionEnv(model.lp_problem(), model.row_elastics, 0.0, rank=None)
    env.remove_batch([0, 1])
    # columns: x, e0+, e0-, e1, e2
    assert env.costs.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert env.removed == {0, 1}


def test_probes_of_a_round_share_one_snapshot(monkeypatch):
    # the incumbent is saved once for all probes of a round, and a
    # probe's end state only when it beats the best Z so far; adopting
    # the best probe installs its end state
    model = elasticize(random_infeasible_system(np.random.default_rng(9)))
    env = CostDeletionEnv(model.lp_problem(), model.row_elastics, 0.0, rank=None)
    saves = []
    save = SimplexSolver.save_state
    monkeypatch.setattr(SimplexSolver, "save_state", lambda eng: saves.append(1) or save(eng))
    base = env.solve_current()
    best, beat, states = None, np.inf, 0
    for entity in range(model.base.m):
        probed, state = env.probe(entity, beat)
        assert (state is not None) == (probed.z < beat)
        if state is not None:
            best, beat, end, states = entity, probed.z, state, states + 1
    assert len(saves) == 1 + states and states < model.base.m
    assert env.probe(0, -np.inf)[1] is None and len(saves) == 1 + states
    assert env.solve_current().iterations <= 1  # the last probe put the incumbent back
    env.adopt(best, end)
    after = env.solve_current()
    assert after.iterations <= 1 and abs(after.z - beat) <= 1e-12 and beat < base.z
    env.probe((best + 1) % model.base.m, np.inf)
    assert len(saves) == 3 + states  # a new round takes a new snapshot


def check_record(res):
    """What every search record keeps: one size per round, at least one
    entity per round, sizes that add up to the deletions, and no entity
    deleted twice."""
    assert res.iterations == len(res.removal_sizes)
    assert min(res.removal_sizes, default=1) >= 1
    assert sum(res.removal_sizes) == len(res.removed_rows)
    assert len(set(res.removed_rows)) == len(res.removed_rows)


def test_search_record_invariants():
    runs = {
        ExitReason.FEASIBLE: run_removal_loop(
            ToyEnv([10.0, 10.0, 10.0, 1.0, 1.0, 1.0]), batch=True
        ),
        ExitReason.SINGLETON: run_removal_loop(ToyEnv([3.0, 2.0, 1.0])),
        ExitReason.BULK_E2: run_removal_loop(ToyEnv([3.0, 2.0, 1.0], k=1), e2_ell=2),
        ExitReason.EMPTY_CANDIDATES: run_removal_loop(
            ToyEnv([2.0, 1.0]), batch=True, exit_on_empty=True
        ),
    }
    for reason, res in runs.items():
        assert res.exit_reason is reason
        assert res.iterations >= 2, reason
        check_record(res)
        # a round that ends the search without solving adds no Z
        unsolved = reason in (ExitReason.SINGLETON, ExitReason.BULK_E2)
        assert len(res.z_history) == res.iterations + 1 - unsolved


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(0, 4).map(float) | st.floats(0.0, 10.0), min_size=1, max_size=12),
    k=st.sampled_from([None, 1, 2]),
    batch=st.booleans(),
    exit_on_empty=st.booleans(),
    e2_ell=st.sampled_from([None, 1, 2, 3]),
    e2_first_iteration_only=st.booleans(),
)
def test_rounds_never_outnumber_entities(
    weights, k, batch, exit_on_empty, e2_ell, e2_first_iteration_only
):
    # each round deletes at least one entity not deleted before, which
    # bounds the rounds without a cap
    res = run_removal_loop(
        ToyEnv(weights, k=k), batch=batch, exit_on_empty=exit_on_empty,
        e2_ell=e2_ell, e2_first_iteration_only=e2_first_iteration_only,
    )
    assert res.iterations <= len(weights)
    check_record(res)


def test_real_searches_delete_each_entity_once(monkeypatch):
    rng = np.random.default_rng(800)
    for cfg in (
        StrategyConfig(algorithm=2),
        StrategyConfig(algorithm=2, use_e1=True),
        StrategyConfig(algorithm=3, k=1, e2_ell=2),
    ):
        res = solve_maxfs(random_infeasible_system(rng, m_extra=5), cfg)
        check_record(res)
        assert res.iterations >= 2
        # the finishing solve, if any, is the last Z
        assert len(res.z_history) == res.iterations + 1
        assert res.z_history[-1] == res.final_z

    records = []
    loop = recovery.run_removal_loop
    monkeypatch.setattr(
        recovery, "run_removal_loop", lambda *a, **kw: records.append(loop(*a, **kw)) or records[-1]
    )
    A, _, b = planted_instance(11, 8, 16, 6)
    prob = RecoveryProblem(A, b)
    for method in (method_b, method_c, method_me1e2, jokar_pfetsch):
        out = method(prob)
        res = records.pop()
        check_record(res)
        assert res.removed_rows, method.__name__
        assert out.removal_sizes == tuple(res.removal_sizes)
        assert out.lp_count == res.lp_count


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(algorithm=4)
    with pytest.raises(ValueError):
        StrategyConfig(k=0)
    with pytest.raises(ValueError):
        StrategyConfig(e2_ell=0)
    # E1 cuts one descending series; algorithm 3 joins two lists whose
    # scores are on different scales, so the joined series has no cut
    with pytest.raises(ValueError, match="E1"):
        StrategyConfig(algorithm=3, use_e1=True)


@pytest.mark.parametrize("field", ["k", "e2_ell"])
@pytest.mark.parametrize("value", [1.5, 2.0, float("nan"), float("inf"), "2"])
def test_strategy_config_limits_are_integers(field, value):
    # a fractional k used to reach a slice deep in rank_candidates as a
    # TypeError; a NaN e2_ell passed `e2_ell < 1` and turned the bulk
    # exit off
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        StrategyConfig(**{field: value})
    cfg = StrategyConfig(**{field: np.int64(2)})
    assert getattr(cfg, field) == 2


# ----------------------------------------------------------------------
# end-to-end row deletion


def test_feasible_system_is_left_alone():
    sys_ = LinearSystem([[1.0, 1.0], [1.0, -1.0]], [">=", "<="], [1.0, 3.0])
    res = solve_maxfs(sys_)
    assert res.exit_reason is ExitReason.FEASIBLE
    assert res.removed_rows == []
    assert res.lp_count == 1
    assert res.final_z <= 1e-6


def test_contradiction_pair_loses_one_row():
    sys_ = LinearSystem([[1.0], [1.0]], [">=", "<="], [2.0, 1.0])
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
    sys_ = LinearSystem(coeffs, [">=", "<="] * 3, [2.0, 1.0] * 3)
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


def test_pivot_counts_cover_every_lp():
    # probing, batch and bulk exits (with their finishing solve) alike
    class Recording(SimplexSolver):
        def solve(self, problem, start=None):
            sol = super().solve(problem, start)
            self.solutions.append(sol)
            return sol

    rng = np.random.default_rng(150)
    for cfg in (StrategyConfig(algorithm=2), StrategyConfig(algorithm=2, use_e1=True),
                StrategyConfig(algorithm=3, k=1, e2_ell=2)):
        eng = Recording()
        eng.solutions = []
        res = solve_maxfs(random_infeasible_system(rng, m_extra=3), cfg, engine=eng)
        assert len(eng.solutions) == res.lp_count
        assert res.pivots == sum(sol.pivots for sol in eng.solutions) > 0
        assert res.degenerate_pivots == sum(sol.degenerate_pivots for sol in eng.solutions)


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
    sys_ = LinearSystem([[1.0], [1.0], [1.0]], [">=", "<=", "<="], [2.0, 1.0, 0.5])
    model = elasticize(sys_).remove_row(2)
    res = solve_maxfs(model)
    # row 2 was gone before the search; the record lists new work only
    assert 2 not in res.removed_rows
    assert len(res.removed_rows) == 1
    # the final point breaks row 2 (x <= 0.5) at no cost: it stayed deleted
    assert res.final_z <= 1e-6 and res.final_solution.x[0] > 0.5


def test_full_elastic_model_runs():
    sys_ = LinearSystem([[1.0]], [">="], [5.0], lower=[0.0], upper=[2.0])
    # rows: x >= 5, then the lifted x >= 0 and x <= 2; the bound rows are
    # deletable like the base row, and deleting x >= 5 or x <= 2 is a cover
    res = solve_maxfs(lift_bounds(sys_))
    assert res.removed_rows in ([0], [2])
    assert res.final_z <= 1e-6


def lifted_corpus():
    """Small 5x2 systems with GE/LE rows and bounds each finite with
    probability 0.7, lifted; those with at most 8 rows that are
    infeasible."""
    for i in range(60):
        rng = np.random.default_rng([17, i])
        A = rng.integers(-3, 4, size=(5, 2)).astype(float)
        senses = rng.choice([">=", "<="], size=5)
        b = rng.integers(-4, 5, size=5).astype(float)
        lower = np.where(rng.random(2) < 0.7, rng.integers(-3, 1, 2), -np.inf)
        upper = np.where(rng.random(2) < 0.7, rng.integers(0, 4, 2), np.inf)
        if not A.any(axis=1).all():
            continue
        lifted = lift_bounds(LinearSystem(A, senses, b, lower=lower, upper=upper))
        if lifted.m <= 8 and not scipy_feasible(lifted):
            yield lifted


def test_lifted_bounds_meet_the_cover_oracle():
    # with bounds lifted into rows, the brute-force minimum cover of the
    # lifted system is the optimum of the search over rows and bounds;
    # each bound on matches is the count measured on these 23 systems
    matched = {
        StrategyConfig(algorithm=1): 22,
        StrategyConfig(algorithm=2): 21,
        StrategyConfig(algorithm=3): 22,
        StrategyConfig(algorithm=2, use_e1=True): 17,
        StrategyConfig(algorithm=2, k=1): 18,
        StrategyConfig(algorithm=2, e2_ell=2): 18,
        StrategyConfig(algorithm=2, e2_ell=3): 13,
    }
    corpus = list(lifted_corpus())
    assert len(corpus) == 23
    matches = dict.fromkeys(matched, 0)
    exits = set()
    for lifted in corpus:
        optimum = min_cover_size(lifted)
        for cfg in matched:
            res = solve_maxfs(lifted, cfg)
            assert len(res.removed_rows) >= optimum
            survivors = [i for i in range(lifted.m) if i not in res.removed_rows]
            assert scipy_feasible(lifted, survivors)
            matches[cfg] += len(res.removed_rows) == optimum
            exits.add(res.exit_reason)
    assert all(matches[cfg] >= matched[cfg] for cfg in matched), matches
    assert exits == {ExitReason.FEASIBLE, ExitReason.SINGLETON, ExitReason.BULK_E2}


def test_e2_bulk_exit_end_to_end():
    # two independent contradictions: the first solve sees two violated
    # rows, which is neither a singleton pool nor above the threshold
    coeffs = np.zeros((4, 2))
    coeffs[0, 0] = coeffs[1, 0] = 1.0
    coeffs[2, 1] = coeffs[3, 1] = 1.0
    sys_ = LinearSystem(coeffs, [">=", "<=", ">=", "<="], [2.0, 1.0, 2.0, 1.0])
    res = solve_maxfs(sys_, StrategyConfig(algorithm=2, e2_ell=5))
    assert res.exit_reason is ExitReason.BULK_E2
    assert res.lp_count == 2  # initial solve + finishing solve
    assert res.probes == 0
    assert len(res.removed_rows) == 2
    assert res.final_z <= 1e-6
    assert res.removal_sizes == [2] and res.z_history[-1] == res.final_z


def test_e2_bulk_exit_with_k_deletes_the_whole_pool():
    # with k=1 the ranked list always has one row; the bulk exit must
    # wait until the pool itself has at most e2_ell rows, then delete
    # all of them
    sys_ = random_infeasible_system(np.random.default_rng(5), m_extra=8)
    res = solve_maxfs(sys_, StrategyConfig(algorithm=2, k=1, e2_ell=3))
    assert res.exit_reason is ExitReason.BULK_E2
    assert res.removal_sizes[-1] == 3
    assert res.final_z <= 1e-6
    survivors = [i for i in range(sys_.m) if i not in res.removed_rows]
    assert scipy_feasible(sys_, survivors)
    plain = solve_maxfs(sys_, StrategyConfig(algorithm=2, k=1))
    assert sorted(res.removed_rows) == sorted(plain.removed_rows)


def test_alg1_can_delete_satisfied_rows():
    # an equality pins x where the inequalities clash; the dual ranking
    # may pick the binding equality even though it is not violated
    sys_ = LinearSystem([[1.0], [1.0], [1.0]], ["=", ">=", "<="], [1.5, 2.0, 1.0])
    res = solve_maxfs(sys_, StrategyConfig(algorithm=1))
    assert res.final_z <= 1e-6
    survivors = [i for i in range(3) if i not in res.removed_rows]
    assert scipy_feasible(sys_, survivors)


# ---------------------------------------------------------------------------
# batched probe rounds against rounds probed on the engine alone


def lockstep_rounds(mp, make_env, stop=core.ZTOL, batch_min=1):
    """Search two copies of one environment round by round: one batches
    the probes after each round's head once more than `batch_min`
    candidates are left, the other probes every candidate on the engine
    (BATCH_MIN past the candidate count). Every round must pick the same
    winner with the same Z and make the same probes, LPs, pivots and
    degenerate pivots, and the winner's state must re-solve at its costs
    with no pivot and the same Z. Returns the probes the batch settled."""
    envs = (make_env(), make_env())
    sols = [env.solve_current() for env in envs]
    settled = 0
    while True:
        ranked = [env.candidates(sol)[1] for env, sol in zip(envs, sols)]
        assert ranked[0] == ranked[1]
        if not ranked[0] or sols[0].z <= stop:
            return settled
        rounds = []
        for env, least in zip(envs, (batch_min, len(ranked[0]))):
            mp.setattr(core, "BATCH_MIN", least)
            rounds.append(env.probe_round(ranked[0], stop))
        (win, sol, probes, batched), (ref_win, ref, ref_probes, ref_batched) = rounds
        assert (win, probes, ref_batched) == (ref_win, ref_probes, 0)
        tol = 1e-12 * max(1.0, abs(ref.z))
        assert abs(sol.z - ref.z) <= tol
        assert len({(env.lp_count, env.pivots, env.degenerate_pivots) for env in envs}) == 1
        settled += batched
        for env, end in zip(envs, (sol, ref)):
            again = env.solve_current()
            assert again.pivots == 0 and abs(again.z - end.z) <= tol
        sols = [sol, ref]


def row_env(model, algorithm=3):
    rank = core._row_ranking(model, StrategyConfig(algorithm=algorithm))
    return lambda: CostDeletionEnv(model.lp_problem(), model.row_elastics, 0.0, rank)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_rounds_match_engine_rounds_on_drawn_systems(data):
    # the entries are drawn from a seed, not by hypothesis, so that no
    # two reduced costs or pivots tie exactly: the batch's rounding
    # differs from the engine's, and an exact tie may then break the
    # other way (test_batched_probes_reach_the_engine_optimum_on_tied_data)
    m = data.draw(st.integers(6, 14))
    n = data.draw(st.integers(1, 3))
    senses = data.draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = elasticize(LinearSystem(rng.uniform(-3, 3, (m, n)), senses, rng.uniform(-4, 4, m)))
    with pytest.MonkeyPatch.context() as mp:
        lockstep_rounds(mp, row_env(model))


def test_batched_rounds_match_engine_rounds(monkeypatch):
    # lifted bounds, rows of both sides and equalities, and the split
    # form of a planted instance, drained as method_b drains it too;
    # default BATCH_MIN on the wide Gaussian rounds
    rng = np.random.default_rng(21)
    boxed = random_infeasible_system(rng, m_extra=6)
    boxed = LinearSystem(boxed.coeffs, boxed.senses, boxed.rhs,
                         np.full(boxed.n, -0.5), np.full(boxed.n, 0.5))
    z = rng.standard_normal((50, 2))
    z[25:, 0] += 1.0
    gauss = elasticize(build_constraints(Dataset(z, np.repeat([0, 1], 25))))
    A, _, b = planted_instance(12, 10, 20, 6)
    prob = RecoveryProblem(A, b)
    settled = [
        lockstep_rounds(monkeypatch, row_env(elasticize(lift_bounds(bounded_system())))),
        lockstep_rounds(monkeypatch, row_env(elasticize(lift_bounds(boxed)), algorithm=1)),
        lockstep_rounds(monkeypatch, row_env(elasticize(random_infeasible_system(rng, m_extra=8)))),
        lockstep_rounds(monkeypatch, row_env(gauss, algorithm=2), batch_min=core.BATCH_MIN),
        lockstep_rounds(monkeypatch, lambda: _split_env(prob, 0.0)),
        lockstep_rounds(monkeypatch, lambda: _split_env(prob, 0.1), stop=-np.inf),
    ]
    assert min(settled) > 0
    # the batch settled 158 of the Gaussian probes while it sent every
    # probe that passes a kink back to the engine
    assert settled[3] > 158


@pytest.mark.parametrize("cap", [0, 1])
def test_batched_rounds_stay_exact_under_a_tighter_pivot_cap(monkeypatch, cap):
    monkeypatch.setattr(simplex, "PROBE_CAP", cap)
    model = elasticize(random_infeasible_system(np.random.default_rng(4), m_extra=8))
    assert lockstep_rounds(monkeypatch, row_env(model)) > 0


def test_batched_search_records_match_the_engine_search(monkeypatch):
    rng = np.random.default_rng(8)
    z = rng.standard_normal((80, 2))
    z[40:, 0] += 1.2
    rows = build_constraints(Dataset(z, np.repeat([0, 1], 40)))
    A, _, b = planted_instance(13, 16, 32, 8)
    runs = []
    for least in (core.BATCH_MIN, 10**9):
        monkeypatch.setattr(core, "BATCH_MIN", least)
        res = solve_maxfs(rows, StrategyConfig(algorithm=2))
        jp = jokar_pfetsch(RecoveryProblem(A, b))
        runs.append((res.removed_rows, res.lp_count, res.pivots, res.degenerate_pivots,
                     res.kink_passes, res.probes, res.batched_probes > 0,
                     sorted(jp.support), jp.lp_count, jp.pivots, jp.degenerate_pivots))
    batched, alone = runs
    assert batched[:6] == alone[:6] and batched[7:] == alone[7:]
    assert batched[6] and not alone[6] and batched[4] > 0
