"""System construction, elastic relaxation shapes, and the text formats."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfs.core import ExitReason, StrategyConfig, solve_maxfs
from maxfs.simplex import LpStatus, Sense, SimplexSolver, make_problem
from maxfs.systems import (
    LinearSystem,
    elasticize,
    format_system,
    lift_bounds,
    parse_system,
    read_matrix,
    read_system,
    read_vector,
    write_matrix,
    write_system,
    write_vector,
)

from conftest import bounded_system, lp_matrix, scipy_feasible


def test_system_accepts_token_and_integer_senses():
    a = LinearSystem([[1.0, 2.0]], [">="], [3.0])
    b = LinearSystem([[1.0, 2.0]], [1], [3.0])
    c = LinearSystem([[1.0, 2.0]], [Sense.GE], [3.0])
    d = LinearSystem([[1.0, 2.0]], [1.0], [3.0])
    assert int(a.senses[0]) == int(b.senses[0]) == int(c.senses[0]) == int(d.senses[0]) == 1
    mixed = LinearSystem([[1.0], [1.0], [1.0]], [Sense.LE, "=", 1], [1.0, 1.0, 1.0])
    assert list(mixed.senses) == [-1, 0, 1]


@pytest.mark.parametrize("senses, row", [
    ([">=", 1.5], 1),          # fractional codes are not truncated
    ([-0.7, ">="], 0),
    ([">=", 3], 1),            # out of range
    ([">=", ">"], 1),          # unknown token
    (["ge", "<="], 0),
])
def test_system_rejects_bad_senses(senses, row):
    with pytest.raises(ValueError, match=f"row {row}"):
        LinearSystem([[1.0], [2.0]], senses, [1.0, 2.0])


def test_nan_bounds_are_rejected():
    with pytest.raises(ValueError, match="NaN"):
        LinearSystem([[1.0]], [">="], [1.0], lower=[np.nan], upper=[5.0])
    with pytest.raises(ValueError, match="NaN"):
        LinearSystem([[1.0]], [">="], [1.0], lower=[0.0], upper=[np.nan])
    with pytest.raises(ValueError, match="NaN"):
        parse_system("1 1\n1 >= 1\nnan 5\n")
    # infinite bounds stay legal
    sys_ = parse_system("1 1\n1 >= 1\n-inf inf\n")
    assert sys_.lower[0] == -np.inf and sys_.upper[0] == np.inf


def test_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(np.empty((0, 2)), [], [])  # no rows
    with pytest.raises(ValueError):
        LinearSystem([[0.0, 0.0]], ["="], [1.0])  # all-zero row
    with pytest.raises(ValueError):
        LinearSystem([[1.0]], ["="], [np.inf])  # nonfinite rhs
    with pytest.raises(ValueError):
        LinearSystem([[1.0, 1.0]], ["="], [1.0, 2.0])  # rhs length
    with pytest.raises(ValueError):
        LinearSystem([[1.0]], ["="], [1.0], lower=[2.0], upper=[1.0])  # crossed


def test_elasticize_standard_shapes():
    sys_ = LinearSystem([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [">=", "<=", "="], [1.0, 2.0, 3.0])
    model = elasticize(sys_)
    # one penalty column per inequality, a pair per equality
    assert model.problem.structure.n == 2 + 2 + 2
    assert model.problem.structure.m == 3
    # each row's first and last penalty column: an inequality row's one
    # column twice, an equality row's two distinct columns
    assert model.row_elastics.dtype.kind == "i"
    assert model.row_elastics.tolist() == [[2, 2], [3, 3], [4, 5]]
    # penalty columns priced at one, structurals at zero
    assert list(model.problem.c) == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    # sign pattern: GE adds, LE subtracts, EQ carries both
    A = lp_matrix(model.problem)
    assert A[0, 2] == 1.0 and A[1, 3] == -1.0
    assert A[2, 4] == 1.0 and A[2, 5] == -1.0
    # the penalty columns are unit columns, stored as a row and a sign each
    structure = model.problem.structure
    assert structure.A.shape == (3, 2)
    assert list(structure.unit_rows) == [0, 1, 2, 2]
    assert list(structure.unit_vals) == [1.0, -1.0, 1.0, -1.0]


def test_elasticize_full_lifts_finite_bounds():
    base = LinearSystem([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, -1.0]], [">=", "="], [5.0, 1.0],
                        lower=[0.0, -np.inf, -np.inf, -1.0], upper=[2.0, np.inf, 3.0, np.inf])
    lifted = lift_bounds(base)
    # the system's rows first, then x0 >= 0, x0 <= 2, x2 <= 3, x3 >= -1
    assert np.array_equal(lifted.coeffs[:2], base.coeffs)
    assert np.array_equal(lifted.coeffs[2:], np.eye(4)[[0, 0, 2, 3]])
    assert lifted.senses.tolist() == [1, 0, 1, -1, -1, 1]
    assert lifted.rhs.tolist() == [5.0, 1.0, 0.0, 2.0, 3.0, -1.0]
    # the variables are freed; the rows take over
    assert np.all(lifted.lower == -np.inf) and np.all(lifted.upper == np.inf)
    # each bound row has its own penalty column
    model = elasticize(lifted)
    assert model.problem.structure.m == 6
    assert model.problem.structure.n == 4 + 2 + 1 + 4
    assert model.row_elastics[2:].tolist() == [[7, 7], [8, 8], [9, 9], [10, 10]]
    # a system without finite bounds is unchanged
    free = LinearSystem([[1.0]], ["<="], [1.0])
    assert np.array_equal(lift_bounds(free).coeffs, free.coeffs)


def dense_elastic_problem(base, lift):
    """The elastic LP with its penalty columns written into a dense
    block, one row at a time, and with `lift` each finite bound written
    as a penalised row after them: the reference for `elasticize` and
    `lift_bounds`."""
    m, n = base.m, base.n
    lifted = [(j, side, bound) for j in range(n)
              for side, bound in (("lower", base.lower[j]), ("upper", base.upper[j]))
              if lift and np.isfinite(bound)]
    n_pen = m + int(np.sum(base.senses == Sense.EQ)) + len(lifted)
    A = np.zeros((m + len(lifted), n + n_pen))
    A[:m, :n] = base.coeffs
    senses, b = list(base.senses), list(base.rhs)
    lower = np.concatenate([base.lower, np.zeros(n_pen)])
    upper = np.concatenate([base.upper, np.full(n_pen, np.inf)])
    col = n
    for i, s in enumerate(base.senses):
        for sign in {1: (1.0,), -1: (-1.0,), 0: (1.0, -1.0)}[int(s)]:
            A[i, col] = sign
            col += 1
    for r, (j, side, bound) in enumerate(lifted, start=m):
        A[r, j] = 1.0
        A[r, col] = 1.0 if side == "lower" else -1.0
        senses.append(1 if side == "lower" else -1)
        b.append(bound)
        if side == "lower":
            lower[j] = -np.inf
        else:
            upper[j] = np.inf
        col += 1
    c = np.concatenate([np.zeros(n), np.ones(n_pen)])
    return make_problem(c, A, senses, b, lower, upper)


# the ids keep the names of the two elastic modes: bounds hard
# (STANDARD) or lifted into rows (FULL)
@pytest.mark.parametrize("lift", [False, True], ids=["ElasticMode.STANDARD", "ElasticMode.FULL"])
@pytest.mark.parametrize("algorithm, use_e1", [(1, False), (1, True), (2, True)])
def test_unit_columns_solve_like_the_dense_block(lift, algorithm, use_e1):
    base = bounded_system()
    model = elasticize(lift_bounds(base) if lift else base)
    dense = dense_elastic_problem(base, lift)
    assert np.array_equal(lp_matrix(model.problem), dense.structure.A)
    assert np.array_equal(model.problem.c, dense.c)
    for name in ("senses", "b", "lower", "upper"):
        assert np.array_equal(getattr(model.problem.structure, name),
                              getattr(dense.structure, name)), name
    cfg = StrategyConfig(algorithm=algorithm, use_e1=use_e1)
    ref = solve_maxfs(replace(model, problem=dense), cfg)
    res = solve_maxfs(model, cfg)
    assert ref.removed_rows and res.removed_rows == ref.removed_rows
    assert abs(res.final_z - ref.final_z) <= 1e-9
    assert np.max(np.abs(res.final_solution.x - ref.final_solution.x)) <= 1e-9


def test_lifted_bounds_end_the_singleton_exit_feasible():
    # with the bounds penalised but not deletable, the SINGLETON exit
    # deleted the last violated row while x2 >= 0 was still violated, and
    # the search ended at Z = 0.28; lifted, that bound is row 18 and the
    # search deletes it
    lifted = lift_bounds(bounded_system())
    res = solve_maxfs(lifted)
    assert res.exit_reason is ExitReason.SINGLETON
    assert res.removed_rows == [14, 2, 4, 11, 1, 18]
    assert res.final_z <= 1e-9 and res.lp_count == 22
    assert scipy_feasible(lifted, [i for i in range(lifted.m) if i not in res.removed_rows])


def test_full_elastic_objective_counts_bound_violation():
    # x >= 5 with 0 <= x <= 2: the cheapest repair stretches the upper
    # bound by 3, so the minimum penalty is 3
    sys_ = LinearSystem([[1.0]], [">="], [5.0], lower=[0.0], upper=[2.0])
    model = elasticize(lift_bounds(sys_))
    sol = SimplexSolver().solve(model.lp_problem())
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.z - 3.0) <= 1e-9


def test_standard_elastic_z_zero_iff_feasible():
    feas = LinearSystem([[1.0, 1.0], [1.0, -1.0]], [">=", "<="], [1.0, 0.5])
    infeas = LinearSystem([[1.0], [1.0]], [">=", "<="], [2.0, 1.0])
    eng = SimplexSolver()
    z_f = eng.solve(elasticize(feas).lp_problem()).z
    z_i = SimplexSolver().solve(elasticize(infeas).lp_problem()).z
    assert z_f <= 1e-9
    assert abs(z_i - 1.0) <= 1e-9  # gap between the two rows


def test_removal_zeroes_costs_without_touching_structure():
    sys_ = LinearSystem([[1.0], [1.0]], [">=", "<="], [2.0, 1.0])
    model = elasticize(sys_)
    removed = model.remove_row(0)
    assert removed.removed_rows == {0}
    assert model.removed_rows == frozenset()  # the original is untouched
    assert removed.lp_problem().structure is model.lp_problem().structure
    c0 = model.lp_costs()
    c1 = removed.lp_costs()
    col = model.row_elastics[0][0]
    assert c0[col] == 1.0 and c1[col] == 0.0
    both = removed.remove_row(1)
    assert both.removed_rows == {0, 1}
    assert removed.removed_rows == {0}  # each removal makes a new model
    assert np.array_equal(model.lp_costs(), c0)
    with pytest.raises(ValueError):
        removed.remove_row(0)
    with pytest.raises(ValueError):
        model.remove_row(2)


def test_violations_and_costs_match_solution():
    sys_ = LinearSystem([[1.0], [1.0], [1.0]], [">=", "<=", "="], [2.0, 1.0, 1.5])
    model = elasticize(sys_)
    eng = SimplexSolver()
    sol = eng.solve(model.lp_problem())
    v = model.violations(sol)
    assert v.shape == (3,)
    assert np.all(v >= -1e-12)
    # each row's violation is the largest of its penalty columns
    assert v.tolist() == [max(sol.x[c] for c in cols) for cols in model.row_elastics]
    assert abs(model.lp_costs() @ sol.x - sol.z) <= 1e-12
    # removing a row discounts its penalty from the costs, not from sol.z
    removed = model.remove_row(int(np.argmax(v)))
    assert removed.lp_costs() @ sol.x <= sol.z + 1e-12


def test_removed_rows_track_removals():
    sys_ = LinearSystem(np.eye(3), ["=", "=", "="], [1.0, 2.0, 3.0])
    model = elasticize(sys_).remove_row(1)
    assert model.removed_rows == {1}
    assert [i for i in range(model.base.m) if i not in model.removed_rows] == [0, 2]


# ----------------------------------------------------------------------
# text formats


def test_format_parse_roundtrip_simple():
    sys_ = LinearSystem([[1.5, -2.0], [0.25, 4.0]], [">=", "="], [1.0, -3.5])
    text = format_system(sys_)
    back = parse_system(text)
    assert np.array_equal(back.coeffs, sys_.coeffs)
    assert np.array_equal(back.senses, sys_.senses)
    assert np.array_equal(back.rhs, sys_.rhs)
    assert np.all(np.isneginf(back.lower)) and np.all(np.isposinf(back.upper))


def test_format_parse_roundtrip_with_bounds():
    sys_ = LinearSystem([[1.0, 1.0]], ["<="], [4.0], lower=[0.0, -np.inf], upper=[np.inf, 3.0])
    back = parse_system(format_system(sys_))
    assert np.array_equal(back.lower, sys_.lower)
    assert np.array_equal(back.upper, sys_.upper)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_system("")
    with pytest.raises(ValueError):
        parse_system("not a header\n")
    with pytest.raises(ValueError):
        parse_system("1 2\n1.0 2.0 >=\n")  # missing rhs
    with pytest.raises(ValueError):
        parse_system("1 2\n1.0 2.0 ~ 3.0\n")  # bad sense
    with pytest.raises(ValueError):
        parse_system("2 1\n1.0 = 1.0\n")  # row count mismatch
    with pytest.raises(ValueError):
        parse_system("1 1\n1.0 = x\n")  # bad number


def test_file_roundtrips(tmp_path):
    sys_ = LinearSystem([[1.0, 2.0], [3.0, 4.0]], ["<=", ">="], [1.0, 2.0])
    p = tmp_path / "sys.txt"
    write_system(sys_, p)
    back = read_system(p)
    assert np.array_equal(back.coeffs, sys_.coeffs)

    A = np.array([[1.0, -2.5, 3.0], [0.0, 4.0, -5.5]])
    pm = tmp_path / "A.txt"
    write_matrix(A, pm)
    assert np.array_equal(read_matrix(pm), A)

    v = np.array([1.0, -2.0, 0.5])
    pv = tmp_path / "b.txt"
    write_vector(v, pv)
    assert np.array_equal(read_vector(pv), v)


def test_matrix_parse_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1.0 2.0\n")
    with pytest.raises(ValueError):
        read_matrix(p)
    p.write_text("1 3\n1.0 2.0\n")
    with pytest.raises(ValueError):
        read_matrix(p)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_is_exact_for_random_systems(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 4))
    coeffs = np.array(
        data.draw(st.lists(st.lists(finite, min_size=n, max_size=n), min_size=m, max_size=m))
    )
    for i in range(m):
        if not coeffs[i].any():
            coeffs[i, 0] = 1.0
    senses = data.draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    rhs = np.array(data.draw(st.lists(finite, min_size=m, max_size=m)))
    lo = np.array(data.draw(st.lists(st.one_of(st.just(-np.inf), finite), min_size=n, max_size=n)))
    hi_raw = data.draw(st.lists(st.one_of(st.just(np.inf), finite), min_size=n, max_size=n))
    hi = np.maximum(np.array(hi_raw), lo)
    sys_ = LinearSystem(coeffs, senses, rhs, lo, hi)
    back = parse_system(format_system(sys_))
    # repr-based formatting makes the round trip bit-exact
    assert np.array_equal(back.coeffs, sys_.coeffs)
    assert np.array_equal(back.senses, sys_.senses)
    assert np.array_equal(back.rhs, sys_.rhs)
    assert np.array_equal(back.lower, sys_.lower)
    assert np.array_equal(back.upper, sys_.upper)
