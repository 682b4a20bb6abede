"""Front-end behaviour: JSON lines out, CSV projections, exit codes."""

from __future__ import annotations

import csv
import inspect
import json

import numpy as np
import pytest

from maxfs.bench import METHODS, SweepSpec
from maxfs.classify import Dataset, build_constraints
from maxfs.cli import main
from maxfs.recovery import RecoveryProblem, method_b
from maxfs.systems import (
    LinearSystem, read_matrix, read_vector, write_matrix, write_system, write_vector,
)

from conftest import bounded_system, planted_instance, random_infeasible_system


@pytest.fixture
def infeasible_file(tmp_path):
    sys_ = LinearSystem(
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
        [">=", "<=", ">=", "<="],
        [2.0, 1.0, 5.0, 1.0],
    )
    p = tmp_path / "sys.txt"
    write_system(sys_, p)
    return str(p)


@pytest.fixture
def recovery_files(tmp_path):
    A, x, b = planted_instance(3, 8, 16, 2)
    pa, pb = tmp_path / "A.txt", tmp_path / "b.txt"
    write_matrix(A, pa)
    write_vector(b, pb)
    return str(pa), str(pb), x


@pytest.fixture
def points_csv(tmp_path):
    rows = ["f1,f2,cls", "0,0,0", "1,0,0", "4,4,1", "5,4,1"]
    p = tmp_path / "pts.csv"
    p.write_text("\n".join(rows) + "\n")
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(ln) for ln in out.splitlines() if ln]


def strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: strip_timing(v)
            for k, v in obj.items()
            if k not in ("seconds", "mean_seconds")
        }
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def test_maxfs_subcommand(capsys, infeasible_file):
    code, recs = run_cli(capsys, "maxfs", infeasible_file, "--alg", "2")
    assert code == 0
    (rec,) = recs
    assert rec["command"] == "maxfs"
    assert rec["m"] == 4 and rec["n"] == 2
    assert len(rec["removed_rows"]) == 2
    assert rec["final_z"] <= 1e-6
    assert rec["lp_count"] >= 1
    assert rec["schema_version"] == 1


def test_maxfs_e1_flag(capsys, infeasible_file):
    code, recs = run_cli(capsys, "maxfs", infeasible_file, "--alg", "2", "--e1")
    assert code == 0
    assert recs[0]["e1"] is True
    assert recs[0]["lp_count"] == recs[0]["iterations"] + 1


def test_maxfs_csv_projection(capsys, tmp_path, infeasible_file):
    out = tmp_path / "res.csv"
    code, _ = run_cli(capsys, "maxfs", infeasible_file, "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["m"] == "4"
    assert rows[0]["removed_rows"].count(" ") == 1  # two indices


def test_maxfs_e2_with_k_reaches_a_feasible_subsystem(capsys, tmp_path):
    sys_ = random_infeasible_system(np.random.default_rng(5), m_extra=8)
    p = tmp_path / "sys.txt"
    write_system(sys_, p)
    code, recs = run_cli(capsys, "maxfs", str(p), "--k", "1", "--e2", "3")
    assert code == 0
    (rec,) = recs
    assert rec["exit_reason"] == "bulk_e2"
    assert rec["final_z"] <= 1e-6
    assert len(rec["removed_rows"]) == 10
    assert all(type(i) is int for i in rec["removed_rows"])


def test_maxfs_full_elastic_deletes_bounds(capsys, tmp_path):
    # the 15x3 system's bounds become rows 15 to 18: x0 >= -1, x0 <= 1,
    # x1 <= 2 and x2 >= 0, and the search deletes x2 >= 0
    p = tmp_path / "sys.txt"
    write_system(bounded_system(), p)
    code, recs = run_cli(capsys, "maxfs", str(p), "--full-elastic")
    assert code == 0
    (rec,) = recs
    assert rec["full_elastic"] is True and rec["m"] == 15
    assert rec["removed_rows"] == [14, 2, 4, 11, 1, 18]
    assert rec["final_z"] == 0.0 and rec["exit_reason"] == "singleton"


def test_classify_subcommand(capsys, points_csv):
    code, recs = run_cli(capsys, "classify", points_csv, "--label-col", "cls")
    assert code == 0
    (rec,) = recs
    assert rec["accuracy"] == 1.0
    assert rec["points"] == 4 and rec["features"] == 2
    assert len(rec["weights"]) == 2


def test_2inf_records_count_probes_and_batched_probes(capsys, tmp_path):
    # 60 overlapping points: 2inf probes every violated row, and rounds
    # of more than BATCH_MIN candidates are settled by the batch; the
    # maxfs subcommand runs the same search on the same rows
    rng = np.random.default_rng(6)
    z = rng.standard_normal((60, 2))
    z[30:, 0] += 1.0
    labels = np.repeat([0, 1], 30)
    csv_path = tmp_path / "pts.csv"
    lines = [f"{float(a)!r},{float(b)!r},{c}" for (a, b), c in zip(z, labels)]
    csv_path.write_text("\n".join(["f1,f2,cls", *lines]) + "\n")
    sys_path = tmp_path / "rows.txt"
    write_system(build_constraints(Dataset(z, labels)), sys_path)
    _, (cls,) = run_cli(capsys, "classify", str(csv_path), "--label-col", "cls",
                        "--algorithm", "2inf")
    _, (rows,) = run_cli(capsys, "maxfs", str(sys_path))
    for rec in (cls, rows):
        assert 0 < rec["batched_probes"] < rec["probes"] < rec["lp_count"]
        assert rec["kink_passes"] > 0
    counts = ("probes", "batched_probes", "kink_passes")
    assert [cls[k] for k in counts] == [rows[k] for k in counts]
    assert cls["removed_points"] == len(rows["removed_rows"])


def test_classify_csv_projection(capsys, tmp_path, points_csv):
    out = tmp_path / "cls.csv"
    code, _ = run_cli(capsys, "classify", points_csv, "--label-col", "cls",
                      "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"dataset", "algorithm", "accuracy", "lp_count", "seconds"}


def test_recover_subcommand(capsys, recovery_files):
    pa, pb, x = recovery_files
    code, recs = run_cli(capsys, "recover", pa, pb, "--method", "me1e2")
    assert code == 0
    (rec,) = recs
    assert rec["T"] == 2
    assert rec["support"] == sorted(int(j) for j in np.flatnonzero(x))
    assert rec["lp_count"] == 1
    # the first-round bulk exit deletes both nonzeros at once
    assert rec["removal_sizes"] == [2]
    code, recs = run_cli(capsys, "recover", pa, pb, "--method", "bp")
    assert code == 0 and recs[0]["removal_sizes"] == []


def test_recover_postprocess_fields(capsys, recovery_files):
    pa, pb, _ = recovery_files
    code, recs = run_cli(capsys, "recover", pa, pb, "--method", "b", "--postprocess")
    assert code == 0
    rec = recs[0]
    assert "post_support" in rec and "post_T" in rec
    assert rec["post_T"] <= rec["T"]


def test_sweep_subcommand(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, recs = run_cli(
        capsys, "sweep", "--m", "6", "--n", "12", "--s-levels", "1,2",
        "--instances", "2", "--seed", "5", "--methods", "bp,me1e2",
        "--out", str(out),
    )
    assert code == 0
    records = [r for r in recs if r["kind"] == "record"]
    summaries = [r for r in recs if r["kind"] == "summary"]
    assert len(records) == 2 * 2 * 2
    assert len(summaries) == 1
    assert "critical_sparsity" in summaries[0]
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == len(records)


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    """A 12x24 instance at S = 6, as files and as read back from them."""
    d = tmp_path_factory.mktemp("table")
    A, _, b = planted_instance(3, 12, 24, 6)
    pa, pb = d / "A.txt", d / "b.txt"
    write_matrix(A, pa)
    write_vector(b, pb)
    A, b = read_matrix(pa), read_vector(pb)
    # the instance tells method_b's default limit from no limit, so a
    # front end that passed k=None would be caught
    assert method_b(RecoveryProblem(A, b)).lp_count != method_b(RecoveryProblem(A, b),
                                                                 k=None).lp_count
    return str(pa), str(pb), A, b


@pytest.mark.parametrize("name", sorted(METHODS))
def test_recover_reports_what_the_table_method_returns(capsys, table_files, name):
    pa, pb, A, b = table_files

    def expected(**options):
        res = METHODS[name](RecoveryProblem(A, b), **options)
        return sorted(res.support), res.T, res.lp_count

    def reported(*argv):
        code, (rec,) = run_cli(capsys, "recover", pa, pb, "--method", name, *argv)
        assert code == 0 and rec["method"] == name
        return rec["support"], rec["T"], rec["lp_count"]

    assert reported() == expected()
    if name in ("b", "c", "m", "jp"):
        assert reported("--k", "1") == expected(k=1)
    if name == "me1e2":
        assert reported("--ell", "2") == expected(ell=2)
    # an option the method does not take is ignored
    other = "--ell" if "k" in inspect.signature(METHODS[name]).parameters else "--k"
    assert reported(other, "1") == expected()


@pytest.mark.parametrize("name", sorted(METHODS))
def test_sweep_accepts_every_table_method(capsys, name):
    code, recs = run_cli(capsys, "sweep", "--m", "6", "--n", "12", "--s-levels", "1",
                         "--instances", "1", "--seed", "3", "--methods", name)
    assert code == 0
    assert [r["method"] for r in recs if r["kind"] == "record"] == [name]


def test_sweep_defaults_to_the_spec_methods(capsys):
    code, recs = run_cli(capsys, "sweep", "--m", "6", "--n", "12", "--s-levels", "1",
                         "--instances", "1", "--seed", "3")
    assert code == 0
    assert [r["method"] for r in recs if r["kind"] == "record"] == list(SweepSpec.methods)


def test_output_is_deterministic_excluding_timing(capsys, infeasible_file, recovery_files, points_csv):
    pa, pb, _ = recovery_files
    cases = [
        ("maxfs", infeasible_file, "--alg", "2"),
        ("maxfs", infeasible_file, "--alg", "2", "--e1"),
        ("classify", points_csv, "--label-col", "cls", "--algorithm", "2inf"),
        ("recover", pa, pb, "--method", "c"),
        ("sweep", "--m", "6", "--n", "12", "--s-levels", "1", "--instances", "2",
         "--seed", "9", "--methods", "bp,b"),
    ]
    for argv in cases:
        code1, first = run_cli(capsys, *argv)
        code2, second = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert strip_timing(first) == strip_timing(second), argv


def test_keys_are_sorted_in_output(capsys, infeasible_file):
    main(["maxfs", infeasible_file])
    line = capsys.readouterr().out.splitlines()[0]
    keys = list(json.loads(line))
    assert keys == sorted(keys)


def test_exit_code_2_on_missing_file(capsys):
    assert main(["maxfs", "/nonexistent/sys.txt"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_exit_code_2_on_malformed_input(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a system\n")
    assert main(["maxfs", str(p)]) == 2


HEADER = "header must be 'm n', two integers of at least 1, got "
NOT_A_FLOAT = "bad number: could not convert string to float: 'abc'"


@pytest.mark.parametrize("command, texts, message", [
    ("recover", ["3\n1 2 3\n", "1\n2\n"], HEADER + "'3'"),
    ("recover", ["-1 2\n", "1\n2\n"], HEADER + "'-1 2'"),
    ("recover", ["2 3\n1 0 0\n0 abc 0\n", "1\n2\n"], "matrix row 1: " + NOT_A_FLOAT),
    ("recover", ["2 3\n1 0 0\n0 1 0\n", "1\nabc\n"], "vector entry 1: " + NOT_A_FLOAT),
    ("maxfs", ["1 x\n1 >= 1\n"], HEADER + "'1 x'"),
    ("maxfs", ["0 2\n"], HEADER + "'0 2'"),
    ("maxfs", ["1 1\n1 >= 1\nabc 5\n"], "bound line 0: " + NOT_A_FLOAT),
], ids=["matrix-header-short", "matrix-header-negative", "matrix-row", "vector-entry",
        "system-header-text", "system-header-zero", "system-bound-line"])
def test_exit_code_2_names_the_bad_line(capsys, tmp_path, command, texts, message):
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"in{i}.txt")
        paths[-1].write_text(text)
    method = ["--method", "bp"] if command == "recover" else []
    assert main([command, *map(str, paths), *method]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"input error: {message}\n" in out.err


def test_exit_code_2_on_nan_bound(capsys, tmp_path):
    p = tmp_path / "nan.txt"
    p.write_text("2 1\n1 >= 2\n1 <= 1\nnan 5\n")
    assert main(["maxfs", str(p)]) == 2
    assert "NaN" in capsys.readouterr().err


def test_exit_code_2_on_algorithm_3_with_e1(capsys, infeasible_file):
    # the configuration is refused before any solve, so nothing is printed
    assert main(["maxfs", infeasible_file, "--alg", "3", "--e1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "E1" in out.err


def test_exit_code_2_on_rank_deficient_rhs(capsys, tmp_path):
    # b outside the range of A is an input problem, not a solver failure
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    pa, pb = tmp_path / "A.txt", tmp_path / "b.txt"
    write_matrix(A, pa)
    write_vector(np.array([1.0, 3.0]), pb)
    assert main(["recover", str(pa), str(pb), "--method", "bp"]) == 2
    assert "range" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["b", "c", "m"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_exit_code_2_on_k_below_one(capsys, recovery_files, method, k):
    pa, pb, _ = recovery_files
    assert main(["recover", pa, pb, "--method", method, "--k", k]) == 2
    assert "k must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_exit_code_2_on_nonfinite_epsilon(capsys, points_csv, eps):
    assert main(["classify", points_csv, "--label-col", "cls", "--epsilon", eps]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "input error: epsilon must be positive and finite" in out.err


def test_exit_code_2_on_bad_label_column(capsys, points_csv):
    assert main(["classify", points_csv, "--label-col", "nope"]) == 2
