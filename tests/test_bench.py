"""Seeded benchmark: instance generation, sweeps, and summaries."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxfs
from maxfs.bench import BenchRecord, SweepSpec, gen_instance, run_sweep, summarize


def small_spec(**kw):
    defaults = dict(m=8, n=16, s_levels=(1, 2), instances=2, seed=7,
                    methods=("bp", "me1e2"))
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(m=16, n=16)  # need m < n
    with pytest.raises(ValueError):
        small_spec(s_levels=())
    with pytest.raises(ValueError):
        small_spec(s_levels=(8,))  # S must stay below m
    with pytest.raises(ValueError):
        small_spec(s_levels=(-1,))
    with pytest.raises(ValueError):
        small_spec(instances=0)
    with pytest.raises(ValueError):
        small_spec(methods=("bp", "nope"))
    with pytest.raises(ValueError):
        small_spec(methods=())
    with pytest.raises(ValueError):
        small_spec(workers=0)


@pytest.mark.parametrize("field, value", [
    ("s_levels", (2.7,)), ("instances", 1.5), ("m", 8.0), ("n", 16.0), ("seed", 7.5),
    ("workers", 1.5),
])
def test_spec_refuses_fractional_counts(field, value):
    # a fractional level used to run truncated, and the other fields
    # passed validation and then raised TypeError in the sweep
    with pytest.raises(ValueError, match="integer"):
        small_spec(**{field: value})


def test_spec_takes_numpy_integers_as_ints():
    spec = small_spec(m=np.int64(8), n=np.int32(16), s_levels=(np.int64(1),),
                      instances=np.int64(2), seed=np.int64(7), workers=np.int64(1))
    assert all(type(v) is int for v in (spec.m, spec.n, spec.instances, spec.seed,
                                        *spec.s_levels))
    def untimed(records):
        return [{**r.as_dict(), "seconds": None} for r in records]

    assert untimed(run_sweep(spec)) == untimed(run_sweep(small_spec(s_levels=(1,))))


def test_import_loads_no_process_pool():
    # the pool is imported where a parallel sweep starts it, so a plain
    # `import maxfs` loads neither it nor multiprocessing
    src = str(Path(maxfs.__file__).resolve().parent.parent)
    code = "import sys, maxfs; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env={"PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_compression_ratio():
    assert small_spec(m=8, n=16).cr == 50.0
    assert abs(small_spec(m=128, n=256).cr - 50.0) <= 1e-12


def test_gen_instance_is_deterministic_and_planted():
    spec = small_spec()
    p1, x1 = gen_instance(spec, 2, 0)
    p2, x2 = gen_instance(spec, 2, 0)
    assert np.array_equal(p1.A, p2.A)
    assert np.array_equal(p1.b, p2.b)
    assert np.array_equal(x1, x2)
    assert np.count_nonzero(x1) == 2
    assert np.allclose(p1.A @ x1, p1.b)
    # different coordinates give different instances
    p3, _ = gen_instance(spec, 2, 1)
    assert not np.array_equal(p1.A, p3.A)
    p4, _ = gen_instance(spec, 1, 0)
    assert not np.array_equal(p1.b, p4.b)


def test_gen_instance_zero_sparsity():
    spec = small_spec(s_levels=(0,))
    prob, x = gen_instance(spec, 0, 0)
    assert not x.any()
    assert not prob.b.any()


def test_seed_changes_instances():
    a, _ = gen_instance(small_spec(seed=1), 2, 0)
    b, _ = gen_instance(small_spec(seed=2), 2, 0)
    assert not np.array_equal(a.A, b.A)


def test_run_sweep_shape_and_order():
    spec = small_spec()
    records = run_sweep(spec)
    assert len(records) == len(spec.s_levels) * spec.instances * len(spec.methods)
    keys = [(r.S, r.instance, spec.methods.index(r.method)) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.m == spec.m and r.n == spec.n
        assert r.lp_count >= 1
        assert r.seconds >= 0.0
        # easy regime: everything should recover exactly here
        assert r.correct and r.T == r.S


def test_run_sweep_records_failures_not_exceptions():
    # S near m defeats l1 at this size; bp records correct=False
    spec = small_spec(m=6, n=12, s_levels=(5,), instances=2, methods=("bp",))
    records = run_sweep(spec)
    assert len(records) == 2
    assert all(isinstance(r.correct, bool) for r in records)


def test_parallel_matches_serial():
    spec = small_spec()
    serial = run_sweep(spec)
    par = run_sweep(small_spec(workers=2))
    assert [(r.method, r.S, r.instance, r.T, r.correct, r.lp_count) for r in serial] == [
        (r.method, r.S, r.instance, r.T, r.correct, r.lp_count) for r in par
    ]


def test_sweep_results_do_not_depend_on_method_order():
    # the first method solves each instance's basis-pursuit LP for all
    def outcome(methods):
        spec = small_spec(m=10, n=20, s_levels=(3, 7), instances=3, methods=methods)
        return {(r.method, r.S, r.instance): (r.T, r.correct, r.lp_count)
                for r in run_sweep(spec)}

    forward = outcome(("bp", "c", "me1e2"))
    assert forward == outcome(("me1e2", "c", "bp"))
    assert any(lp > 1 for _, _, lp in forward.values())


def test_summarize_levels_and_critical_sparsity():
    spec = small_spec()
    records = run_sweep(spec)
    summary = summarize(spec, records)
    assert summary["m"] == spec.m and summary["n"] == spec.n
    assert summary["cr"] == 50.0
    rows = summary["levels"]
    assert len(rows) == len(spec.methods) * len(spec.s_levels)
    for row in rows:
        assert row["instances"] == spec.instances
        assert 0 <= row["correct"] <= spec.instances
        assert row["mean_lp"] >= 1.0
    # everything recovered, so the critical sparsity is the top level
    assert summary["critical_sparsity"] == {"bp": 2, "me1e2": 2}


def test_summarize_critical_sparsity_none_when_never_perfect():
    spec = small_spec(m=6, n=12, s_levels=(5,), instances=3, methods=("bp",))
    records = run_sweep(spec)
    summary = summarize(spec, records)
    n_correct = sum(r.correct for r in records)
    expected = 5 if n_correct == 3 else None
    assert summary["critical_sparsity"]["bp"] == expected


def test_record_as_dict_rounds_seconds():
    rec = BenchRecord("bp", 4, 8, 1, 0, 1, True, 1, 0.123456789)
    d = rec.as_dict()
    assert d["seconds"] == 0.123457
    assert d["method"] == "bp"
