"""Quick test of the benchmark itself: tiny inputs, a few seconds.

    python3 -m pytest perfbench/test_tiny.py

Covers the output checks (each catches a broken output), the metric
names and units each mode prints, the form of BENCHMARK.json, and the
refusal to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_json_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "recovery",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_classification_check_catches_broken_outputs():
    op = workloads.classify_probe(seed=2, tiny=True)[0]
    rep = op.call()
    assert checks.check_classification(op.data, rep) == []
    # hyperplane turned around: accuracy and margins no longer hold
    flipped = dataclasses.replace(rep.hyperplane, weights=-rep.hyperplane.weights,
                                  offset=-rep.hyperplane.offset)
    assert checks.check_classification(op.data, dataclasses.replace(rep, hyperplane=flipped))
    # a removed point claimed as kept misses its margin
    kept_all = dataclasses.replace(rep, removed_points=())
    assert checks.check_classification(op.data, kept_all)


def test_recovery_check_catches_broken_outputs():
    ops = workloads.recovery(seed=2, tiny=True)
    bp = ops[0]
    res = bp.call()
    ref = checks.l1_optimum(bp.data)
    assert checks.check_recovery(bp.data, res, ref) == []
    y = res.y.copy()
    j = int(np.argmax(np.abs(y)))
    y[j] *= 1.01
    assert checks.check_recovery(bp.data, dataclasses.replace(res, y=y), ref)
    smaller = dataclasses.replace(res, support=frozenset(sorted(res.support)[1:]))
    assert checks.check_recovery(bp.data, smaller, ref)
    # the smallest nonzero, counted as zero under a coarser threshold:
    # y still gives b, but y cut down to its support does not
    j = min(res.support, key=lambda k: abs(res.y[k]))
    coarse = dataclasses.replace(bp.data, zero_tol=2.0 * abs(res.y[j]))
    cut = dataclasses.replace(res, support=res.support - {j})
    problems = checks.check_recovery(coarse, cut)
    assert len(problems) == 1 and "misses b" in problems[0]
    # a feasible y that is not l1-optimal
    assert checks.check_recovery(bp.data, res, ref * 0.9)
