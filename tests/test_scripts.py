"""The command-line scripts under scripts/ run and repeat themselves, and
the README's library and command-line examples run as written."""

from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxfs.cli import main
from maxfs.systems import write_matrix, write_system, write_vector

from conftest import planted_instance, random_infeasible_system

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("workload", ["classify-probe", "classify-batch", "recovery"])
def test_call_records_repeat_exactly(workload):
    cmd = [sys.executable, str(SCRIPTS / "call_records.py"), "--workload", workload,
           "--seed", "7", "--tiny"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    records = [json.loads(line) for line in runs[0].splitlines()]
    assert records and all(r["lp_count"] >= 1 for r in records)
    assert all(0 <= r["degenerate_pivots"] <= r["pivots"] for r in records)
    key = "removed_points" if workload.startswith("classify") else "support"
    assert all(key in r and "removal_sizes" in r for r in records)


def test_classification_lp_costs_reports_the_accuracy_gap():
    cmd = [sys.executable, str(SCRIPTS / "classification_lp_costs.py"), "--seeds", "1",
           "--points", "40"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True).stdout
    summary = out.splitlines()[-1]
    assert "mean LP reduction" in summary
    assert "vs 2k1" in summary and "vs 2inf" in summary


def test_recovery_phase_transition_prints_one_row_per_method_and_level():
    methods, levels = ("bp", "me1e2", "c"), ("1", "3")
    cmd = [sys.executable, str(SCRIPTS / "recovery_phase_transition.py"), "--m", "8", "--n", "16",
           "--instances", "3", "--s-levels", ",".join(levels), "--methods", ",".join(methods)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True).stdout
    fields = [line.split() for line in out.splitlines()]
    assert [f[:2] for f in fields if f and f[0] in methods] == [
        [m, s] for m in methods for s in levels]
    assert [f[2] for f in fields if f[:2] == ["critical", "sparsity"]] == [
        f"{m}:" for m in methods]


def test_readme_library_examples_give_what_their_comments_say():
    # the first two python blocks (the library call and lift_bounds)
    # stand alone; the ones after them use data the reader supplies
    text = (ROOT / "README.md").read_text()
    library, lifted = re.findall(r"```python\n(.*?)```", text, re.S)[:2]
    assert "lift_bounds(" in lifted
    library_scope, lifted_scope = {}, {}
    exec(library, library_scope)
    exec(lifted, lifted_scope)
    assert library_scope["res"].removed_rows == [0]
    assert library_scope["res"].z_history[-1] == 0.0  # "ends at 0"
    assert lifted_scope["res"].removed_rows == [0]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # the block under "Command line", run from a directory holding small
    # files under the names it uses
    section = (ROOT / "README.md").read_text().split("## Command line")[1].split("\n## ")[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["maxfs", sub] for sub in ("maxfs", "classify", "recover", "sweep")]
    monkeypatch.chdir(tmp_path)
    write_system(random_infeasible_system(np.random.default_rng(5), m_extra=4), "system.txt")
    (tmp_path / "points.csv").write_text("f1,f2,cls\n0,0,0\n1,0,0\n0.5,0.2,1\n4,4,1\n5,4,1\n")
    A, _, b = planted_instance(1, 8, 16, 2)
    write_matrix(A, "A.txt")
    write_vector(b, "b.txt")
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(isinstance(json.loads(line), dict) for line in lines), argv
