"""Spans around the calls into each layer of maxfs, for the traced run.

`Tracer.install` replaces public functions and methods where their
callers look them up (a module global for a function, the class for a
method) with wrappers that time each call and read the counters on its
result. Spans nest: a span's self time is its duration minus the time
of the spans opened inside it. Everything stays in memory; `metrics`
turns the totals of one round into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import defaultdict

from workloads import RECOVERY_METHODS

# modules, not names: the package exports a function named `classify`
# that hides the submodule's attribute on `maxfs`
_classify = importlib.import_module("maxfs.classify")
_core = importlib.import_module("maxfs.core")
_simplex = importlib.import_module("maxfs.simplex")
_systems = importlib.import_module("maxfs.systems")

# per-layer metric -> unit, in the order they are reported
PER_LAYER = {
    "simplex.solves": "count",
    "simplex.iterations": "count",
    "simplex.cold_solves": "count",
    "simplex.cold_s": "s",
    "simplex.warm_solves": "count",
    "simplex.warm_s": "s",
    "simplex.us_per_iteration": "us",
    "simplex.state_calls": "count",
    "simplex.state_s": "s",
    "systems.remove_row_s": "s",
    "systems.lp_problem_s": "s",
    "core.rounds": "count",
    "core.probes": "count",
    "core.probe_yield": "ratio",
    "core.mean_batch_size": "count",
    "core.candidates_s": "s",
    "core.self_s": "s",
    "changepoint.cut_s": "s",
    "classify.2inf_s": "s",
    "classify.2e1_s": "s",
    **{f"recovery.{m}_{k}": u for m in RECOVERY_METHODS
       for k, u in (("s", "s"), ("lp_solves", "count"))},
    "traced.wall_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        # structure each engine solved last: a solve on another one is cold
        self._last_structure: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._open: list[float] = []      # child time of each open span
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.batch_sizes: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            children = self._open.pop()
            self.calls[name] += 1
            self.seconds[name] += dur
            self.self_seconds[name] += dur - children
            if self._open:
                self._open[-1] += dur

    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        solver = _simplex.SimplexSolver
        solve = solver.solve

        def traced_solve(engine, problem, *args, **kwargs):
            cold = self._last_structure.get(engine) is not problem.structure
            self._last_structure[engine] = problem.structure
            name = "simplex.cold" if cold else "simplex.warm"
            sol = self.span(name, solve, engine, problem, *args, **kwargs)
            self.counts["simplex.iterations"] += sol.iterations
            return sol

        solve_maxfs = _classify.solve_maxfs

        def traced_solve_maxfs(*args, **kwargs):
            res = self.span("core.solve_maxfs", solve_maxfs, *args, **kwargs)
            self.counts["core.rounds"] += res.iterations
            self.counts["core.probes"] += res.probes
            self.batch_sizes.extend(res.removal_sizes)
            return res

        self._patch(solver, "solve", traced_solve)
        self._patch_timed(solver, "save_state", "simplex.state")
        self._patch_timed(solver, "load_state", "simplex.state")
        self._patch_timed(_systems.ElasticModel, "remove_row", "systems.remove_row")
        self._patch_timed(_systems.ElasticModel, "lp_problem", "systems.lp_problem")
        self._patch(_classify, "solve_maxfs", traced_solve_maxfs)
        self._patch_timed(_core, "build_candidates_alg2", "core.candidates")
        self._patch_timed(_core, "first_mean_change", "changepoint.cut")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_timed(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patch(owner, attr, lambda *a, **k: self.span(name, original, *a, **k))

    # ------------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded since `reset`;
        `wall_s` is the traced round's own wall time."""
        c, s = self.calls, self.seconds
        solves = c["simplex.cold"] + c["simplex.warm"]
        solve_s = s["simplex.cold"] + s["simplex.warm"]
        iterations = self.counts["simplex.iterations"]
        rounds, probes = self.counts["core.rounds"], self.counts["core.probes"]
        out = {
            "simplex.solves": solves,
            "simplex.iterations": iterations,
            "simplex.cold_solves": c["simplex.cold"],
            "simplex.cold_s": s["simplex.cold"],
            "simplex.warm_solves": c["simplex.warm"],
            "simplex.warm_s": s["simplex.warm"],
            "simplex.us_per_iteration": 1e6 * solve_s / iterations if iterations else 0.0,
            "simplex.state_calls": c["simplex.state"],
            "simplex.state_s": s["simplex.state"],
            "systems.remove_row_s": s["systems.remove_row"],
            "systems.lp_problem_s": s["systems.lp_problem"],
            "core.rounds": rounds,
            "core.probes": probes,
            "core.probe_yield": rounds / probes if probes else 0.0,
            "core.mean_batch_size": (sum(self.batch_sizes) / len(self.batch_sizes)
                                     if self.batch_sizes else 0.0),
            "core.candidates_s": s["core.candidates"],
            "core.self_s": self.self_seconds["core.solve_maxfs"],
            "changepoint.cut_s": s["changepoint.cut"],
            "classify.2inf_s": s["classify.2inf"],
            "classify.2e1_s": s["classify.2e1"],
            "traced.wall_s": wall_s,
        }
        for m in RECOVERY_METHODS:
            out[f"recovery.{m}_s"] = s[f"recovery.{m}"]
            out[f"recovery.{m}_lp_solves"] = self.counts[f"recovery.{m}.lp_solves"]
        return out
