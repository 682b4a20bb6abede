"""Command-line front end.

Four subcommands: `maxfs` repairs an infeasible system file, `classify`
fits a hyperplane to a labeled CSV, `recover` finds a sparse solution
of A y = b from matrix/vector files, and `sweep` runs the seeded
recovery benchmark. `recover` and `sweep` name their methods from
`bench.METHODS`; `recover` passes `--k` and `--ell` only when given, to
the methods whose signature takes them. Results go to stdout as JSON
lines (keys sorted, so reruns with the same seed compare byte-for-byte
except the timing fields); `--out FILE.csv` additionally writes the
records as CSV, a list space-joined in one cell.

Exit codes: 0 success, 2 bad input, 3 solver failure or iteration cap.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import sys

from . import bench, recovery
from .classify import VARIANTS, classify as run_classify, load_csv
from .core import StrategyConfig, solve_maxfs
from .simplex import SolverError
from .systems import lift_bounds, read_matrix, read_system, read_vector

SCHEMA_VERSION = 1


def _output(out: str | None, records: list[dict], rows: list[dict] | None = None) -> int:
    """Print each record as one JSON line, keys sorted, with the schema
    version; given a path `out`, also write `rows` (by default the
    records) there as CSV, columns sorted and a list space-joined in one
    cell."""
    records = [{**rec, "schema_version": SCHEMA_VERSION} for rec in records]
    for rec in records:
        sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
    if out:
        rows = records if rows is None else rows
        with open(out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=sorted({k for row in rows for k in row}))
            w.writeheader()
            w.writerows({k: " ".join(map(str, v)) if isinstance(v, list) else v
                         for k, v in row.items()} for row in rows)
    return 0


def _cmd_maxfs(args) -> int:
    sys_ = read_system(args.system)
    cfg = StrategyConfig(
        algorithm=args.alg,
        k=args.k,
        use_e1=args.e1,
        e2_ell=args.e2,
    )
    res = solve_maxfs(lift_bounds(sys_) if args.full_elastic else sys_, cfg)
    rec = {
        "command": "maxfs",
        "system": os.path.basename(args.system),
        "m": sys_.m,
        "n": sys_.n,
        "alg": args.alg,
        "k": args.k,
        "e1": args.e1,
        "e2": args.e2,
        "full_elastic": args.full_elastic,
        "removed_rows": list(res.removed_rows),
        "removal_sizes": list(res.removal_sizes),
        "final_z": res.final_z,
        "lp_count": res.lp_count,
        "iterations": res.iterations,
        "exit_reason": res.exit_reason.value,
        "seconds": round(res.seconds, 6),
    }
    return _output(args.out, [rec])


def _cmd_classify(args) -> int:
    ds = load_csv(args.csv, args.label_col, args.positive_label)
    rep = run_classify(ds, args.algorithm, args.epsilon)
    rec = {
        "command": "classify",
        "dataset": os.path.basename(args.csv),
        "algorithm": args.algorithm,
        "epsilon": args.epsilon,
        "points": ds.I,
        "features": ds.J,
        "accuracy": rep.accuracy,
        "misclassified": len(rep.misclassified),
        "removed_points": len(rep.removed_points),
        "weights": [float(w) for w in rep.hyperplane.weights],
        "offset": rep.hyperplane.offset,
        "lp_count": rep.lp_count,
        "iterations": rep.iterations,
        "seconds": round(rep.seconds, 6),
    }
    cols = ("dataset", "algorithm", "accuracy", "lp_count", "seconds")
    return _output(args.out, [rec], [{k: rec[k] for k in cols}])


def _cmd_recover(args) -> int:
    A = read_matrix(args.A)
    b = read_vector(args.b)
    prob = recovery.RecoveryProblem(A, b)
    method = bench.METHODS[args.method]
    # an option the user left out, or one the method does not take, is
    # not passed: the method runs at its own default
    params = inspect.signature(method).parameters
    given = {name: value for name, value in (("k", args.k), ("ell", args.ell))
             if value is not None and name in params}
    res = method(prob, **given)
    rec = {
        "command": "recover",
        "method": args.method,
        "m": prob.m,
        "n": prob.n,
        "T": res.T,
        "support": sorted(res.support),
        "lp_count": res.lp_count,
        "iterations": res.iterations,
        "removal_sizes": list(res.removal_sizes),
        "bp_shortcut_taken": res.bp_shortcut_taken,
        "seconds": round(res.seconds, 6),
    }
    if args.postprocess:
        pruned = recovery.postprocess(prob, res.support)
        rec["post_support"] = sorted(pruned)
        rec["post_T"] = len(pruned)
    return _output(args.out, [rec])


def _cmd_sweep(args) -> int:
    spec = bench.SweepSpec(
        m=args.m,
        n=args.n,
        s_levels=args.s_levels,
        instances=args.instances,
        seed=args.seed,
        methods=bench.SweepSpec.methods if args.methods is None else args.methods,
        workers=args.workers,
    )
    records = bench.run_sweep(spec)
    rows = [r.as_dict() for r in records]
    summary = {**bench.summarize(spec, records), "kind": "summary"}
    return _output(args.out, [{**row, "kind": "record"} for row in rows] + [summary], rows)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maxfs",
        description="Feasible-subsystem search, LP classification, and sparse recovery.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("maxfs", help="repair an infeasible system file")
    pm.add_argument("system", help="system text file")
    pm.add_argument("--alg", type=int, choices=(1, 2, 3), default=2)
    pm.add_argument("--k", type=int, default=None, help="candidate list limit (default: no limit)")
    pm.add_argument("--e1", action="store_true", help="batch removal with mean-change cut")
    pm.add_argument("--e2", type=int, default=None, metavar="L", help="bulk-exit threshold")
    pm.add_argument("--full-elastic", action="store_true", help="make finite bounds deletable "
                    "rows: removed rows m and up are bounds, in variable order, lower first")
    pm.add_argument("--out", default=None, help="CSV output path")
    pm.set_defaults(func=_cmd_maxfs)

    pc = sub.add_parser("classify", help="fit a hyperplane to a labeled CSV")
    pc.add_argument("csv", help="numeric CSV with header")
    pc.add_argument("--label-col", required=True)
    pc.add_argument("--algorithm", choices=VARIANTS, default="2e1")
    pc.add_argument("--epsilon", type=float, default=1.0)
    pc.add_argument("--positive-label", default=None, help="label value mapped to class 1")
    pc.add_argument("--out", default=None, help="CSV output path")
    pc.set_defaults(func=_cmd_classify)

    pr = sub.add_parser("recover", help="sparse solution of A y = b")
    pr.add_argument("A", help="matrix text file")
    pr.add_argument("b", help="vector text file")
    pr.add_argument("--method", choices=sorted(bench.METHODS), required=True)
    pr.add_argument("--k", type=int, default=None,
                    help="candidate list limit per round, for b, c, m and jp (default: the method's)")
    pr.add_argument("--ell", type=int, default=None,
                    help="first-round bulk-exit size, for me1e2 (default: the method's, m-3)")
    pr.add_argument("--postprocess", action="store_true", help="prune redundant support entries")
    pr.add_argument("--out", default=None, help="CSV output path")
    pr.set_defaults(func=_cmd_recover)

    ps = sub.add_parser("sweep", help="seeded recovery benchmark")
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--s-levels", type=_int_list, required=True, metavar="LIST")
    ps.add_argument("--instances", type=int, required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--methods", type=lambda t: t.replace(",", " ").split(), default=None,
                    metavar="LIST", help=f"default: {','.join(bench.SweepSpec.methods)}")
    ps.add_argument("--workers", type=int, default=None)
    ps.add_argument("--out", default=None, help="CSV output path")
    ps.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
