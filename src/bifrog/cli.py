"""Command line interface.

Subcommands: bounds (one parameter row), table1 (the nine-row reference
grid, exit 1 on any mismatch), sweep (Monte Carlo survival curves), and
check (the paper's acceptance criteria 2-14, exit 1 on any failure).
Exit code 2 flags bad usage such as a malformed law spec, T_{1,1} or an
--output that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import __version__, bounds, checks, sim
from .laws import describe_law, parse_law
from .tree import TreeParams

SCHEMA_VERSION = 1


#: most points a lo:hi:step grid may hold
MAX_GRID_POINTS = 10 ** 6


def parse_p_grid(text: str) -> list:
    """Either 'lo:hi:step' (inclusive of hi up to rounding) or 'a,b,c'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad p grid {text!r}; expected lo:hi:step")
        lo, hi, step = (float(x) for x in parts)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise ValueError(f"bad p grid {text!r}; lo, hi and step must be finite")
        if step <= 0.0 or hi < lo or lo < 0.0 or hi > 1.0:
            raise ValueError(f"bad p grid {text!r}; need step > 0 and 0 <= lo <= hi <= 1")
        # the points are lo + i * step up to hi + 1e-12, counted before any is
        # made; a subnormal step overflows the count to infinity
        span = (hi + 1e-12 - lo) / step
        if not math.isfinite(span):
            raise ValueError(f"bad p grid {text!r}; step {step!r} makes the points "
                             f"exceed {MAX_GRID_POINTS}")
        count = math.floor(span) + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"bad p grid {text!r}; {count} points exceed "
                             f"{MAX_GRID_POINTS}")
        return [min(round(x, 12), hi) for x in (lo + np.arange(count) * step).tolist()]
    vals = [float(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise ValueError(f"bad p grid {text!r}; no values")
    return vals


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _emit(args, command: str, columns: list, rows: list, extra: dict | None = None) -> None:
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": command,
                   "rows": [dict(zip(columns, r)) for r in rows]}
        payload.update(extra or {})
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt_cell(v) for v in r])
        text = buf.getvalue()
    else:
        cells = [[_fmt_cell(v) for v in r] for r in rows]
        widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
                  for i, c in enumerate(columns)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                  for row in cells]
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(cls, records: list) -> tuple:
    """(columns, rows) with one column per field of the dataclass cls."""
    return ([f.name for f in dataclasses.fields(cls)],
            [dataclasses.astuple(r) for r in records])


def cmd_bounds(args) -> int:
    t = TreeParams(args.d1, args.d2)
    law = parse_law(args.eta)
    report = bounds.bounds_report(t, law)
    _emit(args, "bounds", *_table(bounds.BoundsReport, [report]))
    return 0


def cmd_table1(args) -> int:
    reports = bounds.table1()
    columns = ["d1", "d2", "lb_alves", "lb_biregular", "ub_root",
               "ref_lb_alves", "ref_lb_biregular", "ref_ub_root", "match"]
    rows = []
    bad = []
    for r in reports:
        ref = bounds.TABLE_REFERENCE[(r.d1, r.d2)]
        got = (r.lb_alves, r.lb_biregular, r.ub_root)
        oks = [abs(g - e) <= bounds.TABLE_TOL for g, e in zip(got, ref)]
        rows.append([r.d1, r.d2, *got, *ref, all(oks)])
        for name, g, e, ok in zip(("lb_alves", "lb_biregular", "ub_root"),
                                  got, ref, oks):
            if not ok:
                bad.append(f"({r.d1},{r.d2}) {name}: got {g:.6f}, expected {e:.4f}")
    _emit(args, "table1", columns, rows, extra={"all_match": not bad, "tol": bounds.TABLE_TOL})
    for line in bad:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if bad else 0


def cmd_sweep(args) -> int:
    t = TreeParams(args.d1, args.d2)
    law = parse_law(args.eta)
    ps = sim.check_grid(parse_p_grid(args.p))
    config = sim.SimConfig(tree=t, law=law, p=ps[0], horizon=args.horizon,
                           awake_cap=args.awake_cap, seed=args.seed)
    extra = {"coupled": args.coupled, "seed": args.seed,
             "eta": describe_law(law), "d1": args.d1, "d2": args.d2}
    if args.coupled:
        thresholds = sim.coupled_thresholds(config, sim.grid_p_max(ps),
                                            args.replicas)
        rows = thresholds.estimates(ps)
        extra["p_hat_quantiles"] = thresholds.quantiles()
    else:
        rows = sim.sweep(config, ps, args.replicas)
    _emit(args, "sweep", *_table(sim.SurvivalEstimate, rows), extra=extra)
    return 0


def cmd_check(args) -> int:
    results = checks.run_suite(args.suite, seed=args.seed)
    _emit(args, "check", *_table(checks.CheckResult, results), extra={"suite": args.suite})
    failures = [r for r in results if not r.passed]
    for r in failures:
        print(f"FAIL {r.name}: {r.detail}", file=sys.stderr)
    return 1 if failures else 0


def _add_tree_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--eta", default="const:1", help="law spec, e.g. const:1, poisson:0.8")


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifrog",
        description="Bounds and simulation for the frog model with death on "
                    "biregular trees T_{d1,d2}.")
    parser.add_argument("--version", action="version", version=f"bifrog {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="analytic bounds for one (d1, d2, law) row")
    _add_tree_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table1", help="nine-row reference grid with eta = 1")
    _add_output_opts(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep", help="Monte Carlo survival curve over a p grid")
    _add_tree_opts(p)
    p.add_argument("--p", required=True, help="grid as lo:hi:step or comma list")
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--horizon", type=int, default=sim.SimConfig.horizon)
    p.add_argument("--awake-cap", dest="awake_cap", type=int, default=sim.SimConfig.awake_cap)
    p.add_argument("--coupled", action="store_true",
                   help="share one realization per replica across the grid; "
                        "--awake-cap then bounds the total of woken frogs and "
                        "--horizon is ignored")
    p.add_argument("--seed", type=int, default=sim.SimConfig.seed)
    _add_output_opts(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="run the paper's acceptance criteria 2-14, "
                                     "one suite each, at their stated budgets")
    p.add_argument("suite", choices=(*checks.SUITES, "all"))
    p.add_argument("--seed", type=int, default=0)
    _add_output_opts(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except sim.SimResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
