"""Self-check suites wired to the `check` CLI subcommand.

Each suite returns CheckResult rows; a suite passes when every row does.
Monte Carlo rows compare against the analytic value within four standard
errors computed from that value, so they fail with probability well under
1e-4 per row at the default trial counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, hitting, pathprob, sim
from .laws import Bernoulli, Constant, Geometric, Poisson
from .tree import TreeParams


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _mc_row(name: str, est: float, ref: float, trials: int) -> CheckResult:
    se = math.sqrt(max(ref * (1.0 - ref), 1e-12) / trials)
    gap = abs(est - ref)
    return CheckResult(name=name, passed=gap <= 4.0 * se,
                       detail=f"est={est:.5f} ref={ref:.5f} |gap|={gap:.2e} 4se={4 * se:.2e}")


def check_hitting(trials: int, seed: int) -> list:
    points = [((2, 2), 0.5), ((2, 2), 0.75), ((2, 3), 0.6),
              ((2, 3), 0.9), ((3, 4), 0.8), ((1, 2), 0.7)]
    out = []
    for idx, ((d1, d2), p) in enumerate(points):
        t = TreeParams(d1, d2)
        pair = hitting.hitting_pair(t, p)
        for ty, ref in ((1, pair.alpha), (2, pair.beta)):
            est = hitting.mc_hit_neighbor(t, p, ty, trials, seed=seed + idx)
            out.append(_mc_row(f"hit t=({d1},{d2}) p={p} type={ty}",
                               est.prob, ref, trials))
    return out


def check_pathprob() -> list:
    out = []
    worst = 0.0
    a_hi = (3 + 1) / (3 * (2 + 1))
    b_hi = (2 + 1) / (2 * (3 + 1))
    for q in (0.1, 0.3, 0.5, 0.7, 1.0):
        for a in np.linspace(0.05, 0.95 * a_hi, 5):
            for b in np.linspace(0.05, 0.95 * b_hi, 5):
                tables = pathprob.PathOpenTables(Bernoulli(q).cpgf, float(a), float(b))
                for n in range(1, 33):
                    closed = pathprob.bernoulli_path_open(n, q, float(a), float(b))
                    worst = max(worst, abs(tables.same_11(n) - closed) / closed)
    out.append(CheckResult("recursion equals Bernoulli closed form",
                           worst <= 1e-12, f"worst rel gap={worst:.2e} tol=1e-12"))
    t = TreeParams(2, 3)
    law = Poisson(1.0)
    grid = [0.2, 0.5, 0.8]
    mono_ok = True
    for k, i, j in ((3, 1, 2), (4, 1, 1)):
        vals = [pathprob.path_open_prob(pathprob.PathOpenQuery(i, j, k), t, law, p)
                for p in grid]
        mono_ok &= all(x <= y + 1e-14 for x, y in zip(vals, vals[1:]))
        mono_ok &= all(0.0 <= v <= 1.0 for v in vals)
    out.append(CheckResult("path-open probability monotone in p and in [0,1]",
                           mono_ok, f"grid p={grid}"))
    return out


def check_corollary_grid() -> list:
    worst = math.inf
    arg = None
    for d1 in range(1, 51):
        for d2 in range(1, 51):
            if (d1, d2) == (1, 1):
                continue
            t = TreeParams(d1, d2)
            v = bounds.f_value(t, 1.0, bounds.ub_closed(t))
            if v < worst:
                worst, arg = v, (d1, d2)
    return [CheckResult("f at the closed-form bound is nonnegative on the 50x50 grid",
                        worst >= -1e-12, f"min f={worst:.3e} at {arg}")]


def check_asymptotics() -> list:
    rows = bounds.asymptotic_check([10, 100, 1000])
    lbs = [r.lb_scaled for r in rows]
    ubs = [r.ub_scaled for r in rows]
    ok_lb = all(x < y for x, y in zip(lbs, lbs[1:])) and 0.24 <= lbs[-1] <= 0.26
    ok_ub = all(abs(u - 0.5) <= 1e-9 for u in ubs)
    return [
        CheckResult("scaled lower-bound gap increases toward 1/4",
                    ok_lb, f"gaps={[round(x, 5) for x in lbs]}"),
        CheckResult("scaled closed-form upper-bound gap is 1/2 exactly",
                    ok_ub, f"gaps={[round(x, 12) for x in ubs]}"),
    ]


def check_gw(seed: int) -> list:
    runs = 1000
    out = []
    worst = 0.0
    laws = [Constant(1), Bernoulli(0.5), Poisson(1.0), Geometric(0.4)]
    for law in laws:
        for ty in (1, 2):
            for p in (0.3, 0.6, 0.9):
                s = float(sim.gw_progeny_masses(TreeParams(2, 3), law, p, ty).sum())
                worst = max(worst, abs(s - 1.0))
    out.append(CheckResult("progeny masses sum to one",
                           worst <= 1e-12, f"worst |sum-1|={worst:.2e}"))
    t = TreeParams(2, 2)
    law = Constant(1)
    p = 0.9 * bounds.lb_biregular(t, law.mean)
    extinct = sum(sim.run_multitype_gw(t, law, p, seed=seed, replica_index=r).extinct
                  for r in range(runs))
    out.append(CheckResult("subcritical branching dies out",
                           extinct / runs >= 0.99,
                           f"extinct {extinct}/{runs} at p={p:.4f}"))
    return out


SUITES = {
    "hitting": check_hitting,
    "pathprob": check_pathprob,
    "corollary-grid": check_corollary_grid,
    "asymptotics": check_asymptotics,
    "gw": check_gw,
}


def run_suite(name: str, trials: int = 50_000, seed: int = 0) -> list:
    """Rows of one suite, or of every suite in turn for name 'all'; trials
    sizes the hitting suite, seed seeds the hitting and gw suites."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown check suite {name!r}; "
                         f"choose from {', '.join([*SUITES, 'all'])}")
    args = {"hitting": {"trials": trials, "seed": seed}, "gw": {"seed": seed}}
    return [row for suite in (SUITES if name == "all" else [name])
            for row in SUITES[suite](**args.get(suite, {}))]
