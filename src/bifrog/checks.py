"""The paper's acceptance criteria 2-14 as self-check suites, run by the
`check` CLI subcommand and asserted by tests/test_acceptance.py.

Criterion 1, the reference table, is the `table1` subcommand.  Each other
criterion is one suite here, the one home of its tolerance, its budget
(trial and replica counts, stated in its docstring) and the offsets by
which it derives its streams' seeds.  A suite returns CheckResult rows and
passes when every row does.  The suites in SEEDED draw random numbers and
take a seed; the rest are deterministic.  Monte Carlo rows compare against
the analytic value within four standard errors computed from that value,
so each fails with probability under 1e-4.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, hitting, pathprob, sim
from .laws import Bernoulli, Constant, Geometric, Poisson, parse_law
from .tree import TreeParams

#: trials of each Monte Carlo row in criteria 8, 9 and 13
MC_TRIALS = 100_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _mc_row(name: str, est: float, ref: float) -> CheckResult:
    se = math.sqrt(max(ref * (1.0 - ref), 1e-12) / MC_TRIALS)
    gap = abs(est - ref)
    return CheckResult(name=name, passed=gap <= 4.0 * se,
                       detail=f"est={est:.5f} ref={ref:.5f} |gap|={gap:.2e} 4se={4 * se:.2e}")


def _max_row(name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(name, worst <= tol, f"worst={worst:.2e} tol={tol:g}")


def check_closed_forms() -> list:
    """Criterion 2: at p = 1 the hitting pair is (d2+1)/(d2(d1+1)),
    (d1+1)/(d1(d2+1)) on every tree with d1, d2 <= 20."""
    worst = max(max(abs(a - (d2 + 1) / (d2 * (d1 + 1))), abs(b - (d1 + 1) / (d1 * (d2 + 1))))
                for d1 in range(1, 21) for d2 in range(1, 21)
                for a, b in [hitting.hitting_pair(TreeParams(d1, d2), 1.0)])
    return [_max_row("hitting pair at p=1 equals its closed form, d1, d2 <= 20",
                     worst, 1e-12)]


def check_residuals() -> list:
    """Criterion 3: the closed forms solve their defining system at 11
    values of p on every tree with d1, d2 <= 20."""
    worst = max(abs(r) for d1 in range(1, 21) for d2 in range(1, 21)
                for t in [TreeParams(d1, d2)] for p in np.linspace(0.0, 1.0, 11).tolist()
                for r in hitting.system_residuals(t, p, hitting.hitting_pair(t, p)))
    return [_max_row("residuals of the hitting system, d1, d2 <= 20", worst, 1e-12)]


def check_pathprob() -> list:
    """Criterion 4: the path-open recursion equals the Bernoulli closed form
    (relative gap, paths up to length 64 on a 5 x 5 x 5 grid of q, a, b), and
    path_open_prob is a probability nondecreasing in p."""
    worst = 0.0
    a_hi, b_hi = hitting.hitting_pair(TreeParams(2, 3), 1.0)
    for q in (0.1, 0.3, 0.5, 0.7, 1.0):
        for a in np.linspace(0.05, 0.95 * a_hi, 5).tolist():
            for b in np.linspace(0.05, 0.95 * b_hi, 5).tolist():
                tables = pathprob.PathOpenTables(Bernoulli(q).cpgf, a, b, k_max=64)
                for n in range(1, 33):
                    closed = pathprob.bernoulli_path_open(n, q, a, b)
                    worst = max(worst, abs(tables.same_11(n) - closed) / closed)
    t, law, grid = TreeParams(2, 3), Poisson(1.0), [0.2, 0.5, 0.8]
    curves = [[pathprob.path_open_prob(pathprob.PathOpenQuery(i, j, k), t, law, p) for p in grid]
              for k, i, j in ((3, 1, 2), (4, 1, 1))]
    mono_ok = all(all(x <= y + 1e-14 for x, y in zip(vals, vals[1:]))
                  and all(0.0 <= v <= 1.0 for v in vals) for vals in curves)
    return [_max_row("recursion equals Bernoulli closed form (relative)", worst, 1e-12),
            CheckResult("path-open probability monotone in p and in [0,1]",
                        mono_ok, f"grid p={grid}")]


def check_root_convergence() -> list:
    """Criterion 5: the length-200 root ub_root_n is within 1e-3 of ub_root
    on the reference table's trees."""
    worst = max(abs(bounds.ub_root_n(t, 1.0, 200) - bounds.ub_root(t))
                for t in (TreeParams(*dd) for dd in bounds.TABLE_ROWS))
    return [_max_row("ub_root_n(200) within 1e-3 of ub_root", worst, 1e-3)]


def check_corollary_grid() -> list:
    """Criterion 6: f at the closed-form upper bound is nonnegative on the
    50 x 50 grid of trees."""
    worst, arg = min((bounds.f_value(t, 1.0, bounds.ub_closed(t)), (d1, d2))
                     for d1 in range(1, 51) for d2 in range(1, 51) if (d1, d2) != (1, 1)
                     for t in [TreeParams(d1, d2)])
    return [CheckResult("f at the closed-form bound is nonnegative on the 50x50 grid",
                        worst >= -1e-12, f"min f={worst:.3e} at {arg}")]


def check_spectral() -> list:
    """Criterion 7: the mean matrix has spectral radius one at the lower
    bound, for four mean frog counts on the reference table's trees."""
    worst = max(abs(bounds.spectral_radius(t, m, bounds.lb_biregular(t, m)) - 1.0)
                for m in (0.5, 1.0, 2.0, 5.0) for dd in bounds.TABLE_ROWS
                for t in [TreeParams(*dd)])
    return [_max_row("spectral radius is one at the lower bound", worst, 1e-12)]


def check_hitting(seed: int) -> list:
    """Criterion 8: mc_hit_neighbor agrees with the closed forms, MC_TRIALS
    trials per row at six (tree, p) points; point idx uses seed + idx."""
    points = [((2, 2), 0.5), ((2, 2), 0.75), ((2, 3), 0.6),
              ((2, 3), 0.9), ((3, 4), 0.8), ((1, 2), 0.7)]
    out = []
    for idx, ((d1, d2), p) in enumerate(points):
        t = TreeParams(d1, d2)
        pair = hitting.hitting_pair(t, p)
        for ty, ref in ((1, pair.alpha), (2, pair.beta)):
            est = hitting.mc_hit_neighbor(t, p, ty, MC_TRIALS, seed=seed + idx)
            out.append(_mc_row(f"hit t=({d1},{d2}) p={p} type={ty}", est.prob, ref))
    return out


def check_path_open_mc(seed: int) -> list:
    """Criterion 9: mc_path_open agrees with path_open_prob at p = 0.7 with
    one frog a vertex, eight queries on two trees, MC_TRIALS trials per
    row; query idx uses seed + idx on both trees."""
    queries = [(1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 2, 2),
               (1, 2, 3), (2, 1, 3), (1, 1, 4), (2, 2, 4)]
    law, p = Constant(1), 0.7
    out = []
    for d1, d2 in ((2, 2), (2, 3)):
        t = TreeParams(d1, d2)
        for idx, ijk in enumerate(queries):
            query = pathprob.PathOpenQuery(*ijk)
            est = pathprob.mc_path_open(query, t, law, p, trials=MC_TRIALS, seed=seed + idx)
            out.append(_mc_row(f"path open t=({d1},{d2}) (i,j,k)={ijk}", est.prob,
                               pathprob.path_open_prob(query, t, law, p)))
    return out


def check_endpoints(seed: int) -> list:
    """Criterion 10: on T(2,2) with one frog a vertex, every one of 100
    replicas survives at p = 1 (seed) and dies at p = 0 (seed + 1), and at
    least 990 of 1,000 die out at p = 0.5 (seed + 2)."""
    t, law = TreeParams(2, 2), Constant(1)
    sure = sim.estimate_survival(
        sim.SimConfig(tree=t, law=law, p=1.0, awake_cap=1_000, seed=seed), 100)
    dead = sim.estimate_survival(sim.SimConfig(tree=t, law=law, p=0.0, seed=seed + 1), 100)
    sub = sim.estimate_survival(
        sim.SimConfig(tree=t, law=law, p=0.5, horizon=10_000, awake_cap=100_000,
                      seed=seed + 2), 1_000)
    return [
        CheckResult("every replica survives at p=1", sure.survived == sure.replicas,
                    f"survived {sure.survived}/{sure.replicas}"),
        CheckResult("every replica dies at p=0", dead.survived == 0,
                    f"survived {dead.survived}/{dead.replicas}"),
        CheckResult("at least 99% die out at p=0.5", sub.survived <= 10,
                    f"survived {sub.survived}/{sub.replicas}"),
    ]


def check_bracket(seed: int) -> list:
    """Criterion 11: 2,000 coupled replicas on T(2,2) with one frog a vertex
    (awake cap 500) all die at p = 0.55 and more than 5% survive at 0.85.

    A coupled replica survives at p iff its critical value p_hat < p, so
    every replica is monotone in p by construction; the small cap only
    makes the zero at 0.55 harder to meet.
    """
    cfg = sim.SimConfig(tree=TreeParams(2, 2), law=Constant(1), p=0.55, awake_cap=500, seed=seed)
    low, high = sim.sweep(cfg, [0.55, 0.85], replicas=2_000, coupled=True)
    return [
        CheckResult("no replica survives at p=0.55", low.survived == 0,
                    f"survived {low.survived}/{low.replicas}"),
        CheckResult("more than 5% survive at p=0.85", high.fraction > 0.05,
                    f"survived {high.survived}/{high.replicas}"),
    ]


def check_gw(seed: int) -> list:
    """Criterion 12: the dominating branching process's progeny masses sum
    to one (three trees, seven laws, five p, both types), and 1,000 runs
    on T(2,2) at 0.9 times the lower bound (seed, replicas 0..999) go
    extinct at least 990 times."""
    laws = [Constant(1), Constant(3), Bernoulli(0.5), Bernoulli(0.6), Poisson(1.0),
            Geometric(0.4), Geometric(0.5)]
    worst = max(abs(float(sim.gw_progeny_masses(TreeParams(*dd), law, p, ty).sum()) - 1.0)
                for dd in ((2, 2), (2, 3), (3, 100)) for law in laws for ty in (1, 2)
                for p in (0.1, 0.3, 0.5, 0.6, 0.9))
    t = TreeParams(2, 2)
    p = 0.9 * bounds.lb_biregular(t, 1.0)
    extinct = sum(sim.run_multitype_gw(t, Constant(1), p, seed=seed, replica_index=r).extinct
                  for r in range(1_000))
    return [_max_row("progeny masses sum to one", worst, 1e-12),
            CheckResult("subcritical branching dies out", extinct >= 990,
                        f"extinct {extinct}/1000 at p={p:.4f}")]


def check_disk(seed: int) -> list:
    """Criterion 13: the disk series sums to one at p = 1/(2D + 1) with one
    frog a vertex (D = 2), and its certified bound is below one for
    Poisson(1) frogs at p = 0.1.  Its summand, the ball probability
    cpgf(p^k), and edge_open_prob for the range inside that ball agree with
    mc_range_vs_disk on T(2,3) at four (law, p, k, start type) cases,
    MC_TRIALS trials per row; case idx uses seed + idx."""
    exact = bounds.disk_mean_offspring(Constant(1), 2, 0.2)
    cert = bounds.disk_mean_offspring(Poisson(1.0), 2, 0.1)
    bound = cert.value + cert.remainder
    out = [_max_row("disk series is one at the one-frog critical p",
                    abs(exact.value - 1.0), 1e-9),
           CheckResult("certified disk mean below one for Poisson(1) at p=0.1",
                       bound < 1.0, f"value + remainder={bound:.4f}")]
    cases = [("const:1", 0.6, 1, 1), ("const:1", 0.6, 2, 1), ("const:1", 0.6, 3, 2),
             ("poisson:1.5", 0.8, 3, 2)]
    for idx, (spec, p, k, ty) in enumerate(cases):
        rep = sim.mc_range_vs_disk(TreeParams(2, 3), parse_law(spec), p, k, MC_TRIALS,
                                   seed=seed + idx, start_type=ty)
        case = f"t=(2,3) {spec} p={p} k={k} type={ty}"
        out += [_mc_row(f"range {case}", rep.range_prob, rep.range_ref),
                _mc_row(f"ball {case}", rep.ball_prob, rep.ball_ref)]
    return out


def check_asymptotics() -> list:
    """Criterion 14: on T(d,d) the scaled gaps (lb - 1/2) d increase toward
    1/4 and (ub_closed - 1/2) d is 1/2, at d = 10, 100, 1000."""
    ds = (10, 100, 1000)
    lbs = [(bounds.lb_biregular(TreeParams(d, d), 1.0) - 0.5) * d for d in ds]
    ubs = [(bounds.ub_closed(TreeParams(d, d)) - 0.5) * d for d in ds]
    ok_lb = all(x < y for x, y in zip(lbs, lbs[1:])) and abs(lbs[-1] - 0.25) < 0.01
    ok_ub = all(abs(u - 0.5) <= 1e-9 for u in ubs)
    return [
        CheckResult("scaled lower-bound gap increases toward 1/4",
                    ok_lb, f"gaps={[round(x, 5) for x in lbs]}"),
        CheckResult("scaled closed-form upper-bound gap is 1/2 exactly",
                    ok_ub, f"gaps={[round(x, 12) for x in ubs]}"),
    ]


#: suite name -> criterion, in criterion order 2..14
SUITES = {
    "closed-forms": check_closed_forms,
    "residuals": check_residuals,
    "pathprob": check_pathprob,
    "root-convergence": check_root_convergence,
    "corollary-grid": check_corollary_grid,
    "spectral": check_spectral,
    "hitting": check_hitting,
    "path-open-mc": check_path_open_mc,
    "endpoints": check_endpoints,
    "bracket": check_bracket,
    "gw": check_gw,
    "disk": check_disk,
    "asymptotics": check_asymptotics,
}
#: the suites that draw random numbers, each called with run_suite's seed
SEEDED = frozenset({"hitting", "path-open-mc", "endpoints", "bracket", "gw", "disk"})


def run_suite(name: str, seed: int = 0) -> list:
    """Rows of one suite, or of every suite in criterion order for name
    'all'; seed seeds the suites in SEEDED."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown check suite {name!r}; "
                         f"choose from {', '.join([*SUITES, 'all'])}")
    return [row for suite in (SUITES if name == "all" else [name])
            for row in (SUITES[suite](seed) if suite in SEEDED else SUITES[suite]())]
