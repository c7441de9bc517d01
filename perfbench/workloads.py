"""The four benchmark workloads and the checks on their outputs.

A workload turns a seed into a fixed sequence of units; `run(i)` executes
unit i and returns the package's output, `check(i, out)` lists what is wrong
with it, and `aggregate_problems(outs)` checks properties of a whole run.
Checks are plain comparisons made here, so they hold under `python -O` and
do not depend on asserts inside the package.

Sweep workloads run a fixed panel of replicas of one realization seed.  A
replica's cost is heavy-tailed (it depends on how many grid points reach
the cap or the horizon), so a panel drawn afresh for every seed would make
the run-to-run spread of every timing a property of the draw, not of the
code.  The workload seed therefore sets the order in which the panel runs,
while the oracle workload draws all its Monte Carlo seeds from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random

from bifrog import bounds, checks, hitting, pathprob, sim
from bifrog.laws import Bernoulli, Constant, Geometric, Poisson
from bifrog.tree import TreeParams

#: published four-decimal values (lb_alves, lb_biregular, ub_root) of the
#: reference grid, kept here so the check does not read the package's copy
TABLE1 = {
    (1, 2): (0.6000, 0.6325, 0.8588),
    (1, 3): (0.5714, 0.6172, 0.8039),
    (1, 4): (0.5556, 0.6086, 0.7749),
    (2, 2): (0.6000, 0.6000, 0.7500),
    (2, 3): (0.5714, 0.5855, 0.7063),
    (2, 4): (0.5556, 0.5774, 0.6828),
    (3, 100): (0.5025, 0.5359, 0.5771),
    (3, 1000): (0.5002, 0.5347, 0.5743),
    (4, 10000): (0.5000, 0.5271, 0.5572),
}
TABLE1_TOL = 5e-5

#: Monte Carlo estimates must lie within this many standard errors of the
#: closed form, with the error computed from the closed form
MC_Z = 4.0


def output_key(obj):
    """Plain nested tuples of an output, for equality and digests."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.astuple(obj)
    if isinstance(obj, (list, tuple)):
        return tuple(output_key(x) for x in obj)
    return obj


def _sha256(keys) -> str:
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def identity(law):
    return law


# --- sweeps -----------------------------------------------------------------

GRID = (0.55, 0.65, 0.75, 0.85, 0.95)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    tree: TreeParams
    grid: tuple
    coupled: bool
    awake_cap: int | None  # None keeps the SimConfig default
    panel: int  # replicas per pass
    sim_seed: int  # realization seed of the panel


SWEEPS = {
    # the README example: T(2,2), const:1, cap 2000, coupled, --seed 1
    "sweep-coupled": SweepSpec(TreeParams(2, 2), GRID, True, 2000, panel=34, sim_seed=1),
    "sweep-uncoupled": SweepSpec(TreeParams(2, 2), GRID, False, None, panel=12, sim_seed=1),
    # a table1 row of width 100 > 64, grid around lb 0.536 and ub 0.577
    "sweep-wide": SweepSpec(TreeParams(3, 100), (0.50, 0.55, 0.60, 0.65), False, 10_000,
                            panel=40, sim_seed=1),
}


class SweepWorkload:
    """One unit is one replica of `sim.sweep` over the whole grid."""

    def __init__(self, name: str, seed: int):
        spec = SWEEPS[name]
        self.name, self.seed, self.spec = name, seed, spec
        self.law = Constant(1)
        caps = {} if spec.awake_cap is None else {"awake_cap": spec.awake_cap}
        self.config = sim.SimConfig(tree=spec.tree, law=self.law, p=spec.grid[0],
                                    seed=spec.sim_seed, **caps)
        self.order = list(range(spec.panel))
        random.Random(f"{name}:{seed}").shuffle(self.order)
        report = bounds.bounds_report(spec.tree, self.law)
        self.lb, self.ub = report.lb_biregular, report.ub_root
        self.size = spec.panel
        self.warmup_index = self.order.index(0)

    def replica(self, i: int) -> int:
        return self.order[i % self.size]

    def run(self, i: int, wrap=identity):
        cfg = dataclasses.replace(self.config, replica_index=self.replica(i),
                                  law=wrap(self.law))
        return sim.sweep(cfg, self.spec.grid, 1, coupled=self.spec.coupled)

    def run_top_only(self, i: int):
        """The same replica at the top grid point alone (coupled cost base)."""
        cfg = dataclasses.replace(self.config, replica_index=self.replica(i))
        return sim.sweep(cfg, self.spec.grid[-1:], 1, coupled=self.spec.coupled)

    def check(self, i: int, out) -> list:
        grid = self.spec.grid
        try:
            ps = [e.p for e in out]
            alive = [e.survived for e in out]
            single = all(e.replicas == 1 for e in out)
        except (AttributeError, TypeError):
            return [f"replica {self.replica(i)}: malformed output {out!r:.80}"]
        if ps != list(grid) or not single or any(x not in (0, 1) for x in alive):
            return [f"replica {self.replica(i)}: malformed output {alive}"]
        problems = []
        if self.spec.coupled and any(a > b for a, b in zip(alive, alive[1:])):
            problems.append(f"replica {self.replica(i)}: coupled indicator "
                            f"decreases in p: {alive}")
        for p, x in zip(ps, alive):
            if p < self.lb and x:
                problems.append(f"replica {self.replica(i)}: survived at p={p} "
                                f"< lb_biregular={self.lb:.4f}")
        return problems

    def aggregate_problems(self, outs) -> list:
        problems = []
        for k, p in enumerate(self.spec.grid):
            # a grid point equal to the bound up to rounding is not above it
            if p > self.ub + 1e-9 and not sum(out[k].survived for out in outs):
                problems.append(f"no replica survived at p={p} > ub_root={self.ub:.4f}")
        return problems

    def digest(self, outs_by_index) -> dict:
        """Survived counts per p over one pass, and a hash of every output,
        both in replica order so they do not depend on the seed's order."""
        reps = sorted({self.replica(i): out for i, out in outs_by_index.items()}.items())
        counts = {f"{p:g}": sum(out[k].survived for _, out in reps)
                  for k, p in enumerate(self.spec.grid)}
        keys = [(r, output_key(out)) for r, out in reps]
        return {"replicas": len(reps), "realization_seed": self.spec.sim_seed,
                "survived_per_p": counts, "sha256": _sha256(keys)}


# --- oracles ----------------------------------------------------------------

T23 = TreeParams(2, 3)
PATH_QUERY = pathprob.PathOpenQuery(1, 1, 4)
PATH_P, PATH_TRIALS = 0.7, 100_000
RANGE_P, RANGE_K, RANGE_START, RANGE_TRIALS = 0.6, 3, 2, 30_000
BOUNDS_GRID = tuple(((d1, d2), law)
                    for d1, d2 in ((1, 2), (2, 2), (2, 3), (3, 4), (3, 100))
                    for law in (Constant(1), Constant(2), Bernoulli(0.5), Poisson(1.5),
                                Geometric(0.4)))


@dataclasses.dataclass(frozen=True)
class Call:
    label: str
    run: object  # wrap -> output
    check: object  # output -> list of problems


def _mc_problem(label: str, est: float, ref: float, trials: int) -> list:
    se = math.sqrt(max(ref * (1.0 - ref), 1e-12) / trials)
    if abs(est - ref) <= MC_Z * se:
        return []
    return [f"{label}: estimate {est:.6f} is {abs(est - ref) / se:.1f} se "
            f"from the closed form {ref:.6f}"]


def _check_rows(rows) -> list:
    return [f"check row failed: {r.name} ({r.detail})" for r in rows if not r.passed]


def _check_table1(reports) -> list:
    got = {(r.d1, r.d2): (r.lb_alves, r.lb_biregular, r.ub_root) for r in reports}
    if set(got) != set(TABLE1):
        return [f"table1 rows {sorted(got)} differ from the reference grid"]
    return [f"table1 ({d1},{d2}): got {got[d1, d2]}, expected {ref}"
            for (d1, d2), ref in TABLE1.items()
            if any(abs(g - e) > TABLE1_TOL for g, e in zip(got[d1, d2], ref))]


def _check_bounds_grid(reports) -> list:
    if len(reports) != len(BOUNDS_GRID):
        return [f"bounds grid returned {len(reports)} reports"]
    problems = []
    for r, ((d1, d2), law) in zip(reports, BOUNDS_GRID):
        e = law.mean
        lb_a = (max(d1, d2) + 1) / (max(d1, d2) * (e + 1) + 1)
        lb_b = math.sqrt((d1 + 1) * (d2 + 1) / ((d1 * (e + 1) + 1) * (d2 * (e + 1) + 1)))
        tag = f"bounds ({d1},{d2}) mean={e:g} q={law.q:g}"
        if abs(r.lb_alves - lb_a) > 1e-12 or abs(r.lb_biregular - lb_b) > 1e-12:
            problems.append(f"{tag}: lower bounds ({r.lb_alves}, {r.lb_biregular}) "
                            f"differ from the closed forms ({lb_a}, {lb_b})")
        if not r.lb_alves <= r.lb_biregular < r.ub_root < 1.0:
            problems.append(f"{tag}: bounds out of order: {r.lb_alves}, "
                            f"{r.lb_biregular}, {r.ub_root}")
        if law.q == 1.0:
            closed = 0.5 * math.sqrt((d1 + 1) * (d2 + 1) / (d1 * d2))
            if r.ub_closed is None or abs(r.ub_closed - closed) > 1e-12 \
                    or r.ub_root > closed + 1e-12:
                problems.append(f"{tag}: ub_root {r.ub_root} exceeds the closed "
                                f"form {closed}")
    return problems


class OracleWorkload:
    """One unit is one call from a fixed list; a pass is the whole list."""

    def __init__(self, seed: int):
        self.name, self.seed = "oracles", seed
        rng = random.Random(f"oracles:{seed}")
        self.seeds = tuple(rng.randrange(2 ** 31) for _ in range(4))
        s_hit, s_gw, s_path, s_range = self.seeds
        one = Constant(1)
        path_ref = pathprob.path_open_prob(PATH_QUERY, T23, one, PATH_P)
        end_type = 1 + (RANGE_START - 1 + RANGE_K) % 2
        range_ref = hitting.edge_open_prob(T23, one, RANGE_P, RANGE_START, end_type, RANGE_K)
        ball_ref = RANGE_P ** RANGE_K  # 1 - pgf(1 - p^k) for one frog

        def check_range(rep):
            if rep.range_prob > rep.ball_prob:
                return [f"range estimate {rep.range_prob} exceeds ball {rep.ball_prob}"]
            return (_mc_problem("mc_range_vs_disk range", rep.range_prob, range_ref,
                                RANGE_TRIALS)
                    + _mc_problem("mc_range_vs_disk ball", rep.ball_prob, ball_ref,
                                  RANGE_TRIALS))

        def check_certified(series):
            if series.value + series.remainder < 1.0:
                return []
            return [f"disk mean {series.value} + {series.remainder} is not below 1"]

        def check_identity(series):
            if abs(series.value - 1.0) <= 1e-9:
                return []
            return [f"disk geometric identity: value {series.value!r} != 1"]

        self.calls = [
            Call("checks.hitting", lambda w: checks.run_suite("hitting", seed=s_hit),
                 _check_rows),
            Call("checks.pathprob", lambda w: checks.run_suite("pathprob"), _check_rows),
            Call("checks.corollary-grid", lambda w: checks.run_suite("corollary-grid"),
                 _check_rows),
            Call("checks.asymptotics", lambda w: checks.run_suite("asymptotics"),
                 _check_rows),
            Call("checks.gw", lambda w: checks.run_suite("gw", seed=s_gw), _check_rows),
            Call("bounds.table1", lambda w: bounds.table1(), _check_table1),
            Call("bounds.bounds_report", lambda w: [
                bounds.bounds_report(TreeParams(*dd), law) for dd, law in BOUNDS_GRID],
                _check_bounds_grid),
            Call("pathprob.mc_path_open",
                 lambda w: pathprob.mc_path_open(PATH_QUERY, T23, w(one), PATH_P,
                                                 trials=PATH_TRIALS, seed=s_path),
                 lambda est: _mc_problem("mc_path_open", est.prob, path_ref, PATH_TRIALS)),
            Call("sim.mc_range_vs_disk",
                 lambda w: sim.mc_range_vs_disk(T23, w(one), RANGE_P, k=RANGE_K,
                                                trials=RANGE_TRIALS, seed=s_range,
                                                start_type=RANGE_START),
                 check_range),
            Call("bounds.disk_mean_offspring",
                 lambda w: bounds.disk_mean_offspring(Poisson(1.0), 2, 0.1),
                 check_certified),
            Call("bounds.disk_mean_offspring.identity",
                 lambda w: bounds.disk_mean_offspring(one, 2, 0.2), check_identity),
        ]
        self.size = len(self.calls)
        self.warmup_index = 0

    def run(self, i: int, wrap=identity):
        return self.calls[i % self.size].run(wrap)

    def check(self, i: int, out) -> list:
        return self.calls[i % self.size].check(out)

    def aggregate_problems(self, outs) -> list:
        return []

    def digest(self, outs_by_index) -> dict:
        keys = sorted((i % self.size, output_key(out)) for i, out in outs_by_index.items())
        return {"calls": len(keys), "sha256": _sha256(keys)}


WORKLOADS = ("sweep-coupled", "sweep-uncoupled", "sweep-wide", "oracles")


def make(name: str, seed: int):
    if name == "oracles":
        return OracleWorkload(seed)
    if name in SWEEPS:
        return SweepWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
