"""Fixed layer probe: direct timings of single public functions.

These calls are the same on every workload and every seed.  They time
layers that are too small to show in a workload (each is well under 1% of
every unit), and they stand in for a per-call time when the traced workload
never made that call, so every per-layer metric has a measured value.  Each
item reports the median over a few repeats.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from time import perf_counter

import numpy as np

from bifrog import bounds, checks, hitting, pathprob, sim
from bifrog.laws import Constant, Poisson
from bifrog.tree import TreeParams

from . import workloads

T22, T23 = TreeParams(2, 2), TreeParams(2, 3)
SUITES = ("hitting", "pathprob", "corollary-grid", "asymptotics", "gw")


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean seconds per call in a tight loop."""
    per = []
    for _ in range(repeats):
        t = perf_counter()
        for _ in range(calls):
            fn()
        per.append((perf_counter() - t) / calls)
    return statistics.median(per)


def _timed(fn):
    t = perf_counter()
    out = fn()
    return perf_counter() - t, out


def _hitting_pair_us():
    return 1e6 * _per_call(lambda: hitting.hitting_pair(T23, 0.8), 400)


def _ub_root_us():
    return 1e6 * _per_call(lambda: bounds.ub_root(T23), 20)


def _path_tables_us():
    def fill():
        pair = hitting.hitting_pair(T23, 0.7)
        tables = pathprob.PathOpenTables(Constant(1).pgf, pair.alpha, pair.beta, k_max=64)
        tables.same_11(32)
    return 1e6 * _per_call(fill, 5)


def _table1_ms():
    return 1e3 * _per_call(bounds.table1, 5)


def _disk_ms():
    return 1e3 * _per_call(lambda: bounds.disk_mean_offspring(Poisson(1.0), 2, 0.1), 3)


def _trials_per_s(fn, trials: int, repeats: int = 3) -> float:
    return trials / _per_call(fn, 1, repeats)


def _mc_hit_rate():
    return _trials_per_s(lambda: hitting.mc_hit_neighbor(T23, 0.6, 1, 100_000, seed=1),
                         100_000)


def _mc_path_rate():
    return _trials_per_s(
        lambda: pathprob.mc_path_open(workloads.PATH_QUERY, T23, Constant(1),
                                      workloads.PATH_P, trials=workloads.PATH_TRIALS,
                                      seed=1),
        workloads.PATH_TRIALS, repeats=2)


def _mc_range_rate():
    return _trials_per_s(
        lambda: sim.mc_range_vs_disk(T23, Constant(1), workloads.RANGE_P, k=workloads.RANGE_K,
                                     trials=workloads.RANGE_TRIALS, seed=1,
                                     start_type=workloads.RANGE_START),
        workloads.RANGE_TRIALS)


def _gw_ms():
    p_sub = 0.9 * bounds.lb_biregular(T22, 1.0)
    return 1e3 * _per_call(
        lambda: [sim.run_multitype_gw(T22, Constant(1), p_sub, seed=2, replica_index=r)
                 for r in range(20)], 1) / 20


def _substream_us():
    key = np.random.SeedSequence(3).generate_state(2, np.uint64)
    return 1e6 * _per_call(lambda: np.random.Philox(counter=[0, 1, 2, 3], key=key), 400)


def _us_per_vertex(tree, p, awake_cap, replicas):
    cfg = sim.SimConfig(tree=tree, law=Constant(1), p=p, awake_cap=awake_cap, seed=4)
    secs, verts = 0.0, 0
    for r in range(replicas):
        dt, out = _timed(lambda: sim.run_frog(replace(cfg, replica_index=r)))
        secs, verts = secs + dt, verts + out.vertices_activated
    return 1e6 * secs / verts


def _run_frog_us_per_vertex():
    return _us_per_vertex(T22, 0.85, 2000, 4)


def _wide_us_per_vertex():
    """Width 100 > 64 takes the dict child store (the sweep-wide layer)."""
    return _us_per_vertex(TreeParams(3, 100), 0.65, 10_000, 8)


def _grid_cost_ratio():
    wl = workloads.SweepWorkload("sweep-coupled", 0)
    full = sum(_timed(lambda: wl.run(i))[0] for i in range(3))
    top = sum(_timed(lambda: wl.run_top_only(i))[0] for i in range(3))
    return full / top


ITEMS = (
    ("hitting.hitting_pair.us", "us", _hitting_pair_us),
    ("bounds.ub_root.us", "us", _ub_root_us),
    ("pathprob.PathOpenTables.us", "us", _path_tables_us),
    ("bounds.table1.ms", "ms", _table1_ms),
    ("bounds.disk_mean_offspring.ms", "ms", _disk_ms),
    ("hitting.mc_hit_neighbor.trials_per_s", "1/s", _mc_hit_rate),
    ("pathprob.mc_path_open.trials_per_s", "1/s", _mc_path_rate),
    ("sim.mc_range_vs_disk.trials_per_s", "1/s", _mc_range_rate),
    ("sim.run_multitype_gw.ms", "ms", _gw_ms),
    ("sim.run_frog.wide.us_per_vertex", "us", _wide_us_per_vertex),
)

#: used only when the traced workload made no such call
FALLBACKS = {
    "sim.substream_us": _substream_us,
    "sim.run_frog.us_per_vertex": _run_frog_us_per_vertex,
    "sim.coupled.grid_cost_ratio": _grid_cost_ratio,
}


def run(needed_fallbacks=()) -> tuple:
    """Return (metrics, absent names, failed check rows)."""
    metrics, absent = {}, []

    def attempt(name, fn):
        try:
            metrics[name] = fn()
        # a later version removed the function or the suite
        except (AttributeError, ValueError) as exc:
            absent.append(f"{name}: {exc}")
            metrics[name] = 0.0

    for name, _, fn in ITEMS:
        attempt(name, fn)
    for name in needed_fallbacks:
        attempt(name, FALLBACKS[name])
    failed_rows = 0
    for suite in SUITES:
        def one(suite=suite):
            nonlocal failed_rows
            times = []
            for _ in range(3):
                dt, rows = _timed(lambda: checks.run_suite(suite))
                failed_rows += sum(not r.passed for r in rows)
                times.append(dt)
            return 1e3 * statistics.median(times)
        attempt(f"checks.{suite}.ms", one)
    return metrics, absent, failed_rows
