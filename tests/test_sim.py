"""Tests for the discrete-time simulator and its companion processes.

Determinism is pinned at the outcome level (same seed, same result),
run_frog outcomes and coupled thresholds are pinned bitwise for a grid of
trees and laws, conservation of the awake population is checked through a
frog-count law that records how often it was sampled, run_frog's tree
stores are checked move by move against the tuple addresses of
bifrog.tree, and the coupled threshold pass is matched bitwise against a
per-p breadth-first search over the same random environment: the search
walks tuple addresses through bifrog.tree.neighbors and derives each RNG
key along the address, so it shares no tree code with the pass.
"""

import dataclasses
import hashlib
import math
import sys
import threading
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bifrog.sim as sim
from bifrog import checks
from bifrog.bounds import lb_biregular, ub_root
from bifrog.hitting import edge_open_prob
from bifrog.laws import Bernoulli, Constant, Geometric, Poisson
from bifrog.sim import (
    CoupledThresholds,
    SimConfig,
    SimOutcome,
    SimResourceError,
    coupled_thresholds,
    estimate_survival,
    gw_progeny_masses,
    mc_range_vs_disk,
    run_frog,
    run_multitype_gw,
    sweep,
    wilson_interval,
)
from bifrog.tree import ROOT, TreeParams, neighbors

T22 = TreeParams(2, 2)
T23 = TreeParams(2, 3)
T3_100 = TreeParams(3, 100)  # 100 children > DENSE_CHILD_LIMIT: the dict branch


class _CountingLaw(Constant):
    """Constant law that records the total number of variates drawn."""

    def __init__(self, k):
        super().__init__(k)
        object.__setattr__(self, "drawn", [0])

    def sample(self, rng, size):
        self.drawn[0] += int(size)
        return super().sample(rng, size)


# --- single-run semantics ---------------------------------------------------


def test_run_is_deterministic():
    cfg = SimConfig(tree=T23, law=Poisson(1.0), p=0.7, horizon=300,
                    awake_cap=5_000, seed=42)
    assert run_frog(cfg) == run_frog(cfg)


def test_replica_streams_differ():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.7, horizon=200, seed=9)
    outs = [run_frog(dataclasses.replace(cfg, replica_index=r)) for r in range(12)]
    assert len({(o.survived, o.at_time, o.max_awake) for o in outs}) > 1


def test_p_zero_dies_immediately():
    out = run_frog(SimConfig(tree=T22, law=Constant(1), p=0.0, seed=1))
    assert out == SimOutcome(survived=False, at_time=0, censor_reason=None,
                             max_awake=1, vertices_activated=1)


def test_p_one_survives_to_the_cap():
    out = run_frog(SimConfig(tree=T22, law=Constant(1), p=1.0,
                             horizon=10_000, awake_cap=200, seed=2))
    assert out.survived
    assert out.censor_reason == "awake_cap"
    assert out.max_awake > 200


def test_horizon_censoring():
    out = run_frog(SimConfig(tree=T22, law=Constant(1), p=1.0,
                             horizon=3, awake_cap=10**6, seed=2))
    assert out.survived
    assert out.censor_reason == "horizon"


def test_empty_root_is_extinction_at_time_zero():
    law = Bernoulli(0.4)
    for seed in range(40):
        out = run_frog(SimConfig(tree=T22, law=law, p=0.9, seed=seed))
        if out.max_awake == 0:
            assert not out.survived
            assert out.at_time == 0
            assert out.vertices_activated == 1
            return
    raise AssertionError("no seed produced an empty root in 40 tries")


def test_eta_sampled_once_per_activated_vertex():
    law = _CountingLaw(2)
    out = run_frog(SimConfig(tree=T23, law=law, p=0.8, horizon=60,
                             awake_cap=3_000, seed=5))
    assert law.drawn[0] == out.vertices_activated


def test_run_validates_config():
    with pytest.raises(ValueError):
        run_frog(SimConfig(tree=T22, law=Constant(1), p=1.5))
    with pytest.raises(ValueError):
        run_frog(SimConfig(tree=T22, law=Constant(1), p=0.5, horizon=0))
    with pytest.raises(ValueError):
        run_frog(SimConfig(tree=T22, law=Constant(1), p=0.5, awake_cap=0))


def test_config_takes_numpy_integers():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.8, horizon=50, awake_cap=200,
                    seed=3, replica_index=2)
    as_numpy = SimConfig(tree=T22, law=Constant(1), p=0.8, horizon=np.int32(50),
                         awake_cap=np.int64(200), seed=np.uint64(3),
                         replica_index=np.int16(2))
    assert run_frog(as_numpy) == run_frog(cfg)


def test_dict_store_byte_bound_raises_resource_error(monkeypatch):
    bound = 500 * sim._DICT_VERTEX_BYTES
    cfg = SimConfig(tree=T3_100, law=Constant(1), p=1.0,
                    horizon=10_000, awake_cap=10_000, seed=0)
    capped = dataclasses.replace(cfg, awake_cap=100)
    unpatched = run_frog(capped)
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    with pytest.raises(SimResourceError,
                       match=rf"^\d+ tree vertices would need more than {bound} bytes"):
        run_frog(cfg)
    # a cap that ends the run within the bound leaves its outcome as it was
    assert unpatched.vertices_activated <= 500 and run_frog(capped) == unpatched


def test_wide_tree_uses_sparse_children():
    # width above the dense-child threshold must take the dict path and
    # produce identical semantics
    t = TreeParams(3, 100)
    out = run_frog(SimConfig(tree=t, law=Constant(1), p=0.9, horizon=50,
                             awake_cap=2_000, seed=7))
    assert out.vertices_activated > 2
    assert run_frog(SimConfig(tree=t, law=Constant(1), p=0.9, horizon=50,
                              awake_cap=2_000, seed=7)) == out


def test_dense_table_byte_bound_raises_resource_error(monkeypatch):
    # an empty pool: the table starts from 1,024 fresh rows
    monkeypatch.setattr(sim, "_SPARE", [])
    size = sim._TreeTable(T22).nbr.itemsize
    bound = 3_000 * 3 * size  # 3,000 vertices of T(2,2)
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    table = sim._TreeTable(T22)
    # doubling would ask for 2,048 vertices beside the first table's 1,024
    table._grow(1_500)
    assert table.nbr.nbytes == bound - 1_024 * 3 * size
    with pytest.raises(SimResourceError, match="bytes"):
        table._grow(1_977)
    cfg = SimConfig(tree=T22, law=Constant(1), p=1.0, horizon=10_000,
                    awake_cap=10**6, seed=0)
    with pytest.raises(SimResourceError, match="bytes"):
        run_frog(cfg)
    # the dict store of a wide tree holds no neighbor table, but the same
    # bound charges it _DICT_VERTEX_BYTES a vertex: this run reaches 2,000
    # vertices when no bound binds
    wide = dataclasses.replace(cfg, tree=T3_100, p=0.9, awake_cap=5_000)
    with pytest.raises(SimResourceError, match="tree vertices"):
        run_frog(wide)


def test_dense_store_stays_within_the_byte_bound(monkeypatch):
    bound = 1 << 16
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    monkeypatch.setattr(sim, "_SPARE", [])
    table = sim._TreeTable(T22)
    row = table.stride * table.nbr.itemsize
    # one growth from the first 1,024 rows takes what the bound leaves
    # beside them, the largest table the store reaches from there
    fit = bound // row - 1_024
    table._add(np.zeros(fit - 1, dtype=table.nbr.dtype))  # ids 1..fit-1
    assert table.n == fit
    # every array the dense store holds counts against the bound
    held = [a.nbytes for a in vars(table).values() if isinstance(a, np.ndarray)]
    assert sum(held) <= bound
    with pytest.raises(SimResourceError, match="bytes"):
        table._add(np.zeros(1, dtype=table.nbr.dtype))


def test_dense_store_growth_peak_stays_within_the_byte_bound(monkeypatch):
    # the old table is alive while the new one is filled, so the bound must
    # cover both: tracemalloc sees numpy's data allocations
    bound = 1 << 20
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    monkeypatch.setattr(sim, "_SPARE", [])
    tracemalloc.start()
    try:
        table = sim._TreeTable(T22)
        with pytest.raises(SimResourceError, match="bytes"):
            for need in range(1_025, bound):
                table._grow(need)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the tables reach 54,613 rows, 62% of the bound, beside the old ones
    assert table.nbr.nbytes > bound // 2
    # 4 KiB for the Python objects made on the way (the store, array
    # headers, slices, the raised error); without the old table in the
    # bound the peak reads 1.75 times the bound
    assert peak <= bound + 4096


@pytest.mark.parametrize("movers", [16, 100_000])
def test_dict_store_growth_peak_stays_within_the_byte_bound(monkeypatch, movers):
    # just past a child-dict resize the old and the new hash table are both
    # alive, the store's costliest point a vertex
    bound = 21_900 * sim._DICT_VERTEX_BYTES
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    rng = np.random.default_rng(1)
    degs = (T3_100.d1 + 1, T3_100.d2 + 1)
    tracemalloc.start()
    try:
        table = sim._TreeTable(T3_100)
        pos = np.zeros(movers, dtype=table.parent.dtype)
        with pytest.raises(SimResourceError, match="^21901 tree vertices"):
            # 16 movers take 1,579 steps to reach the bound; the loop ends either way
            for now in range(4_000):
                slot = rng.integers(0, degs[now % 2], size=pos.size, dtype=pos.dtype)
                pos, _ = table.move(pos, slot)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the store is charged before it holds a vertex, so the raise comes on
    # the 21,901st, mid-step, with every vertex but the root keyed in the dict
    assert len(table.child) == 21_899
    # the peak reads 156 bytes a vertex at 16 movers, and the bound plus 58
    # bytes a mover at 100,000: the movers and their temporaries are
    # charged to FROG_ARRAY_BYTES
    assert peak <= bound + movers * sim._FROG_ITEMSIZE


def test_coupled_tree_peak_stays_within_the_byte_bound(monkeypatch):
    bound = 21_900 * sim._TREE_VERTEX_BYTES
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    # a cap of 3,000 woken frogs ends the pass if the bound does not
    cfg = SimConfig(tree=T22, law=Bernoulli(0.05), p=0.5, awake_cap=3_000, seed=0,
                    replica_index=39)
    tracemalloc.start()
    try:
        with pytest.raises(SimResourceError, match="^21901 tree vertices"):
            coupled_thresholds(cfg, 0.995, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the peak reads 205 bytes a vertex, past a child-dict resize and with
    # the walks of the pass's woken frogs
    assert peak <= bound


def test_the_first_table_is_charged_before_it_is_allocated(monkeypatch):
    # an empty pool and a bound of 1,023 rows of T(2,2), one short of the
    # first table's 1,024
    monkeypatch.setattr(sim, "_SPARE", [])
    row = T22.stride * sim._VID.itemsize
    monkeypatch.setattr(sim, "TREE_BYTES", 1_023 * row)
    tracemalloc.start()
    try:
        with pytest.raises(SimResourceError, match="^1024 neighbor-table rows"):
            sim._TreeTable(T22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the first table would take 12,288 bytes
    assert peak < 1_024 * row


def test_int32_index_range_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(sim, "_SPARE", [])
    size = sim._TreeTable(T22).nbr.itemsize
    assert size == 4
    # 2**31 entries is the largest table whose flat indices fit in int32
    monkeypatch.setattr(sim, "TREE_BYTES", 2 ** 31 * size)
    assert sim._TreeTable(T22).nbr.dtype == np.int32
    # the dict store holds at least an int32 a vertex, so its ids fit too
    assert sim._TreeTable(T3_100).parent.dtype == np.int32
    monkeypatch.setattr(sim, "TREE_BYTES", (2 ** 31 + 1) * size)
    tracemalloc.start()
    try:
        with pytest.raises(SimResourceError, match="int32"):
            sim._TreeTable(T22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the first neighbor table alone would take 1024 rows of three 4-byte ids
    assert peak < 1024 * size
    with pytest.raises(SimResourceError, match="int32"):
        sim._TreeTable(T3_100)


def test_wide_dict_keys_pass_the_int32_range():
    # at stride 10,001 the key v * stride + slot passes 2**31 once
    # v > 214,726, far below the vertices TREE_BYTES lets the dict store hold
    table = sim._TreeTable(TreeParams(4, 10_000))
    v = 2 ** 31 // table.stride + 1
    table._add(np.zeros(v, dtype=table.parent.dtype))  # ids 1..v below the root
    movers = np.array([v, v], dtype=table.parent.dtype)
    targets, fresh = table.move(movers, np.array([1, 1], dtype=movers.dtype))
    assert fresh.tolist() == [v + 1] and targets.tolist() == [v + 1, v + 1]
    assert table.parent[v + 1] == v
    assert list(table.child) == [v * table.stride + 1]
    back, _ = table.move(fresh, np.zeros(1, dtype=movers.dtype))
    assert back.tolist() == [v]


def test_frog_byte_bound_raises_before_allocating(monkeypatch):
    per_frog = sim._FROG_ITEMSIZE
    monkeypatch.setattr(sim, "FROG_ARRAY_BYTES", 100 * per_frog)
    cfg = SimConfig(tree=T22, law=Constant(100), p=0.0, horizon=400, awake_cap=10**6)
    assert run_frog(cfg).max_awake == 100  # a root of 100 frogs fits
    with pytest.raises(SimResourceError, match=f"{100 * per_frog} bytes"):
        run_frog(dataclasses.replace(cfg, law=Constant(101)))
    # a run from one frog passes the bound on the step that wakes the 101st
    grow = dataclasses.replace(cfg, law=Constant(1), p=1.0)
    with pytest.raises(SimResourceError, match=f"{100 * per_frog} bytes"):
        run_frog(grow)
    # each step at most doubles the frogs, so a cap of 50 stops the run within the bound
    out = run_frog(dataclasses.replace(grow, awake_cap=50))
    assert out.censor_reason == "awake_cap" and out.max_awake <= 100


def _peak_over_charge(monkeypatch, cfg, spare):
    """run_frog(cfg)'s outcome and its tracemalloc peak less its tree
    store's charge; with spare, a first run of cfg leaves its table,
    traced, as the spare that the measured run takes."""
    # the dense table is charged, while it grows, its old and its new table
    # together: the largest pair that _extended holds, as the T(2,2) run
    # grows past its first table, or else the spare it took
    held = [0]
    extend = sim._extended

    def extended(a, size):
        held.append(a.nbytes + size * a.itemsize)
        return extend(a, size)

    monkeypatch.setattr(sim, "_extended", extended)
    monkeypatch.setattr(sim, "_SPARE", [])
    tracemalloc.start()
    try:
        if spare:
            run_frog(cfg)
            held[:] = [sim._SPARE[0].nbytes]
            tracemalloc.reset_peak()
        out = run_frog(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    charge = (max(held) if sim._TreeTable(cfg.tree).dense
              else out.vertices_activated * sim._DICT_VERTEX_BYTES)
    return out, peak - charge


@pytest.mark.parametrize("tree,p,cap", [(T22, 0.75, 100_000), (T3_100, 0.9, 20_000)])
def test_run_frog_peak_stays_within_the_frog_charge(monkeypatch, tree, p, cap):
    cfg = SimConfig(tree=tree, law=Constant(1), p=p, awake_cap=cap, seed=1)
    out, excess = _peak_over_charge(monkeypatch, cfg, spare=False)
    assert out.censor_reason == "awake_cap"
    # the peak less the charge reads 25 bytes an awake frog on T(2,2) and
    # -19 on T(3,100), whose dict store is charged more than it holds; the
    # slack covers the run's Python objects, 2-6 KiB for a run of one frog
    assert excess <= out.max_awake * sim._FROG_ITEMSIZE + 65_536


def test_run_frog_peak_with_a_spare_stays_within_the_frog_charge(monkeypatch):
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.75, seed=1)
    out, excess = _peak_over_charge(monkeypatch, cfg, spare=True)
    assert out.censor_reason == "awake_cap"
    # 28 bytes an awake frog: the run fits in the spare, charged at its size
    assert excess <= out.max_awake * sim._FROG_ITEMSIZE + 65_536


def test_a_run_that_raises_hands_back_a_zeroed_spare(monkeypatch):
    monkeypatch.setattr(sim, "_SPARE", [])
    frog_bytes = sim.FROG_ARRAY_BYTES
    monkeypatch.setattr(sim, "FROG_ARRAY_BYTES", 100 * sim._FROG_ITEMSIZE)
    # the frog bound is checked only on a step that has created vertices,
    # so the run raises mid-step with rows of its table written
    with pytest.raises(SimResourceError, match="awake frogs"):
        run_frog(SimConfig(tree=T22, law=Constant(1), p=1.0, awake_cap=10**6))
    [spare] = sim._SPARE
    assert spare.size == 1_024 * T22.stride and not spare.any()
    monkeypatch.setattr(sim, "FROG_ARRAY_BYTES", frog_bytes)
    # the next run takes the spare and grows it past 1,024 rows
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.9, horizon=400, awake_cap=3_000, seed=1)
    with_spare = run_frog(cfg)
    assert with_spare.vertices_activated > 1_024 and sim._SPARE[0] is not spare
    monkeypatch.setattr(sim, "_SPARE", [])
    assert run_frog(cfg) == with_spare


def test_a_table_past_the_spare_bound_is_not_kept(monkeypatch):
    row = T22.stride * sim._VID.itemsize
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.9, horizon=400, awake_cap=3_000, seed=1)
    monkeypatch.setattr(sim, "_SPARE_TABLE_BYTES", 1_024 * row)
    monkeypatch.setattr(sim, "_SPARE", [])
    # a run of a few vertices keeps its first table, of exactly the bound
    assert run_frog(dataclasses.replace(cfg, p=0.0)).vertices_activated == 1
    assert [a.nbytes for a in sim._SPARE] == [1_024 * row]
    # a run that grows its table past the bound leaves the pool empty
    monkeypatch.setattr(sim, "_SPARE", [])
    assert run_frog(cfg).vertices_activated > 1_024
    assert sim._SPARE == []


@pytest.mark.parametrize("rows,stride,taken", [
    (1_820, 3, True),    # 21,840 bytes, within a third of the bound
    (1_821, 3, False),   # 21,852 bytes, past it
    (6_000, 3, False),   # 72,000 bytes, past the bound itself
    (1_023, 3, True),    # fewer rows than 1,024: copied into 1,024 fresh rows
    (1_024, 4, True),    # a table of T(2,3): its 4,096 ids read as 1,365 rows
])
def test_a_spare_is_taken_only_within_a_third_of_the_tree_bound(monkeypatch, rows, stride,
                                                               taken):
    bound = 1 << 16
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    spare = np.zeros(rows * stride, dtype=sim._VID)
    monkeypatch.setattr(sim, "_SPARE", [spare])
    table = sim._TreeTable(T22)
    assert sim._SPARE == ([] if taken else [spare])
    # a spare taken serves as its whole rows of T(2,2) if it holds 1,024;
    # the table starts from 1,024 fresh rows otherwise
    held = spare.size // T22.stride if taken else 0
    assert (table.nbr is spare) == (held >= 1_024)
    assert table.nbr.size // T22.stride == max(held, 1_024)
    # whichever array the table holds, it grows and raises as a fresh one
    # does, and every array it holds counts against the bound
    for hi in range(1_001, bound, 1_000):
        try:
            table._add(np.zeros(hi - table.n, dtype=sim._VID))
        except SimResourceError as exc:
            assert str(exc).startswith("7414 neighbor-table rows")
            break
        assert table.nbr.nbytes <= bound
    assert table.n == 3_001 and table.cap == 3_413


class _YieldingPool(list):
    """A list that lets another thread run before each read or change, as
    a pool the spare's lock must keep consistent."""

    def __len__(self):
        time.sleep(0)
        return super().__len__()

    def __getitem__(self, i):
        time.sleep(0)
        return super().__getitem__(i)

    def pop(self, *i):
        time.sleep(0)
        return super().pop(*i)

    def append(self, a):
        time.sleep(0)
        super().append(a)


@pytest.mark.parametrize("pool", [list, _YieldingPool], ids=["plain", "yielding"])
def test_threads_that_share_the_spare_keep_their_outcomes(monkeypatch, pool):
    monkeypatch.setattr(sim, "_SPARE", pool())
    # many short runs, so that threads often take and hand back at once
    cfgs = [SimConfig(tree=T22, law=Constant(1), p=p, horizon=400, awake_cap=3_000,
                      seed=1, replica_index=r) for p in (0.6, 0.9) for r in range(50)]
    want = [run_frog(c) for c in cfgs]
    got = {}

    def work(k):
        got[k] = [run_frog(c) for c in cfgs[k:] + cfgs[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got[k] == want[k:] + want[:k] for k in range(6))
    # one spare, all zero: no two threads took or handed back the same one
    assert len(sim._SPARE) == 1 and not sim._SPARE[0].any()


def test_the_spare_moves_no_raise(monkeypatch):
    # the spare's 1,500 rows lie off the doubling from 1,024 rows, which
    # reaches 16,384 rows, where the next growth would pass the bound
    monkeypatch.setattr(sim, "TREE_BYTES", 30_000 * T22.stride * sim._VID.itemsize)
    cfg = SimConfig(tree=T22, law=Constant(1), p=1.0, awake_cap=10**6)
    raised = []
    for pool in ([], [np.zeros(1_500 * T22.stride, dtype=sim._VID)]):
        monkeypatch.setattr(sim, "_SPARE", pool)
        with pytest.raises(SimResourceError, match="neighbor-table rows") as exc:
            run_frog(cfg)
        raised.append(str(exc.value))
    assert raised[0] == raised[1] and raised[0].startswith("35445 neighbor-table rows")


#: (d1, d2), law, p, seed -> SimOutcome fields of replicas 0..3 at horizon
#: 400 and awake_cap 3,000, recorded before the dense store became a flat
#: neighbor table (the const:2 cases before run_frog's step dropped its mask
#: copies); T(3,100) takes the dict store
_PINNED_LAWS = {"const:1": Constant(1), "Poisson(1)": Poisson(1.0),
                "Bernoulli(0.6)": Bernoulli(0.6), "const:2": Constant(2)}
_PINNED = {
    ((2, 2), "const:1", 0.7, 0): [
        (False, 6, None, 2, 3), (False, 6, None, 6, 8),
        (False, 0, None, 1, 1), (False, 0, None, 1, 1),
    ],
    ((2, 2), "const:1", 0.9, 0): [
        (True, None, "awake_cap", 3445, 4764), (True, None, "awake_cap", 3309, 4476),
        (True, None, "awake_cap", 3750, 5128), (False, 0, None, 1, 1),
    ],
    ((2, 2), "Poisson(1)", 0.7, 1): [
        (False, 0, None, 0, 1), (False, 0, None, 1, 1),
        (False, 0, None, 0, 1), (False, 1, None, 2, 2),
    ],
    ((2, 2), "Poisson(1)", 0.9, 1): [
        (False, 0, None, 0, 1), (False, 0, None, 1, 1),
        (False, 0, None, 0, 1), (True, None, "awake_cap", 3033, 4235),
    ],
    ((2, 2), "Bernoulli(0.6)", 0.7, 2): [
        (False, 0, None, 0, 1), (False, 0, None, 1, 1),
        (False, 13, None, 5, 15), (False, 3, None, 1, 3),
    ],
    ((2, 2), "Bernoulli(0.6)", 0.9, 2): [
        (False, 0, None, 0, 1), (False, 0, None, 1, 1),
        (True, None, "awake_cap", 3035, 8437), (True, None, "awake_cap", 3091, 8713),
    ],
    ((2, 3), "const:1", 0.7, 10): [
        (True, None, "awake_cap", 3050, 13569), (False, 2, None, 2, 3),
        (False, 0, None, 1, 1), (False, 14, None, 6, 16),
    ],
    ((2, 3), "const:1", 0.9, 10): [
        (True, None, "awake_cap", 3503, 4411), (True, None, "awake_cap", 3766, 4794),
        (True, None, "awake_cap", 3274, 4191), (True, None, "awake_cap", 3775, 4752),
    ],
    ((2, 3), "Poisson(1)", 0.7, 11): [
        (False, 0, None, 3, 1), (False, 0, None, 0, 1),
        (False, 0, None, 0, 1), (False, 0, None, 0, 1),
    ],
    ((2, 3), "Poisson(1)", 0.9, 11): [
        (True, None, "awake_cap", 3235, 4139), (False, 0, None, 0, 1),
        (False, 0, None, 0, 1), (False, 0, None, 0, 1),
    ],
    ((2, 3), "Bernoulli(0.6)", 0.7, 12): [
        (False, 1, None, 1, 2), (False, 15, None, 7, 22),
        (False, 0, None, 0, 1), (False, 0, None, 1, 1),
    ],
    ((2, 3), "Bernoulli(0.6)", 0.9, 12): [
        (True, None, "awake_cap", 3191, 8112), (True, None, "awake_cap", 3341, 8186),
        (False, 0, None, 0, 1), (True, None, "awake_cap", 3058, 7586),
    ],
    ((1, 2), "const:1", 0.7, 20): [
        (False, 8, None, 3, 6), (False, 6, None, 2, 4),
        (False, 0, None, 1, 1), (False, 3, None, 2, 2),
    ],
    ((1, 2), "const:1", 0.9, 20): [
        (True, None, "awake_cap", 3091, 5496), (True, None, "awake_cap", 3108, 5567),
        (False, 0, None, 1, 1), (True, None, "awake_cap", 3168, 5884),
    ],
    ((1, 2), "Poisson(1)", 0.7, 21): [
        (False, 0, None, 0, 1), (False, 4, None, 4, 4),
        (False, 4, None, 5, 6), (False, 0, None, 0, 1),
    ],
    ((1, 2), "Poisson(1)", 0.9, 21): [
        (False, 0, None, 0, 1), (True, None, "awake_cap", 3109, 5972),
        (False, 21, None, 5, 8), (False, 0, None, 0, 1),
    ],
    ((1, 2), "Bernoulli(0.6)", 0.7, 22): [
        (False, 15, None, 5, 20), (False, 0, None, 1, 1),
        (False, 0, None, 1, 1), (False, 0, None, 1, 1),
    ],
    ((1, 2), "Bernoulli(0.6)", 0.9, 22): [
        (True, None, "awake_cap", 3019, 17226), (False, 0, None, 1, 1),
        (True, None, "awake_cap", 3040, 16975), (False, 11, None, 3, 5),
    ],
    ((3, 100), "const:1", 0.7, 30): [
        (False, 1, None, 2, 2), (True, None, "awake_cap", 3433, 6634),
        (False, 0, None, 1, 1), (True, None, "awake_cap", 3301, 6877),
    ],
    ((3, 100), "const:1", 0.9, 30): [
        (False, 1, None, 2, 2), (True, None, "awake_cap", 3954, 4483),
        (True, None, "awake_cap", 4678, 5359), (True, None, "awake_cap", 3731, 4329),
    ],
    ((3, 100), "Poisson(1)", 0.7, 31): [
        (False, 0, None, 0, 1), (True, None, "awake_cap", 3195, 6893),
        (False, 0, None, 0, 1), (False, 0, None, 1, 1),
    ],
    ((3, 100), "Poisson(1)", 0.9, 31): [
        (False, 0, None, 0, 1), (True, None, "awake_cap", 3220, 3776),
        (False, 0, None, 0, 1), (True, None, "awake_cap", 3134, 3636),
    ],
    ((3, 100), "Bernoulli(0.6)", 0.7, 32): [
        (False, 5, None, 2, 5), (False, 0, None, 0, 1),
        (True, None, "awake_cap", 3046, 34397), (False, 1, None, 1, 2),
    ],
    ((3, 100), "Bernoulli(0.6)", 0.9, 32): [
        (True, None, "awake_cap", 3660, 7927), (False, 0, None, 0, 1),
        (True, None, "awake_cap", 4097, 8745), (False, 1, None, 1, 2),
    ],
    ((2, 2), "const:2", 0.5, 3): [
        (False, 7, None, 12, 11), (False, 0, None, 2, 1),
        (False, 25, None, 21, 53), (False, 3, None, 6, 4),
    ],
    ((2, 2), "const:2", 0.7, 3): [
        (True, None, "awake_cap", 3067, 3147), (False, 0, None, 2, 1),
        (True, None, "awake_cap", 3223, 3197), (True, None, "awake_cap", 3008, 2966),
    ],
    ((2, 3), "const:2", 0.5, 13): [
        (False, 22, None, 12, 44), (False, 0, None, 2, 1),
        (False, 1, None, 3, 2), (False, 7, None, 7, 9),
    ],
    ((2, 3), "const:2", 0.7, 13): [
        (True, None, "awake_cap", 4027, 3577), (False, 0, None, 2, 1),
        (True, None, "awake_cap", 3285, 2852), (True, None, "awake_cap", 3493, 2970),
    ],
    ((1, 2), "const:2", 0.5, 23): [
        (False, 12, None, 7, 13), (False, 0, None, 2, 1),
        (False, 2, None, 6, 4), (False, 0, None, 2, 1),
    ],
    ((1, 2), "const:2", 0.7, 23): [
        (True, None, "awake_cap", 3310, 7621), (True, None, "awake_cap", 3471, 7173),
        (True, None, "awake_cap", 3591, 7539), (True, None, "awake_cap", 3069, 6511),
    ],
    ((3, 100), "const:2", 0.5, 33): [
        (False, 2, None, 6, 4), (True, None, "awake_cap", 3858, 4927),
        (False, 1, None, 3, 2), (True, None, "awake_cap", 4070, 5276),
    ],
    ((3, 100), "const:2", 0.7, 33): [
        (True, None, "awake_cap", 4062, 2774), (True, None, "awake_cap", 3325, 2299),
        (False, 1, None, 3, 2), (True, None, "awake_cap", 5699, 3819),
    ],
}


@pytest.mark.parametrize("tree,law,p,seed", list(_PINNED))
def test_run_frog_outcomes_are_pinned(tree, law, p, seed):
    cfg = SimConfig(tree=TreeParams(*tree), law=_PINNED_LAWS[law], p=p,
                    horizon=400, awake_cap=3_000, seed=seed)
    got = [dataclasses.astuple(run_frog(dataclasses.replace(cfg, replica_index=r)))
           for r in range(4)]
    assert got == _PINNED[tree, law, p, seed]


def test_run_frog_outcomes_at_default_caps_are_pinned():
    # recorded before the store moved to int32 ids; each run wakes 370-390k
    # vertices, so the neighbor table doubles past 2**18 vertices
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.75, seed=1)
    got = [dataclasses.astuple(run_frog(dataclasses.replace(cfg, replica_index=r)))
           for r in (0, 4)]
    assert got == [(True, None, "awake_cap", 103401, 371736),
                   (True, None, "awake_cap", 108041, 388448)]


def _run_frog_reference(config):
    """run_frog's step loop as it was before its copies were cut: it draws a
    fresh uniform array per step, as run_frog does, but subscripts with
    boolean masks; the oracle that run_frog must match field for field."""
    p, law, tree = config.p, config.law, config.tree
    rng = sim._stream(config.seed, config.replica_index)
    table = sim._TreeTable(tree)
    pos = np.zeros(int(law.sample(rng, 1)[0]), dtype=np.int32)
    max_awake = pos.size
    for now in range(config.horizon):
        pos = pos[rng.random(pos.size) < p]
        if pos.size:
            deg = tree.d2 + 1 if now % 2 else tree.d1 + 1
            slot = rng.integers(0, deg, size=pos.size, dtype=np.int32)
            targets, fresh = table.move(pos, slot)
            counts = law.sample(rng, fresh.size) if fresh.size else np.zeros(0, np.int64)
            pos = np.concatenate([targets, np.repeat(fresh, counts)])
        if pos.size == 0:
            return SimOutcome(False, now, None, max_awake, table.n)
        max_awake = max(max_awake, pos.size)
        if pos.size > config.awake_cap:
            return SimOutcome(True, None, "awake_cap", max_awake, table.n)
    return SimOutcome(True, None, "horizon", max_awake, table.n)


_ORACLE_LAWS = [Constant(1), Constant(2), Poisson(1.0), Bernoulli(0.6), Geometric(0.4)]


@given(tree=st.sampled_from([TreeParams(1, 2), T23, T3_100]),
       law=st.sampled_from(_ORACLE_LAWS), p=st.floats(0.0, 1.0),
       horizon=st.integers(1, 80), awake_cap=st.integers(1, 400),
       seed=st.integers(0, 2 ** 32), replica=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_run_frog_matches_the_reference_step_loop(tree, law, p, horizon, awake_cap,
                                                  seed, replica):
    cfg = SimConfig(tree=tree, law=law, p=p, horizon=horizon, awake_cap=awake_cap,
                    seed=seed, replica_index=replica)
    assert run_frog(cfg) == _run_frog_reference(cfg)


# --- tree stores against the tuple-address oracle ---------------------------


def _jumps(walkers, max_steps):
    """A walker count, then one jump uniform per walker per step."""
    return walkers.flatmap(lambda k: st.lists(
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=k, max_size=k),
        min_size=1, max_size=max_steps))


_JUMPS = _jumps(st.integers(1, 8), 40)
#: many walkers at the root, so several enter one unvisited child at once
_CROWD = _jumps(st.integers(12, 32), 6)


def _bind(ids, addrs, y, addr):
    """Record that a store gave id y to addr, one-to-one."""
    if addr in ids:
        assert ids[addr] == y
    else:
        assert y not in addrs
        ids[addr], addrs[y] = y, addr


@pytest.mark.parametrize("tree", [T23, T3_100])
@given(jumps=st.one_of(_JUMPS, _CROWD))
# every walker takes the root's slot 0 (a child), then the child's (the root)
@example(jumps=[[0.0] * 8, [0.0] * 8])
@settings(max_examples=60, deadline=None)
def test_tree_table_moves_match_the_address_oracle(tree, jumps):
    table = sim._TreeTable(tree)
    assert table.dense == (tree == T23)
    vid = (table.nbr if table.dense else table.parent).dtype
    assert vid == np.int32
    ids, addrs = {ROOT: 0}, {0: ROOT}
    pos = np.zeros(len(jumps[0]), dtype=vid)
    for step, us in enumerate(jumps):
        deg = np.array([len(neighbors(tree, addrs[v])) for v in pos.tolist()])
        # run_frog draws one degree per step: all walkers share its parity
        assert set(deg.tolist()) == {tree.d2 + 1 if step % 2 else tree.d1 + 1}
        slot = np.minimum((np.array(us) * deg).astype(np.int64), deg - 1).astype(vid)
        want = [neighbors(tree, addrs[v])[c] for v, c in zip(pos.tolist(), slot.tolist())]
        n = table.n
        pos, fresh = table.move(pos, slot)
        # ids come back in the store's own dtype
        assert pos.dtype == fresh.dtype == vid
        assert fresh.tolist() == list(range(n, table.n))
        entered = [y for y, a in zip(pos.tolist(), want) if a not in ids]
        # one id per unvisited vertex, however many walkers enter it
        assert len({a for a in want if a not in ids}) == fresh.size
        assert set(entered) == set(fresh.tolist())
        for y, a in zip(pos.tolist(), want):
            _bind(ids, addrs, y, a)
        if table.dense:
            # fresh ids ascend in (parent id, slot) order
            keys = [(ids[addrs[y][:-1]], addrs[y][-1] + (len(addrs[y]) > 1))
                    for y in fresh.tolist()]
            assert keys == sorted(keys)
        else:
            # fresh ids follow the order in which the walkers reach them
            assert fresh.tolist() == list(dict.fromkeys(entered))
        # slot 0 of a vertex below the root is its parent
        up, none = table.move(fresh, np.zeros_like(fresh))
        assert up.tolist() == [ids[addrs[y][:-1]] for y in fresh.tolist()]
        assert none.size == 0


def test_coupled_tree_byte_bound_raises_where_the_walk_bound_does_not(monkeypatch):
    # at Bernoulli(0.05) most woken vertices hold no frog, so this pass
    # passes 5,000 tree vertices before it wakes its 2,001st frog
    cfg = SimConfig(tree=T22, law=Bernoulli(0.05), p=0.5, awake_cap=2_000, seed=0,
                    replica_index=39)
    # the walks of 2,000 woken frogs fill their bound exactly, and the pass
    # ends at the cap
    monkeypatch.setattr(sim, "FROG_ARRAY_BYTES", 2_000 * sim._WALK_ITEMSIZE)
    assert coupled_thresholds(cfg, 0.995, 1).p_hat[0] < 0.995
    bound = 5_000 * sim._TREE_VERTEX_BYTES
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    with pytest.raises(SimResourceError, match=f"^5001 tree vertices would need more than "
                                               f"{bound} bytes"):
        coupled_thresholds(cfg, 0.995, 1)


# --- survival estimation ----------------------------------------------------


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(50, 100)
    assert abs(lo - 0.40383) < 1e-4
    assert abs(hi - 0.59617) < 1e-4
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 < 1e-12 and hi0 > 0.01
    lo1, hi1 = wilson_interval(50, 50)
    assert hi1 > 1.0 - 1e-12 and lo1 < 0.99


def test_wilson_interval_ends_are_exact():
    # the rounded score formula gave 1.73e-18 and 0.9999999999999998 here
    assert wilson_interval(0, 200)[0] == 0.0
    assert wilson_interval(2000, 2000)[1] == 1.0
    for n in (1, 7, 50, 200, 2000):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0
        assert 0.0 < wilson_interval(1, n + 1)[0] < wilson_interval(n, n + 1)[1] < 1.0


def test_estimate_survival_consistency():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.8, horizon=200,
                    awake_cap=2_000, seed=3)
    est = estimate_survival(cfg, replicas=60)
    assert est.replicas == 60
    assert est.fraction == est.survived / 60
    assert 0.0 <= est.ci_low <= est.fraction <= est.ci_high <= 1.0
    assert 0.1 < est.fraction < 1.0


def test_estimate_survival_extremes():
    dead = estimate_survival(SimConfig(tree=T22, law=Constant(1), p=0.0), 20)
    assert dead.survived == 0
    alive = estimate_survival(SimConfig(tree=T22, law=Constant(1), p=1.0,
                                        awake_cap=100), 20)
    assert alive.survived == 20


# --- sweeps -----------------------------------------------------------------


def test_uncoupled_sweep_matches_pointwise_estimates():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, horizon=150,
                    awake_cap=1_000, seed=21)
    grid = [0.85, 0.6]
    rows = sweep(cfg, grid, replicas=30)
    for x, row in zip(grid, rows):
        direct = estimate_survival(dataclasses.replace(cfg, p=x), 30)
        assert row == direct


def test_coupled_sweep_monotone_and_in_input_order():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, horizon=100,
                    awake_cap=400, seed=13)
    grid = [0.9, 0.55, 0.7, 0.8]
    rows = sweep(cfg, grid, replicas=80, coupled=True)
    assert [r.p for r in rows] == grid
    by_p = sorted(rows, key=lambda r: r.p)
    fr = [r.fraction for r in by_p]
    assert all(x <= y + 1e-15 for x, y in zip(fr, fr[1:]))
    assert fr[0] < 0.2 and fr[-1] > 0.5


def test_coupled_sweep_deterministic():
    cfg = SimConfig(tree=T23, law=Poisson(1.0), p=0.5, horizon=100,
                    awake_cap=300, seed=29)
    grid = [0.6, 0.75, 0.9]
    a = sweep(cfg, grid, replicas=50, coupled=True)
    b = sweep(cfg, grid, replicas=50, coupled=True)
    assert a == b


def test_coupled_sweep_certain_survival_at_p_one():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, awake_cap=200, seed=31)
    rows = sweep(cfg, [0.2, 1.0], replicas=25, coupled=True)
    assert rows[1].fraction == 1.0
    assert rows[0].fraction == 0.0


class _AddressRealization:
    """The pass's random environment read by tuple address: a vertex's RNG
    key is _child_key folded along its address, and keys, etas and walk
    blocks are memoized, so one realization serves many p; a block is kept
    as a list, since every read refills the realization's one buffer."""

    def __init__(self, config, replica):
        self.tree = config.tree
        self.real = sim._Realization(config, replica)
        self._keys, self._eta, self._blocks = {ROOT: 0}, {}, {}

    def key(self, addr):
        key = self._keys.get(addr)
        if key is None:
            key = self._keys[addr] = sim._child_key(self.key(addr[:-1]), addr[-1])
        return key

    def eta(self, addr):
        key = self.key(addr)
        if key not in self._eta:
            self._eta[key] = self.real.eta(key)
        return self._eta[key]

    def walk_block(self, key, frog, block):
        k = (key, frog, block)
        if k not in self._blocks:
            self._blocks[k] = self.real.walk_block(*k).tolist()
        return self._blocks[k]


def _walk(real, home, frog, p):
    """Addresses after each step that frog `frog` woken at home takes at
    p: step s is taken while its lifetime uniforms L_0..L_s are all below p."""
    key, pos, s = real.key(home), home, 0
    while True:
        block, i = divmod(s, sim._BLOCK_PAIRS)
        u = real.walk_block(key, frog, block)
        if u[i] >= p:
            return
        nb = neighbors(real.tree, pos)
        pos = nb[min(int(u[sim._BLOCK_PAIRS + i] * len(nb)), len(nb) - 1)]
        s += 1
        yield pos


def _bfs_survives(real, p, cap):
    """Per-p oracle: breadth-first activation cluster of the root, where a
    frog steps while its lifetime uniforms are below p."""
    if p >= 1.0:
        return real.eta(ROOT) >= 1
    if p <= 0.0:
        return False
    total = real.eta(ROOT)
    if total > cap:
        return True
    awake = {ROOT}
    queue = deque([ROOT])
    while queue:
        v = queue.popleft()
        for frog in range(real.eta(v)):
            for y in _walk(real, v, frog, p):
                if y not in awake:
                    awake.add(y)
                    total += real.eta(y)
                    if total > cap:
                        return True
                    queue.append(y)
    return False


_ORACLE_GRID = [round(0.5 + 0.05 * i, 2) for i in range(10)]


@pytest.mark.parametrize("tree,law,seed", [
    (T22, Constant(1), 41),
    (T23, Poisson(1.0), 42),
    (T22, Bernoulli(0.6), 43),
    (T22, Geometric(0.5), 51),
    # a child dict far wider than the degrees
    (T3_100, Constant(1), 53),
])
def test_threshold_pass_matches_per_p_bfs(tree, law, seed):
    cfg = SimConfig(tree=tree, law=law, p=0.5, awake_cap=300, seed=seed)
    replicas = 170
    th = coupled_thresholds(cfg, max(_ORACLE_GRID), replicas)
    empty_roots = 0
    for r in range(replicas):
        real = _AddressRealization(cfg, r)
        got = [th.p_hat[r] < p for p in _ORACLE_GRID]
        want = [_bfs_survives(real, p, cfg.awake_cap) for p in _ORACLE_GRID]
        assert got == want, f"replica {r}: p_hat={th.p_hat[r]}"
        assert th.root_awake[r] == (real.eta(ROOT) >= 1)
        empty_roots += not th.root_awake[r]
    # both outcomes occur on the grid, and laws with mass at 0 empty some roots
    assert 0 < sum(x < max(_ORACLE_GRID) for x in th.p_hat) < replicas
    assert (empty_roots > 0) == (law.p0 > 0)


INF = math.inf
_PINNED_COUPLED_LAWS = dict(_PINNED_LAWS, **{"Geometric(0.5)": Geometric(0.5)})
#: (d1, d2), law, seed -> (p_hat, root_awake) of replicas 0..5 at
#: awake_cap 300 and p_max 0.95, recorded before the walks became plain
#: records in the threshold loop; T(3,100) has a child dict far wider
#: than its degrees
_PINNED_COUPLED = {
    ((2, 2), "const:1", 60): (
        (0.6641041052422391, 0.711212493798404, 0.7597278497024083,
         0.8704411222593665, 0.7074565995994605, 0.7135342166079776),
        (True, True, True, True, True, True)),
    ((2, 2), "Poisson(1)", 61): (
        (INF, INF, 0.8062330157050803, 0.744498259735483, 0.8192631480201523, INF),
        (False, False, True, True, True, False)),
    ((2, 2), "Bernoulli(0.6)", 62): (
        (0.9237125641135496, INF, 0.9282785277254796, INF, INF, 0.8495305656305887),
        (True, False, True, False, False, True)),
    ((2, 2), "Geometric(0.5)", 63): (
        (INF, 0.8232284464394671, 0.7278911659689777, 0.8219068538006872,
         0.8284831168095059, INF),
        (False, True, True, True, True, False)),
    ((2, 3), "const:1", 64): (
        (0.7761177561513016, 0.6606605965538802, 0.7993940105020759,
         0.7007417060928595, INF, 0.7412437030186027),
        (True, True, True, True, True, True)),
    ((2, 3), "Poisson(1)", 65): (
        (0.7366872556622696, INF, INF, INF, 0.7309308126147489, 0.6662266116266227),
        (True, False, False, False, True, True)),
    ((2, 3), "Bernoulli(0.6)", 66): (
        (0.7790975838527405, INF, 0.8151463294149273, INF, 0.7793825471822781, INF),
        (True, False, True, False, True, False)),
    ((2, 3), "Geometric(0.5)", 67): (
        (INF, 0.685394102599295, INF, 0.8153738344880331, 0.6839232753350536,
         0.6542059505239983),
        (False, True, False, True, True, True)),
    ((3, 100), "const:1", 68): (
        (0.6237276047465867, 0.7220010990803277, 0.73397524760391,
         0.6692177606528366, 0.6450496445772311, 0.6747368062380917),
        (True, True, True, True, True, True)),
    ((3, 100), "Poisson(1)", 69): (
        (INF, INF, 0.9374529706141717, 0.6291772191841717, INF, INF),
        (False, False, True, True, False, False)),
    ((3, 100), "Bernoulli(0.6)", 70): (
        (INF, INF, 0.797352706492266, 0.6655573674092354, 0.7879596202380933,
         0.7926879129058798),
        (False, False, True, True, True, True)),
    ((3, 100), "Geometric(0.5)", 71): (
        (INF, 0.7732139974686953, INF, 0.664239842588971, INF, 0.6752961100794045),
        (False, True, False, True, False, True)),
}


@pytest.mark.parametrize("tree,law,seed", list(_PINNED_COUPLED))
def test_coupled_thresholds_are_pinned(tree, law, seed):
    cfg = SimConfig(tree=TreeParams(*tree), law=_PINNED_COUPLED_LAWS[law], p=0.5,
                    awake_cap=300, seed=seed)
    th = coupled_thresholds(cfg, 0.95, 6)
    assert (th.p_hat, th.root_awake) == _PINNED_COUPLED[tree, law, seed]


def test_p_hat_does_not_depend_on_p_max():
    cfg = SimConfig(tree=T23, law=Poisson(1.0), p=0.5, awake_cap=300, seed=44)
    high = coupled_thresholds(cfg, 0.95, 60)
    low = coupled_thresholds(cfg, 0.7, 60)
    assert high.root_awake == low.root_awake
    for a, b in zip(high.p_hat, low.p_hat):
        assert b == (a if a < 0.7 else math.inf)
    assert any(a < 0.7 for a in high.p_hat) and any(0.7 <= a < 0.95 for a in high.p_hat)


def test_one_point_law_takes_no_eta_draw():
    """eta skips the draw for any law with a single support point, not only
    for a Constant, and the thresholds stay those of Constant(1)."""
    class _OnePoint(Bernoulli):
        def draw(self, rng):
            raise AssertionError("eta drew from a one-point law")

    cfg = SimConfig(tree=T23, law=Constant(1), p=0.5, awake_cap=300, seed=52)
    want = coupled_thresholds(cfg, 0.95, 20)
    assert coupled_thresholds(dataclasses.replace(cfg, law=_OnePoint(1.0)), 0.95, 20) == want


def test_walk_blocks_are_one_philox_stream():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, seed=45)
    real = sim._Realization(cfg, 3)
    frog, purpose = 2, sim._PUR_WALK
    fresh = np.random.Generator(np.random.Philox(counter=[0, frog, purpose, 0],
                                                 key=np.array(real.key, dtype=np.uint64)))
    stream = fresh.random(6 * sim._BLOCK_PAIRS).tolist()
    for block in (2, 0, 1):
        lo = 2 * sim._BLOCK_PAIRS * block
        assert real.walk_block(0, frog, block).tolist() == stream[lo:lo + 2 * sim._BLOCK_PAIRS]


def test_walk_block_reads_survive_an_eta_read_between_them():
    """Each read seeks its own counter and refills the one buffer, so an eta
    draw between reads (a Poisson law resets the counter and draws) moves
    nothing, and a read is valid until the next one."""
    cfg = SimConfig(tree=T23, law=Poisson(1.0), p=0.5, seed=46)
    real = sim._Realization(cfg, 2)
    key, frog, words = sim._child_key(0, 1), 3, 2 * sim._BLOCK_PAIRS
    held = []
    for block in (2, 0, 1):
        got = real.walk_block(key, frog, block)
        assert got is real.buf
        fresh = np.random.Generator(np.random.Philox(
            counter=[block * (sim._BLOCK_PAIRS // 2), frog, sim._PUR_WALK, key],
            key=np.array(real.key, dtype=np.uint64)))
        assert got.tolist() == fresh.random(words).tolist()
        held.append(got.tolist())
        real.eta(sim._child_key(key, block))
        assert real.buf.tolist() == held[-1]
    # distinct blocks, each served by the same buffer in turn
    assert len({tuple(h) for h in held}) == 3


def test_long_walk_raises_resource_error(monkeypatch):
    monkeypatch.setattr(sim, "_MAX_WALK_STEPS", 3)
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, awake_cap=10**6, seed=47)
    with pytest.raises(SimResourceError):
        coupled_thresholds(cfg, 0.95, 5)


def test_coupled_walk_byte_bound_raises_before_building_the_walks(monkeypatch):
    bound = 100 * sim._WALK_ITEMSIZE
    monkeypatch.setattr(sim, "FROG_ARRAY_BYTES", bound)
    cfg = SimConfig(tree=T22, law=Constant(101), p=0.5, awake_cap=10**6, seed=3)
    # at the root: 101 walks pass the bound, unless the cap ends the pass first
    with pytest.raises(SimResourceError, match=f"^101 woken frogs' walks .* {bound} bytes"):
        coupled_thresholds(cfg, 0.95, 1)
    assert coupled_thresholds(dataclasses.replace(cfg, awake_cap=100), 0.95, 1).p_hat == (0.0,)
    # mid-pass: one root frog, and the bound is passed on the vertex that wakes the 101st
    grow = dataclasses.replace(cfg, law=Constant(1))
    with pytest.raises(SimResourceError, match=f"^101 woken frogs' walks .* {bound} bytes"):
        coupled_thresholds(grow, 0.95, 1)
    # a cap within the bound ends the same pass where the bound is not patched
    capped = dataclasses.replace(grow, awake_cap=100)
    got = coupled_thresholds(capped, 0.95, 1).p_hat
    monkeypatch.undo()
    assert got == coupled_thresholds(capped, 0.95, 1).p_hat and got[0] < 0.95


@pytest.mark.parametrize("replica,steps", [(0, 22), (1, 34), (2, 22), (3, 31), (4, 17)])
def test_walk_step_guard_boundary_is_pinned(monkeypatch, replica, steps):
    # the least step bound each pass completes under, recorded before the
    # pass owned its tree; replica 1's longest walk crosses a 32-step block
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, awake_cap=300, seed=47,
                    replica_index=replica)
    monkeypatch.setattr(sim, "_MAX_WALK_STEPS", steps)
    coupled_thresholds(cfg, 0.95, 1)
    monkeypatch.setattr(sim, "_MAX_WALK_STEPS", steps - 1)
    with pytest.raises(SimResourceError, match=f"^a walk exceeded {steps - 1} steps "
                                               "below p_max; lower p_max$"):
        coupled_thresholds(cfg, 0.95, 1)


def test_jump_slots_need_no_clamp():
    # Generator.random is at most 1 - 2**-53, which times any degree rounds
    # below it, so the pass takes int(u * deg) without min(..., deg - 1);
    # 10_001 is the T(4,10000) degree
    top = np.nextafter(1.0, 0.0)
    assert top == 1.0 - 2.0 ** -53
    degs = np.append(np.arange(1, 2 ** 20 + 1, dtype=np.float64), 10_001.0)
    assert np.all(top * degs < degs)


def test_sweep_uncoupled_realization_is_pinned():
    # the realization of the sweep-uncoupled benchmark workload: T(2,2),
    # const:1, seed 1, default horizon and awake_cap, replicas 0..11 on its
    # grid; a digest of the 60 SimOutcomes, recorded before run_frog dropped
    # its per-run uniform buffer
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, seed=1)
    grid = (0.55, 0.65, 0.75, 0.85, 0.95)
    outs = [[dataclasses.astuple(run_frog(dataclasses.replace(cfg, p=p, replica_index=r)))
             for r in range(12)] for p in grid]
    assert [sum(o[0] for o in row) for row in outs] == [0, 0, 6, 8, 11]
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == (
        "e51a1e024ebab1cf6137ac934c70d1460bcaefbace66add3d9afb62087973ef1")


def test_sweep_coupled_realization_is_pinned():
    # the realization of the README sweep and of the sweep-coupled benchmark
    # workload, recorded before the pass owned its tree; its walks are
    # longer than those of the cap-300 pins
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, awake_cap=2000, seed=1)
    th = coupled_thresholds(cfg, 0.95, 8)
    assert th.p_hat == (0.9001371650302877, 0.7364343498835416, 0.6856186250334713,
                        INF, 0.675123072711992, 0.7205840725724337,
                        0.7521788273881246, 0.710334564941243)
    assert th.root_awake == (True,) * 8


def test_coupled_thresholds_api():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5, awake_cap=200, seed=48)
    th = coupled_thresholds(cfg, 0.8, 30)
    assert isinstance(th, CoupledThresholds)
    assert th.estimates([0.8, 0.7, 1.0]) == sweep(cfg, [0.8, 0.7, 1.0], 30, coupled=True)
    assert all(x < 0.8 or x == math.inf for x in th.p_hat)
    assert th.survived(0.0) == 0
    with pytest.raises(ValueError):
        th.survived(0.9)
    q = th.quantiles()
    assert q["above_p_max"] == 30 - th.survived(0.8)
    finite = [q[k] for k in ("min", "q25", "median", "q75", "max") if q[k] is not None]
    assert finite == sorted(finite) and finite[0] == min(th.p_hat)
    with pytest.raises(ValueError):
        coupled_thresholds(cfg, 1.0, 5)
    with pytest.raises(ValueError):
        coupled_thresholds(cfg, 0.8, 0)


def test_coupled_root_over_cap_survives_at_every_positive_p():
    # three frogs at the root already exceed a cap of 2, so every replica's
    # p_hat is 0: it survives at each p in (0, 1] and never at p = 0
    cfg = SimConfig(tree=T22, law=Constant(3), p=0.01, awake_cap=2, seed=49)
    th = coupled_thresholds(cfg, 0.9, 20)
    assert th.p_hat == (0.0,) * 20
    grid = [0.0, 1e-9, 0.01, 0.5, 0.9, 1.0]
    assert [e.survived for e in th.estimates(grid)] == [0, 20, 20, 20, 20, 20]
    # run_frog on the same config dies out at p = 0.01: the uncoupled cap
    # counts frogs awake after a step, the coupled one frogs ever woken,
    # and the two estimands part here (ROADMAP item 4)
    assert estimate_survival(cfg, 20).survived == 0


@pytest.mark.parametrize("cap", [500, 2000])
def test_both_estimands_die_below_lb_and_survive_above_ub(cap):
    # ROADMAP item 4's cross-check at the SimConfig default seed: 0 of 20
    # replicas survive at 0.55 < lb_biregular and some do at 0.9 > ub_root,
    # both for frogs awake at once (uncoupled) and woken in total (coupled)
    lo, hi = 0.55, 0.9
    assert lo < lb_biregular(T22, 1.0) and ub_root(T22) < hi
    cfg = SimConfig(tree=T22, law=Constant(1), p=lo, awake_cap=cap)
    for coupled in (False, True):
        below, above = sweep(cfg, [lo, hi], 20, coupled=coupled)
        assert below.survived == 0
        assert above.survived >= 1


def test_coupled_path_rejects_awake_cap_below_one():
    # the config checks itself, so neither the coupled nor the uncoupled
    # path can be handed a cap below one
    with pytest.raises(ValueError, match="awake_cap"):
        SimConfig(tree=T22, law=Constant(1), p=0.5, awake_cap=0, seed=48)


def test_sweep_validation():
    cfg = SimConfig(tree=T22, law=Constant(1), p=0.5)
    with pytest.raises(ValueError):
        sweep(cfg, [], replicas=5)
    with pytest.raises(ValueError):
        sweep(cfg, [0.5], replicas=0)
    with pytest.raises(ValueError):
        sweep(cfg, [1.2], replicas=5)


# --- dominating branching process -------------------------------------------


def test_gw_progeny_masses_sum_to_one():
    for law in (Constant(1), Constant(3), Bernoulli(0.6)):
        for ptype in (1, 2):
            masses = gw_progeny_masses(T23, law, 0.7, ptype)
            assert abs(masses.sum() - 1.0) < 1e-12
            assert np.all(masses >= 0.0)


def test_gw_progeny_masses_hand_values():
    # one frog per vertex, type-1 parent of degree d1 + 1 = 3:
    # P[0] = 1 - p, P[1] = p / 3, P[2] = 2p / 3
    masses = gw_progeny_masses(T22, Constant(1), 0.6, 1)
    assert abs(masses[0] - 0.4) < 1e-15
    assert abs(masses[1] - 0.2) < 1e-15
    assert abs(masses[2] - 0.4) < 1e-15


def test_progeny_draws_follow_gw_progeny_masses():
    # 8,000 one-particle draws of the sampler per (law, parent type) on T(2,3)
    # at p = 0.7: no draw lands on a zero mass, and the count in every bin
    # of mass >= 0.05 (the last one open-ended) is within 5 standard errors
    # of its expected count.  At most 20 bins x 2 types x 5 laws z-scores,
    # each past 5 with chance 5.7e-7 (normal approximation, >= 400 expected
    # draws a bin), fail at a random seed with chance < 1.2e-4.
    draws_per_case, p = 8_000, 0.7
    rng = np.random.default_rng(11)
    for law in (Constant(1), Constant(3), Bernoulli(0.5), Poisson(1.0), Geometric(0.4)):
        for ptype, d in ((1, T23.d1), (2, T23.d2)):
            masses = gw_progeny_masses(T23, law, p, ptype)
            draws = np.array([sim._progeny_total(rng, 1, p, d, law)
                              for _ in range(draws_per_case)])
            inside = draws[draws < len(masses)]
            assert np.all(masses[inside] > 0.0), (law, ptype)
            assert law.support_max is None or len(inside) == len(draws), (law, ptype)
            edges, cuts = [0], [0.0]  # bin i is [edges[i], edges[i + 1]), the last open
            for k, c in enumerate(np.cumsum(masses).tolist()):
                if c - cuts[-1] >= 0.05 and 1.0 - c >= 0.05:
                    edges.append(k + 1)
                    cuts.append(c)
            bin_mass = np.diff([*cuts, 1.0])
            counts = np.bincount(np.searchsorted(edges, draws, side="right") - 1,
                                 minlength=len(edges))
            expected = draws_per_case * bin_mass
            z = (counts - expected) / np.sqrt(expected * (1.0 - bin_mass))
            assert np.max(np.abs(z)) <= 5.0, (law, ptype, z)


def test_gw_progeny_masses_unbounded_law_near_one():
    masses = gw_progeny_masses(T23, Poisson(1.0), 0.7, 2)
    assert masses.sum() <= 1.0 + 1e-12
    assert masses.sum() > 1.0 - 1e-9


def test_gw_deterministic_and_p_zero():
    out = run_multitype_gw(T22, Constant(1), 0.0, seed=4)
    assert out.extinct
    assert out.at_generation == 1
    assert out.population_trace[0][0] == 0
    assert out.population_trace[0][1] == T22.d1 + 2
    assert out.population_trace[-1] == (0, 0)
    assert run_multitype_gw(T22, Constant(1), 0.0, seed=4) == out


def test_gw_empty_generation_zero_is_extinction_at_zero():
    # all d1 + 2 = 4 Bernoulli(0.05) draws of generation 0 are 0 at this seed
    out = run_multitype_gw(T22, Bernoulli(0.05), 0.5, seed=0)
    assert out == sim.GwOutcome(extinct=True, at_generation=0, population_trace=[(0, 0)])


def test_gw_generation_and_population_caps_report_survival(monkeypatch):
    trace = [(0, 4), (6, 0), (0, 10), (18, 0), (0, 31), (48, 0)]
    monkeypatch.setattr(sim, "_GW_MAX_GENERATIONS", 5)
    out = run_multitype_gw(T22, Constant(1), 0.95, seed=0)
    assert out == sim.GwOutcome(extinct=False, at_generation=None, population_trace=trace)
    monkeypatch.setattr(sim, "_GW_POPULATION_CAP", 20)
    out = run_multitype_gw(T22, Constant(1), 0.95, seed=0)
    assert out == sim.GwOutcome(extinct=False, at_generation=None,
                                population_trace=trace[:5])


def test_gw_subcritical_always_dies():
    p_sub = 0.9 * lb_biregular(T22, 1.0)
    for r in range(200):
        out = run_multitype_gw(T22, Constant(1), p_sub, seed=8, replica_index=r)
        assert out.extinct


def test_gw_supercritical_often_survives(monkeypatch):
    monkeypatch.setattr(sim, "_GW_MAX_GENERATIONS", 400)
    monkeypatch.setattr(sim, "_GW_POPULATION_CAP", 50_000)
    hits = 0
    for r in range(60):
        out = run_multitype_gw(T22, Constant(1), 0.95, seed=15, replica_index=r)
        hits += not out.extinct
    assert hits > 20


# --- range versus lifetime ball ---------------------------------------------


def test_disk_suite_catches_a_wrong_target_parity(monkeypatch):
    # a kernel that reads the target's type off by one: the walks step
    # toward it with the other type's degree, so range rows miss their
    # references (three of the four cases), while the ball, read off the
    # jump count alone, still agrees
    kernel = sim._distance_chain

    def shifted(rng, t, p, m, parity, radius):
        return kernel(rng, t, p, m, parity + 1, radius)

    monkeypatch.setattr(sim, "_distance_chain", shifted)
    failed = [row.name for row in checks.run_suite("disk", seed=80) if not row.passed]
    assert failed and all(name.startswith("range ") for name in failed)


def test_mc_range_vs_disk_ball_reference_is_lifetime_tail():
    law = Poisson(1.3)
    rep = mc_range_vs_disk(T22, law, 0.5, k=2, trials=2_000, seed=23)
    assert abs(rep.ball_ref - (1.0 - law.pgf(1.0 - 0.25))) < 1e-12


def test_mc_range_vs_disk_references_keep_relative_precision():
    # p^k = 1e-20: 1 - pgf(1 - p^k) would read 0.0 for both references
    law = Poisson(1.0)
    rep = mc_range_vs_disk(T23, law, 0.1, k=20, trials=10)
    assert rep.ball_ref == pytest.approx(1e-20, rel=1e-12)
    assert 0.0 < rep.range_ref < rep.ball_ref


def test_mc_range_vs_disk_range_reference_is_edge_open():
    law = Constant(2)
    rep = mc_range_vs_disk(T23, law, 0.55, k=3, trials=2_000, seed=27)
    assert abs(rep.range_ref - edge_open_prob(T23, law, 0.55, 1, 2, 3)) < 1e-12
