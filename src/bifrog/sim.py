"""Monte Carlo simulation of the frog model with death on T_{d1,d2}.

run_frog advances the full particle system in vectorized time steps: every
awake frog first survives with probability p, then jumps to a uniform
neighbor; first visits to a vertex wake the frogs sleeping there, whose
count is sampled exactly once per vertex.  Vertices are registered on
first visit (the visited cluster stays connected, so a fresh vertex is
always entered from its parent) in _TreeTable, whose moves are vectorized
over all frogs of a time step: for small degrees one move is one gather
from a flat neighbor table.  Every frog crosses one edge per step and a
vertex is first entered at its own level parity, so all awake frogs share
the parity of the time step and one degree serves the whole step.  Vertex
ids, frog positions and jump slots are int32: every vertex holds at
least one int32 of its store, so TREE_BYTES keeps every id and every flat
index into the neighbor table below 2**31.  A step makes few copies: it
draws one fresh float64 survival uniform a frog, freed once compress has
kept the survivors, and the store gathers with take.  A step's frog
arrays (the positions, the uniforms and the step's temporaries) stay
within FROG_ARRAY_BYTES.  Memory has one rule, in bytes: each store is charged
its size, or a measured size a vertex or frog, against TREE_BYTES or
FROG_ARRAY_BYTES, and _check_bytes raises every SimResourceError it calls for.
Between runs the process holds one zeroed spare of the dense neighbor
table, of at most _SPARE_TABLE_BYTES, which a run takes, whatever its
shape, when it is at most a third of TREE_BYTES, and hands back, so a
sweep's runs do not regrow their tables.  A table's first 1,024 rows are
charged like any growth; the spare changes no id, move or random number.

The coupled sweep is time-free: a replica survives at p when its
activation cluster (the root, and every vertex a walk from an awake
vertex visits while all its lifetime uniforms stay below p) holds more
than awake_cap frogs; horizon plays no part.  All p share one realization
per replica, so one minimax pass (after Newman and Ziff) finds the
replica's critical value p_hat, the least p at which the woken total
exceeds the cap, and survival at every p < 1 is p_hat < p.  That pass
moves one frog at a time in a loop that owns the replica's tree (within
TREE_BYTES), with each walk a plain tuple, one per woken frog (within
FROG_ARRAY_BYTES); _Realization is the random environment alone.
A walk-block read refills the one float buffer the realization owns, and
the pass takes single words of it as Python floats, so a read is a
counter reset and one fill, with no array or list made per read.
Replicas run one after another in the calling thread.

Randomness is Philox counter-based, and every stream comes from
hitting._stream: run_frog's is keyed (seed, replica), run_multitype_gw's,
mc_range_vs_disk's and the coupled pass's add a fixed tag.  The coupled
pass keeps its replica's stream and resets the counter to (offset, frog,
purpose, vertex RNG key) before each read.  A vertex's RNG key hashes its
parent's key and its child index, so every random number is fixed by the
vertex, frog and purpose, whatever p asks for it and in whatever order
the tree is explored.  A vertex's eta is one scalar law.draw; for a law
with one support point (a Constant) the pass reads _Realization.const
instead, with no draw and no reset.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .hitting import (_ESCAPE_RADIUS, _check_p, _distance_chain, _mc_estimate, _stream,
                      edge_open_prob)
from .laws import InitLaw
from .tree import TreeParams, _check_int, _check_real

DENSE_CHILD_LIMIT = 64
#: largest tree store, in bytes, that a run holds at once: run_frog's dense
#: neighbor table (while it grows, the old and the new table together), its
#: dict store at _DICT_VERTEX_BYTES a vertex, or the coupled pass's tree at
#: _TREE_VERTEX_BYTES a vertex; a dense table's first 1,024 rows are
#: charged as any growth is.  Between runs the one spare neighbor table, of
#: at most _SPARE_TABLE_BYTES, is held outside it; a run takes the spare,
#: whatever its shape, only when it is at most a third of it
TREE_BYTES = 1 << 30
#: largest neighbor table run_frog keeps as the spare: about ten times the
#: 6.3 MB table of a T(2,2) run at the default awake_cap
_SPARE_TABLE_BYTES = 1 << 26
#: the spare: at most one zeroed dense neighbor table, taken by
#: _TreeTable.__init__ and handed back by _TreeTable.release, both under
#: _SPARE_LOCK, since run_frog may run in several threads at once
_SPARE = []
_SPARE_LOCK = threading.Lock()
#: largest frog arrays, in bytes, that a run_frog step holds at once: the
#: awake frogs' positions, their survival uniforms and the step's other
#: per-frog temporaries; also the coupled pass's bound on its walks
FROG_ARRAY_BYTES = 1 << 30
_MAX_WALK_STEPS = 10 ** 6
#: dtype of run_frog's vertex ids, positions and flat neighbor-table indices
_VID = np.dtype(np.int32)
_EMPTY = np.empty(0, dtype=_VID)
#: bytes per awake frog at a step's peak: the int32 position and slot and
#: move's temporaries, largest in the dict store, whose keys pass through
#: Python ints (tracemalloc peaks inside move, the store's own growth left
#: out: at most 33 bytes a mover for the dense table, 128 for the dict
#: store); the step's one float64 uniform a frog is freed before move.  A
#: whole run peaks 25 bytes an awake frog above its tree store's charge on
#: T(2,2) at p = 0.75 (28 when it takes a spare it does not grow, charged
#: at the spare's size), and 19 below it on T(3,100) at p = 0.9
_FROG_ITEMSIZE = 160
#: bytes per woken frog in the coupled pass: its walk tuple in the ready list
#: or the heap, with its vertex's tree entries (tracemalloc peaks of 109-284
#: bytes a frog on T(2,2) at caps 2e4 and 2e5, const:1, const:50, Poisson(2))
_WALK_ITEMSIZE = 288
#: bytes per vertex of run_frog's dict store: its int32 parent slot, its
#: child-dict entry and their int objects (tracemalloc peaks of at most 161
#: bytes a vertex on T(3,100), 2e3 to 2e6 vertices, just past a dict resize)
_DICT_VERTEX_BYTES = 176
#: bytes per vertex of the coupled pass's tree: its parent, child-dict and RNG-key
#: entries (tracemalloc peaks of 143-212 bytes a vertex, its sparse walks included,
#: on T(2,2) at Bernoulli(0.05) and Poisson(0.1), 2e3 to 3.5e5 vertices)
_TREE_VERTEX_BYTES = 224


class SimResourceError(RuntimeError):
    """The run's tree or frogs would outgrow their byte budget, or a walk
    would run further than the step guard allows."""


def _check_bytes(count: int, itemsize: int, budget: int, what: str) -> None:
    """The one memory rule: count items of itemsize bytes fit in budget."""
    if count * itemsize > budget:
        raise SimResourceError(
            f"{count} {what} would need more than {budget} bytes; "
            f"lower the horizon, awake_cap or p_max, or change the law")


def _extended(a: np.ndarray, size: int) -> np.ndarray:
    """a followed by zeros up to size; the zero pages are not written."""
    out = np.zeros(size, dtype=a.dtype)
    out[:a.size] = a
    return out


class _TreeTable:
    """Registry of the vertices run_frog visits, grown on first visit.

    Ids are dense int32 in visit order with the root at 0.  Only move()
    walks the tree, for a whole array of frogs at once, and it takes a
    neighbor slot per frog, numbered as in tree.neighbors: at the root
    every slot is a child, below it slot 0 is the parent and slot c + 1
    child c.  The edge from v through slot s has the key v * stride + s,
    with stride max(d1, d2) + 1.  For small degrees the store is one
    array: nbr[key] holds 1 + the id of the neighbor, or 0 while that
    child is unvisited (so the table grows by zero pages), and a move is
    one gather; the parent slot is written when the vertex is created.
    The table and its keys are int32 too: the table never outgrows
    TREE_BYTES (while it grows, the old and the new table count together),
    so a key is below TREE_BYTES / 4 entries, which the constructor checks
    is at most 2**31.  The constructor grows a dense table to 1,024 rows
    through _grow, charged like every growth, from the spare that release
    hands back, whatever its shape, when it is at most a third of
    TREE_BYTES, or else from no rows.  Growth and its charge follow cap,
    the rows a table grown from 1,024 rows would hold, so a run raises
    where it would from a fresh table, unless one step creates more
    vertices than the spare holds rows: the spare, alive beside its copy,
    is then charged too.
    Wider trees keep a flat parent array and a dict from the key of each
    child edge, an int64 key since it passes 2**31 on wide trees; move
    charges that store _DICT_VERTEX_BYTES a vertex against TREE_BYTES
    before its dict holds the vertex, so its ids stay below TREE_BYTES / 4
    as well.  No level parity is stored: run_frog's frogs all sit at the
    parity of the step.
    """

    def __init__(self, t: TreeParams):
        self.dense = max(t.d1 + 1, t.d2) <= DENSE_CHILD_LIMIT
        self.stride = t.stride
        if TREE_BYTES // _VID.itemsize > np.iinfo(_VID).max + 1:
            raise SimResourceError(
                f"a {TREE_BYTES}-byte tree store would index past the {_VID} range")
        if self.dense:
            # a spare of at most a third of TREE_BYTES leaves room for its
            # copy when one step creates at most as many vertices as it
            # holds rows
            with _SPARE_LOCK:
                take = _SPARE and 3 * _SPARE[-1].nbytes <= TREE_BYTES
                self.nbr = _SPARE.pop() if take else _EMPTY
            self.cap = 0
            self._grow(1024)
        else:
            self.parent = np.full(1024, -1, dtype=_VID)
            self.child = {}
        self.n = 1

    def _grow(self, need: int) -> None:
        cap = self.cap
        if need > cap:
            # a table grown from 1,024 rows keeps its cap rows alive while
            # _extended copies them
            row = self.stride * self.nbr.itemsize
            what = "neighbor-table rows, old and new,"
            _check_bytes(cap + need, row, TREE_BYTES, what)
            self.cap = min(max(need, 2 * cap), TREE_BYTES // row - cap)
            held = self.nbr.size // self.stride
            if self.cap > held:
                # a spare's whole rows, more or fewer than cap, alive while copied
                _check_bytes(held + self.cap, row, TREE_BYTES, what)
                self.nbr = _extended(self.nbr, self.cap * self.stride)

    def release(self) -> None:
        """End the run's use of the store: a dense table is kept as the
        spare, its written rows zeroed, if no spare is held and it is at
        most _SPARE_TABLE_BYTES."""
        if self.dense and self.nbr.nbytes <= _SPARE_TABLE_BYTES:
            with _SPARE_LOCK:
                if not _SPARE:
                    # every write keys a vertex below n
                    self.nbr[:self.n * self.stride] = 0
                    _SPARE.append(self.nbr)

    def _add(self, pv: np.ndarray) -> np.ndarray:
        """Ids of new children of the vertices pv, one each, in order."""
        lo, hi = self.n, self.n + pv.size
        if self.dense:
            self._grow(hi)
        elif hi > self.parent.size:
            self.parent = _extended(self.parent, max(hi, 2 * self.parent.size))
        # n bounds every write, even one that raises
        self.n = hi
        if self.dense:
            self.nbr[lo * self.stride:hi * self.stride:self.stride] = pv + 1
        else:
            self.parent[lo:hi] = pv
        return np.arange(lo, hi, dtype=_VID)

    def move(self, movers: np.ndarray, slot: np.ndarray):
        """One jump per mover through slot, uniform on [0, degree); returns
        (targets, fresh ids in alloc order).  movers and slot are int32."""
        if self.dense:
            flat = movers * self.stride
            flat += slot
            got = self.nbr.take(flat)
            miss = np.flatnonzero(got == 0)
            fresh = _EMPTY
            if miss.size:
                # one fresh id per distinct (parent id, slot), in that order
                want = flat.take(miss)
                keys = np.sort(want)
                keys = keys.compress(np.concatenate(([True], keys[1:] != keys[:-1])))
                fresh = self._add(keys // self.stride)
                # a fancy store takes numpy's fast path only for intp indices
                self.nbr[keys.astype(np.intp)] = fresh + 1
                got[miss] = self.nbr.take(want)
            got -= 1
            return got, fresh
        targets = np.empty_like(movers)
        up = (slot == 0) & (movers != 0)
        to_parent, to_child = np.flatnonzero(up), np.flatnonzero(~up)
        targets[to_parent] = self.parent.take(movers.take(to_parent))
        # fresh ids follow the order in which the movers reach them
        child, n = self.child, self.n
        # a new vertex id at or past limit outgrows the store's bytes
        limit = TREE_BYTES // _DICT_VERTEX_BYTES
        got, new_keys = [], []
        keys = movers.take(to_child).astype(np.int64) * self.stride + slot.take(to_child)
        for key in keys.tolist():
            y = child.get(key)
            if y is None:
                y = n + len(new_keys)
                if y >= limit:
                    _check_bytes(y + 1, _DICT_VERTEX_BYTES, TREE_BYTES, "tree vertices")
                child[key] = y
                new_keys.append(key)
            got.append(y)
        fresh = _EMPTY
        if new_keys:
            fresh = self._add(np.array(new_keys, dtype=np.int64) // self.stride)
        targets[to_child] = got
        return targets, fresh


@dataclass(frozen=True)
class SimConfig:
    tree: TreeParams
    law: InitLaw
    p: float
    horizon: int = 10_000
    awake_cap: int = 100_000
    seed: int = 0
    replica_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))
        for name, low in (("horizon", 1), ("awake_cap", 1), ("seed", 0), ("replica_index", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low, math.inf))


@dataclass(frozen=True)
class SimOutcome:
    """survived means censored survival (horizon or awake_cap reached);
    otherwise at_time is the last time with an awake frog."""

    survived: bool
    at_time: int | None
    censor_reason: str | None
    max_awake: int
    vertices_activated: int


def run_frog(config: SimConfig) -> SimOutcome:
    p, law, tree = config.p, config.law, config.tree
    rng = _stream(config.seed, config.replica_index)
    eta_root = int(law.sample(rng, 1)[0])
    _check_bytes(eta_root, _FROG_ITEMSIZE, FROG_ARRAY_BYTES, "awake frogs")
    pos = np.zeros(eta_root, dtype=_VID)
    max_awake = eta_root
    table = _TreeTable(tree)
    try:
        for now in range(config.horizon):
            pos = pos.compress(rng.random(pos.size) < p)
            survivors = pos.size
            woken = 0
            if survivors:
                # every awake frog sits at the level parity of the step
                deg = tree.d2 + 1 if now % 2 else tree.d1 + 1
                # the int32 draw reads the same stream as the default int64 one
                slot = rng.integers(0, deg, size=survivors, dtype=_VID)
                targets, fresh = table.move(pos, slot)
                if fresh.size:
                    counts = law.sample(rng, fresh.size)
                    woken = int(counts.sum())
                    _check_bytes(survivors + woken, _FROG_ITEMSIZE, FROG_ARRAY_BYTES,
                                 "awake frogs")
                    pos = np.concatenate([targets, np.repeat(fresh, counts)])
                else:
                    pos = targets
            if pos.size != survivors + woken:
                raise RuntimeError(f"awake count not conserved at time {now}: "
                                   f"{pos.size} != {survivors} + {woken}")
            if pos.size == 0:
                return SimOutcome(survived=False, at_time=now, censor_reason=None,
                                  max_awake=max_awake, vertices_activated=table.n)
            max_awake = max(max_awake, pos.size)
            if pos.size > config.awake_cap:
                return SimOutcome(survived=True, at_time=None, censor_reason="awake_cap",
                                  max_awake=max_awake, vertices_activated=table.n)
        return SimOutcome(survived=True, at_time=None, censor_reason="horizon",
                          max_awake=max_awake, vertices_activated=table.n)
    finally:
        table.release()


_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple:
    """Wilson 95% score interval for successes out of n >= 1 trials."""
    n = _check_int("n", n, 1, math.inf)
    successes = _check_int("successes", successes, 0, n)
    z = _Z95
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    # the exact ends 0 and 1 would come out rounded (1.7e-18 at 0 of 200)
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class SurvivalEstimate:
    p: float
    replicas: int
    survived: int
    fraction: float
    ci_low: float
    ci_high: float


def _estimate(p: float, survived: int, n: int) -> SurvivalEstimate:
    lo, hi = wilson_interval(survived, n)
    return SurvivalEstimate(p=p, replicas=n, survived=survived,
                            fraction=survived / n, ci_low=lo, ci_high=hi)


def estimate_survival(config: SimConfig, replicas: int) -> SurvivalEstimate:
    """Censored-survival fraction over replicas with a Wilson 95% interval.

    Replica r uses the substream keyed (seed, replica_index + r).
    """
    replicas = _check_int("replicas", replicas, 1, math.inf)
    base = config.replica_index
    s = sum(run_frog(replace(config, replica_index=r)).survived
            for r in range(base, base + replicas))
    return _estimate(config.p, s, replicas)


_PUR_ETA, _PUR_WALK = 1, 2
#: (lifetime, jump) uniform pairs per walk block; one block spans
#: 2 * _BLOCK_PAIRS / 4 Philox counter increments
_BLOCK_PAIRS = 32
_MASK64 = (1 << 64) - 1


def _child_key(parent_key: int, cidx: int) -> int:
    """RNG key of child cidx of a vertex: splitmix64 of (parent key, cidx)."""
    z = (parent_key + (cidx + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _Realization:
    """The random environment of one coupled replica, shared by every p.

    Vertex v has a 64-bit RNG key fixed by its place in the tree: 0 at the
    root and _child_key(key of parent, child index) below it, so a key
    never depends on the order in which the tree was explored (a hash
    collision would reuse random numbers, never merge vertices).  eta and
    walk_block take that key and read Philox under the replica key with
    counter (offset, frog, purpose, key): eta, one scalar law.draw with
    purpose _PUR_ETA for every law, and a frog's lifetime and jump
    uniforms with purpose _PUR_WALK, in blocks of _BLOCK_PAIRS pairs that
    are consecutive pieces of one stream.  Every read first resets the
    counter in _seek, the one writer of the replica's Philox state.
    walk_block fills one float64 buffer, buf, of 2 * _BLOCK_PAIRS words in
    place and returns it: its words hold until the next walk_block, so a
    caller that keeps a block copies it (an eta read leaves buf alone).
    The pass reads const (a one-point law's value, else None), not eta.
    """

    def __init__(self, config: SimConfig, replica: int):
        self.gen = _stream(config.seed, replica, 0xC0FFEE)
        self.key = self.gen.bit_generator.state["state"]["key"].tolist()
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0], "key": self.key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        self._counter = self._state["state"]["counter"]
        self.buf = np.empty(2 * _BLOCK_PAIRS)
        law = self.law = config.law
        top = law.support_max
        self.const = top if top is not None and law.pmf(top) == 1.0 else None

    def _seek(self, key: int, frog: int, purpose: int, offset: int) -> None:
        # the state setter copies the values, so one dict serves every reset
        self._counter[:] = (offset, frog, purpose, key)
        self.gen.bit_generator.state = self._state

    def eta(self, key: int) -> int:
        self._seek(key, 0, _PUR_ETA, 0)
        return self.law.draw(self.gen)

    def walk_block(self, key: int, frog: int, block: int) -> np.ndarray:
        """Uniforms of steps block * _BLOCK_PAIRS onward, in buf: the
        lifetime uniform of step i of the block at i, its jump uniform at
        _BLOCK_PAIRS + i.  They hold until the next read."""
        self._seek(key, frog, _PUR_WALK, block * (_BLOCK_PAIRS // 2))
        # random(out=) reads the same stream as random(2 * _BLOCK_PAIRS)
        self.gen.random(out=self.buf)
        return self.buf


def _replica_threshold(config: SimConfig, p_max: float, replica: int) -> tuple:
    """(p_hat, eta(root) >= 1) of one replica by one lazy minimax pass.

    A vertex wakes at p iff its threshold is below p.  The threshold is 0
    at the root, and max(threshold of v, L_0..L_{s-1}) for the vertex that
    step s of a walk from v reaches, minimized over walks.  Vertices are
    woken in threshold order and p_hat is the threshold at which the
    woken-frog total first exceeds awake_cap.  A walk is extended only
    while its lifetime uniforms stay at or below the current level; the
    first one above it parks the walk on the heap under that uniform.
    Levels from p_max up are never resolved: p_hat is then +inf.

    The pass grows the tree one jump at a time: ids in visit order with
    the root at 0, a parent list, a child dict keyed v * stride + slot as
    in _TreeTable, and each vertex's RNG key.  A vertex is new, and wakes,
    exactly when its child-dict lookup misses.
    """
    real = _Realization(config, replica)
    eta, walk_block, const = real.eta, real.walk_block, real.const
    # every block read refills real.buf in place; item(i) is word i as a float
    item = real.buf.item
    t = config.tree
    degs, stride = (t.d1 + 1, t.d2 + 1), t.stride
    parent, child, rng_key = [-1], {}, [0]
    push, cap = heapq.heappush, config.awake_cap
    # past limit the pass survives at the cap, or its walks outgrow the bound;
    # a new vertex id at or past tree_limit outgrows the tree's
    limit = min(cap, FROG_ARRAY_BYTES // _WALK_ITEMSIZE)
    tree_limit = TREE_BYTES // _TREE_VERTEX_BYTES
    pairs, max_steps = _BLOCK_PAIRS, _MAX_WALK_STEPS
    # blocks below `full` end before the step guard, so they stop at pairs
    full = max_steps // pairs
    total = const if const is not None else eta(0)
    if total == 0 or p_max <= 0.0:
        return math.inf, total >= 1
    if total > limit:
        if total > cap:
            return 0.0, True
        _check_bytes(total, _WALK_ITEMSIZE, FROG_ARRAY_BYTES, "woken frogs' walks")
    # a walk: (key, frog, block, i, pos, odd), frog `frog` of the vertex with
    # RNG key `key`, at pos (parity odd) before step i of block `block`
    ready = [(0, f, 0, 0, 0, 0) for f in range(total)]
    heap, level = [], 0.0
    while True:
        while ready:
            key, frog, block, i, pos, odd = ready.pop()
            walk_block(key, frog, block)
            stop = pairs if block < full else min(pairs, max_steps - block * pairs)
            while True:
                if i == stop:
                    if i == pairs:
                        block, i = block + 1, 0
                        walk_block(key, frog, block)
                        stop = pairs if block < full else min(pairs, max_steps - block * pairs)
                    if i == stop and item(i) <= level:
                        raise SimResourceError(
                            f"a walk exceeded {max_steps} steps below p_max; lower p_max")
                life = item(i)
                if life > level:
                    # a parked walk holds no uniforms, since the next read
                    # overwrites the buffer; it is rarely resumed (about 11
                    # pops per replica at T(2,2), const:1, cap 2000) and then
                    # re-reads its block.  A tie on life falls to the walk's
                    # fields in order; p_hat ignores the order of a tie
                    push(heap, (life, key, frog, block, i, pos, odd))
                    break
                # u <= 1 - 2**-53 rounds u * deg below deg for every deg < 2**53
                slot = int(item(pairs + i) * degs[odd])
                odd ^= 1
                i += 1
                if pos and not slot:
                    pos = parent[pos]
                    continue
                edge = pos * stride + slot
                y = child.get(edge)
                if y is not None:
                    pos = y
                    continue
                y = len(parent)
                if y >= tree_limit:
                    _check_bytes(y + 1, _TREE_VERTEX_BYTES, TREE_BYTES, "tree vertices")
                child[edge] = y
                parent.append(pos)
                vkey = _child_key(rng_key[pos], slot - (pos != 0))
                rng_key.append(vkey)
                pos = y
                k = const if const is not None else eta(vkey)
                total += k
                if total > limit:
                    if total > cap:
                        return level, True
                    _check_bytes(total, _WALK_ITEMSIZE, FROG_ARRAY_BYTES, "woken frogs' walks")
                if k == 1:
                    ready.append((vkey, 0, 0, 0, pos, odd))
                elif k:
                    ready.extend([(vkey, f, 0, 0, pos, odd) for f in range(k)])
        # every walk is parked here: none ends, since lifetime uniforms are < 1
        walk = heapq.heappop(heap)
        level = walk[0]
        if level >= p_max:
            return math.inf, True
        ready.append(walk[1:])


@dataclass(frozen=True)
class CoupledThresholds:
    """Per-replica critical values of the coupled sweep.

    p_hat[r] is replica r's critical value: it survives at p < 1 iff
    p_hat[r] < p (never at p = 0, where every frog dies at once, as in
    run_frog).  It is +inf when the replica does not exceed awake_cap
    below p_max.  At p = 1 every walk is infinite, so replica r survives
    iff its root holds a frog (root_awake[r]).
    """

    p_max: float
    p_hat: tuple
    root_awake: tuple

    def survived(self, p: float) -> int:
        p = _check_p(p)
        if p >= 1.0:
            return sum(self.root_awake)
        if p > self.p_max:
            raise ValueError(f"p={p} lies above p_max={self.p_max}, where "
                             f"the thresholds are not resolved")
        return sum(x < p for x in self.p_hat)

    def estimates(self, p_values) -> list:
        """One SurvivalEstimate per p, in input order."""
        return [_estimate(x, self.survived(x), len(self.p_hat)) for x in p_values]

    def quantiles(self) -> dict:
        """Order-statistic quantiles of p_hat (None where they lie above
        p_max) and the number of replicas above p_max."""
        x = np.asarray(self.p_hat, dtype=float)
        out = {}
        for name, q in (("min", 0.0), ("q25", 0.25), ("median", 0.5),
                        ("q75", 0.75), ("max", 1.0)):
            v = float(np.quantile(x, q, method="inverted_cdf"))
            out[name] = v if math.isfinite(v) else None
        out["above_p_max"] = int(np.isinf(x).sum())
        out["p_max"] = self.p_max
        return out


def check_grid(p_values) -> list:
    """A non-empty p grid's points, each checked as a p, as Python floats."""
    ps = [_check_p(x) for x in p_values]
    if not ps:
        raise ValueError("p grid must be non-empty")
    return ps


def grid_p_max(p_values) -> float:
    """p_max for a coupled grid: its largest point below 1, else 0."""
    return max((x for x in p_values if x < 1.0), default=0.0)


def coupled_thresholds(config: SimConfig, p_max: float,
                       replicas: int) -> CoupledThresholds:
    """Critical values p_hat of replicas replica_index .. + replicas - 1,
    resolved on [0, p_max); config.p and config.horizon are not used."""
    p_max = _check_real("p_max", p_max, 0, 1, "[)")
    replicas = _check_int("replicas", replicas, 1, math.inf)
    base = config.replica_index
    per_replica = [_replica_threshold(config, p_max, r)
                   for r in range(base, base + replicas)]
    return CoupledThresholds(p_max=p_max,
                             p_hat=tuple(h for h, _ in per_replica),
                             root_awake=tuple(a for _, a in per_replica))


def sweep(config: SimConfig, p_values, replicas: int, coupled: bool = False) -> list:
    """Survival estimates over a p grid.

    Uncoupled (default): each grid point is exactly estimate_survival at
    that p, and a replica survives when more than awake_cap frogs are
    awake at once or the horizon is reached.  Coupled: every replica
    shares one realization (frog counts, lifetime and jump uniforms) across
    all p, survival is time-free activation-cluster percolation, and a
    replica survives when more than awake_cap frogs are woken in total;
    horizon is ignored.  One threshold pass per replica
    (coupled_thresholds) gives its critical value p_hat, and the replica
    survives at p < 1 iff p_hat < p, so the indicator is nondecreasing in
    p by construction; at p = 1 it survives iff its root holds a frog.
    """
    ps = check_grid(p_values)
    if not coupled:
        return [estimate_survival(replace(config, p=x), replicas) for x in ps]
    return coupled_thresholds(config, grid_p_max(ps), replicas).estimates(ps)


#: largest progeny count gw_progeny_masses tabulates for a law of unbounded support
_PROGENY_K_CAP = 256
#: run_multitype_gw reports survival past this many generations or particles at once
_GW_MAX_GENERATIONS, _GW_POPULATION_CAP = 10_000, 10 ** 7


@dataclass(frozen=True)
class GwOutcome:
    extinct: bool
    at_generation: int | None
    population_trace: list


def _progeny_total(rng: np.random.Generator, n: int, p: float, d: int,
                   law: InitLaw) -> int:
    """Total offspring of n same-type particles, sampled by decomposition:
    die (1-p); else one child, plus a full pile of size eta with the
    wake-a-new-vertex probability d/(d+1)."""
    if n == 0:
        return 0
    surv = int((rng.random(n) < p).sum())
    if surv == 0:
        return 0
    piles = int((rng.random(surv) >= 1.0 / (d + 1)).sum())
    total = surv
    if piles:
        total += int(law.sample(rng, piles).sum())
    return total


def run_multitype_gw(t: TreeParams, law: InitLaw, p: float, seed: int = 0,
                     replica_index: int = 0) -> GwOutcome:
    """Two-type branching process that dominates the early frog cloud.

    Generation 0 holds no type-1 particles and the sum of d1 + 2 draws of
    the law as type-2 particles; type-i particles reproduce into the other
    type with the progeny law of gw_progeny_masses.
    """
    p = _check_p(p)
    rng = _stream(seed, replica_index, 0x475721)
    n1 = 0
    n2 = int(law.sample(rng, t.d1 + 2).sum())
    trace = [(n1, n2)]
    if n2 == 0:
        return GwOutcome(extinct=True, at_generation=0, population_trace=trace)
    for gen in range(1, _GW_MAX_GENERATIONS + 1):
        new2 = _progeny_total(rng, n1, p, t.d1, law)
        new1 = _progeny_total(rng, n2, p, t.d2, law)
        n1, n2 = new1, new2
        trace.append((n1, n2))
        if n1 + n2 == 0:
            return GwOutcome(extinct=True, at_generation=gen, population_trace=trace)
        if n1 + n2 > _GW_POPULATION_CAP:
            break
    return GwOutcome(extinct=False, at_generation=None, population_trace=trace)


def gw_progeny_masses(t: TreeParams, law: InitLaw, p: float,
                      parent_type: int) -> np.ndarray:
    """Progeny masses P[k children] for k = 0..k_cap of one particle, with
    k_cap = 1 + the law's largest support point, or _PROGENY_K_CAP for a
    law of unbounded support.

    P[0] = 1 - p, P[1] = p (1 + d rho_0) / (d + 1), and for k >= 2
    P[k] = p d rho_{k-1} / (d + 1), with d = d1 for type-1 parents and d2
    for type-2.
    """
    p = _check_p(p)
    parent_type = _check_int("parent_type", parent_type, 1, 2)
    d = t.d1 if parent_type == 1 else t.d2
    k_cap = law.support_max + 1 if law.support_max is not None else _PROGENY_K_CAP
    m = np.zeros(k_cap + 1)
    m[0] = 1.0 - p
    m[1] = p * (1.0 + d * law.p0) / (d + 1)
    for k in range(2, k_cap + 1):
        m[k] = p * d * law.pmf(k - 1) / (d + 1)
    return m


@dataclass(frozen=True)
class RangeDiskReport:
    trials: int
    k: int
    range_prob: float
    range_se: float
    range_ref: float
    ball_prob: float
    ball_se: float
    ball_ref: float


def mc_range_vs_disk(t: TreeParams, law: InitLaw, p: float, k: int,
                     trials: int, seed: int = 0,
                     start_type: int = 1) -> RangeDiskReport:
    """One realization drives both events for a target y at distance k:
    y in range(x) (some frog's walk visits y) and y in ball(x) (some
    frog's lifetime reaches k).  The walk cannot visit y without making k
    jumps, so range containment in ball is checked pathwise; the ball
    estimate is checked against cpgf(p^k) = 1 - pgf(1 - p^k) and the range
    estimate against edge_open_prob.
    """
    p = _check_p(p)
    k = _check_int("k", k, 1, math.inf)
    trials = _check_int("trials", trials, 1, math.inf)
    start_type = _check_int("start_type", start_type, 1, 2)
    rng = _stream(seed, 0x52414E47)
    counts = law.sample(rng, trials)
    trial_idx = np.repeat(np.arange(trials, dtype=np.int64), counts)
    # parity of y: the start's parity after k flips
    base = start_type - 1 + k
    closest, jumps = _distance_chain(rng, t, p, np.full(trial_idx.size, k, dtype=np.int64),
                                     base, _ESCAPE_RADIUS + k)
    hit = closest == 0
    ball = jumps >= k
    if np.any(hit & ~ball):
        raise RuntimeError("a walk visited the target with fewer than k jumps")
    hit_t = np.bincount(trial_idx[hit], minlength=trials) > 0
    ball_t = np.bincount(trial_idx[ball], minlength=trials) > 0
    end_type = 1 + (base % 2)
    r_est = _mc_estimate(int(hit_t.sum()), trials)
    b_est = _mc_estimate(int(ball_t.sum()), trials)
    return RangeDiskReport(
        trials=trials, k=k,
        range_prob=r_est.prob, range_se=r_est.stderr,
        range_ref=edge_open_prob(t, law, p, start_type, end_type, k),
        ball_prob=b_est.prob, ball_se=b_est.stderr,
        ball_ref=law.cpgf(p ** k))
