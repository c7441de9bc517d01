"""Spans recorded around calls into the package, from outside it.

`Tracer.installed(TARGETS)` replaces each named public function with a
wrapper that records a span, in every bifrog module that binds it, and puts
every original back on exit.  A target that no longer exists is listed in
`Tracer.absent` instead of failing.  Spans live in flat arrays (name, start,
end, parent span, run id) and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from bifrog.laws import InitLaw


def _observe_run_frog(tracer, result, exc):
    """Read why run_frog stopped from the SimOutcome it returned."""
    if exc is not None:
        if type(exc).__name__ == "SimResourceError":
            tracer.counts["run_frog.resource_errors"] += 1
        return
    c = tracer.counts
    c["run_frog.calls"] += 1
    c["run_frog.vertices"] += getattr(result, "vertices_activated", 0)
    c["run_frog.max_awake"] += getattr(result, "max_awake", 0)
    c["run_frog.censor." + (getattr(result, "censor_reason", None) or "extinct")] += 1


#: (module, attribute, span name); span names start with their layer
TARGETS = (
    ("bifrog.sim", "sweep", "sim.sweep"),
    ("bifrog.sim", "estimate_survival", "sim.estimate_survival"),
    ("bifrog.sim", "run_frog", "sim.run_frog"),
    ("bifrog.sim", "run_multitype_gw", "sim.run_multitype_gw"),
    ("bifrog.sim", "mc_range_vs_disk", "sim.mc_range_vs_disk"),
    ("bifrog.hitting", "hitting_pair", "hitting.hitting_pair"),
    ("bifrog.hitting", "edge_open_prob", "hitting.edge_open_prob"),
    ("bifrog.hitting", "mc_hit_neighbor", "hitting.mc_hit_neighbor"),
    ("bifrog.pathprob", "path_open_prob", "pathprob.path_open_prob"),
    ("bifrog.pathprob", "mc_path_open", "pathprob.mc_path_open"),
    ("bifrog.bounds", "bounds_report", "bounds.bounds_report"),
    ("bifrog.bounds", "table1", "bounds.table1"),
    ("bifrog.bounds", "ub_root", "bounds.ub_root"),
    ("bifrog.bounds", "disk_mean_offspring", "bounds.disk_mean_offspring"),
    ("bifrog.checks", "run_suite", "checks."),
    # every substream and replica stream is one Philox construction
    ("numpy.random", "Philox", "numpy.Philox"),
)

OBSERVERS = {"sim.run_frog": _observe_run_frog}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.run_id = -1
        self._stack: list = []
        self.counts: Counter = Counter()
        self.absent: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, span_name: str, fn):
        observe = OBSERVERS.get(span_name)
        per_arg = span_name.endswith(".")
        tracer = self

        def traced(*args, **kwargs):
            name = span_name + str(args[0]) if per_arg else span_name
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe:
                    observe(tracer, None, exc)
                raise
            finally:
                tracer.close(idx)
            if observe:
                observe(tracer, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Patch every target for the duration of the block, then restore."""
        patched = []
        try:
            for modname, attr, span_name in targets:
                try:
                    owner = importlib.import_module(modname)
                except ImportError:
                    owner = None
                original = getattr(owner, attr, None)
                if original is None:
                    if f"{modname}.{attr}" not in self.absent:
                        self.absent.append(f"{modname}.{attr}")
                    continue
                wrapper = self.wrap(span_name, original)
                for mod in _binding_modules(owner):
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for mod, name, original in reversed(patched):
                setattr(mod, name, original)

    def arrays(self) -> dict:
        """Copies of the span columns (a view would pin the arrays' size)."""
        return {"start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int64),
                "name": np.array(self.name, dtype=np.int64),
                "run": np.array(self.run, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _binding_modules(owner):
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bifrog" or n.startswith("bifrog."))]
    return mods if owner in mods else [owner, *mods]


class CountingLaw(InitLaw):
    """Delegates to a law and records a `laws.sample` span per sample call."""

    def __init__(self, inner: InitLaw, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.support_max = inner.support_max

    def pgf(self, s):
        return self.inner.pgf(s)

    @property
    def mean(self):
        return self.inner.mean

    @property
    def p0(self):
        return self.inner.p0

    @property
    def q(self):
        return self.inner.q

    def pmf(self, k):
        return self.inner.pmf(k)

    def tail_mean(self, m):
        return self.inner.tail_mean(m)

    def sample(self, rng, size):
        idx = self.tracer.open("laws.sample")
        try:
            return self.inner.sample(rng, size)
        finally:
            self.tracer.close(idx)
            self.tracer.counts["laws.sample.draws"] += int(size)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(tracer: Tracer, runs) -> dict:
    """Per-name totals over the spans of the given run ids: count, total
    seconds and self seconds (duration minus direct children)."""
    a = tracer.arrays()
    n = a["start"].size
    dur = a["end"] - a["start"]
    child = np.zeros(n)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    keep = np.isin(a["run"], np.asarray(list(runs), dtype=np.int64))
    out = {}
    for nid, name in enumerate(tracer.names):
        sel = keep & (a["name"] == nid)
        if sel.any():
            out[name] = {"count": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
    return out
