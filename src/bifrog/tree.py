"""Rooted biregular tree: parameters and vertex addressing.

Vertices at even distance from the root have degree d1 + 1, vertices at
odd distance have degree d2 + 1.  A vertex is addressed by its path from
the root as a tuple of child indices; the root is the empty tuple.  The
root carries d1 + 1 children (it has no parent), every other even-level
vertex carries d1 and every odd-level vertex carries d2.

The simulator keeps its own integer-id tree stores; the address helpers
here are the independent oracle the tests check all three of them
against.  neighbors(t, addr)[slot] is the neighbor the stores reach
through slot, and a store keys that edge v * stride + slot, with v the
id of addr and stride TreeParams.stride, max(d1, d2) + 1.

_check_int is the package's one integer rule: an integer is what
operator.index takes (numpy ints too), bar a bool, within given bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

VertexAddr = tuple

ROOT: VertexAddr = ()


def _check_int(name: str, value, low: int, high: float) -> int:
    """value as a Python int; ValueError unless it is an integer in [low, high]."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or not low <= value <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class TreeParams:
    d1: int
    d2: int

    def __post_init__(self):
        for name in ("d1", "d2"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1, math.inf))

    @property
    def kappa(self) -> int:
        return (self.d1 + 1) * (self.d2 + 1)

    @property
    def stride(self) -> int:
        """Edge-key stride of the tree stores: every neighbor slot is below it."""
        return max(self.d1, self.d2) + 1


def parity(addr: VertexAddr) -> int:
    """Type of the vertex: 1 on even levels (root included), 2 on odd."""
    return 1 if len(addr) % 2 == 0 else 2


def degree(t: TreeParams, addr: VertexAddr) -> int:
    return t.d1 + 1 if parity(addr) == 1 else t.d2 + 1


def num_children(t: TreeParams, addr: VertexAddr) -> int:
    depth = len(addr)
    if depth == 0:
        return t.d1 + 1
    return t.d1 if depth % 2 == 0 else t.d2


def parent(addr: VertexAddr) -> VertexAddr:
    if not addr:
        raise ValueError("the root has no parent")
    return addr[:-1]


def children(t: TreeParams, addr: VertexAddr) -> list:
    return [addr + (c,) for c in range(num_children(t, addr))]


def neighbors(t: TreeParams, addr: VertexAddr) -> list:
    """All degree(addr) neighbors, parent first for non-root vertices.

    The index into this list is the stores' neighbor slot: at the root
    slot c is child c, below it slot 0 is the parent and slot c + 1 child c.
    """
    out = [] if not addr else [addr[:-1]]
    out.extend(children(t, addr))
    return out

