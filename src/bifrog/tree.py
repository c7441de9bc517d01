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
id of addr and stride max(d1, d2) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

VertexAddr = tuple

ROOT: VertexAddr = ()


@dataclass(frozen=True)
class TreeParams:
    d1: int
    d2: int

    def __post_init__(self):
        for name, d in (("d1", self.d1), ("d2", self.d2)):
            if not isinstance(d, int) or d < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {d!r}")

    @property
    def kappa(self) -> int:
        return (self.d1 + 1) * (self.d2 + 1)


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

