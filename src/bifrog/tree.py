"""Rooted biregular tree: parameters, vertex addressing, and the metric.

Vertices at even distance from the root have degree d1 + 1, vertices at
odd distance have degree d2 + 1.  A vertex is addressed by its path from
the root as a tuple of child indices; the root is the empty tuple.  The
root carries d1 + 1 children (it has no parent), every other even-level
vertex carries d1 and every odd-level vertex carries d2.

The simulator keeps its own integer-id tree stores; the address helpers
here are the independent oracle the tests check those stores against.
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


def validate_addr(t: TreeParams, addr: VertexAddr) -> None:
    prefix = ()
    for c in addr:
        n = num_children(t, prefix)
        if not isinstance(c, int) or not 0 <= c < n:
            raise ValueError(f"address {addr!r} invalid at prefix {prefix!r}: "
                             f"child index {c!r} not in [0, {n})")
        prefix = prefix + (c,)


def parent(addr: VertexAddr) -> VertexAddr:
    if not addr:
        raise ValueError("the root has no parent")
    return addr[:-1]


def children(t: TreeParams, addr: VertexAddr) -> list:
    return [addr + (c,) for c in range(num_children(t, addr))]


def neighbors(t: TreeParams, addr: VertexAddr) -> list:
    """All degree(addr) neighbors, parent first for non-root vertices."""
    out = [] if not addr else [addr[:-1]]
    out.extend(children(t, addr))
    return out


def distance(u: VertexAddr, v: VertexAddr) -> int:
    lcp = 0
    for a, b in zip(u, v):
        if a != b:
            break
        lcp += 1
    return len(u) + len(v) - 2 * lcp
