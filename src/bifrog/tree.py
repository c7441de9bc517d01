"""Rooted biregular tree: parameters and vertex addressing.

Vertices at even distance from the root have degree d1 + 1, vertices at
odd distance have degree d2 + 1.  A vertex is addressed by its path from
the root as a tuple of child indices; the root is the empty tuple.  The
root carries d1 + 1 children (it has no parent), every other even-level
vertex carries d1 and every odd-level vertex carries d2.

The simulator keeps its own integer-id tree stores; neighbors is the one
address helper here, the independent oracle the tests check all three of
them against.  neighbors(t, addr)[slot] is the neighbor the stores reach
through slot, and a store keys that edge v * stride + slot, with v the
id of addr and stride TreeParams.stride, max(d1, d2) + 1.  A vertex's
degree is len(neighbors(t, addr)) and its parent addr[:-1].

Inputs pass one of two rules here or raise ValueError: _check_int takes what
operator.index takes, bar a bool, in [low, high]; _check_real a finite
numbers.Real, bar a bool, in an interval with ends "[]", "(]", "[)" or "()".
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

#: largest d1 or d2: the d + 1 neighbor slots of a vertex fit the simulator's int32 slot draw
_D_MAX = 2 ** 31 - 2

ROOT = ()


def _check_int(name: str, value, low: int, high: float) -> int:
    """value as a Python int; ValueError unless it is an integer in [low, high]."""
    try:
        index = math.nan if isinstance(value, bool) else operator.index(value)
    except TypeError:  # a float, a str, or an array that is not an integer scalar
        index = math.nan
    if not low <= index <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return index


def _check_real(name: str, value, low: float, high: float, ends: str) -> float:
    """value as a Python float; ValueError unless it is a finite real in the interval."""
    try:  # a plain float skips the numbers.Real test, which costs several times the rest
        real = (value if type(value) is float else float(value)
                if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan)
    except OverflowError:  # an int past the float range
        real = math.nan
    if not (math.isfinite(real) and (low <= real if ends[0] == "[" else low < real)
            and (real <= high if ends[1] == "]" else real < high)):
        raise ValueError(f"{name} must be a finite real in {ends[0]}{low}, {high}{ends[1]}, "
                         f"got {value!r}")
    return real


@dataclass(frozen=True)
class TreeParams:
    d1: int
    d2: int

    def __post_init__(self):
        for name in ("d1", "d2"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1, _D_MAX))

    @property
    def kappa(self) -> int:
        return (self.d1 + 1) * (self.d2 + 1)

    @property
    def stride(self) -> int:
        """Edge-key stride of the tree stores: every neighbor slot is below it."""
        return max(self.d1, self.d2) + 1


def neighbors(t: TreeParams, addr: tuple) -> list:
    """All neighbors of addr, parent first for non-root vertices.

    The index into this list is the stores' neighbor slot: at the root
    slot c is child c, below it slot 0 is the parent and slot c + 1 child c.
    """
    if not addr:
        return [(c,) for c in range(t.d1 + 1)]
    width = t.d2 if len(addr) % 2 else t.d1
    return [addr[:-1], *(addr + (c,) for c in range(width))]
