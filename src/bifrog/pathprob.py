"""Probability that a fixed geodesic opens under cascading activation.

A geodesic x_0, ..., x_k carries sleeping frogs on x_0 .. x_{k-1}.  The
path is *open* when x_0's frogs either reach x_k directly, or reach some
intermediate x_l (but not x_{l+1}) whose own frogs open the rest, and so
on inductively.  With a = alpha, b = beta the one-step hitting
probabilities and phi the generating function of the frog count, the
probabilities for the four pairs of endpoint types satisfy mutual
recursions whose kernel coefficients are the probabilities that the
owner's frogs reach exactly l vertices along the path before the first
closed edge.  A path from a type-2 vertex is one from a type-1 vertex with
a and b exchanged, so one recursion, run in both orientations, gives all
four.

For Bernoulli frog counts the same-type family collapses to the closed
form

    F_n(q, a, b) = q [a b (1 + q (1 - b))]^n [1 + q (1 - a)]^{n-1},

which the recursion must reproduce; bounds are built on that product
structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_q
from .hitting import (McEstimate, _auto_escape_radius, _check_p, _mc_estimate, _stream,
                      edge_exponents, hitting_pair)
from .laws import InitLaw
from .tree import TreeParams, _check_int, _check_real

K_MAX_DEFAULT = 64


@dataclass(frozen=True)
class PathOpenQuery:
    """Geodesic of length k from a type-i to a type-j vertex."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        edge_exponents(self.i, self.j, self.k)  # validates types and parity

    @property
    def n(self) -> int:
        return (self.k + 1) // 2


class PathOpenTables:
    """Memoized path-open probabilities at fixed (pgf, a, b), by orientation.

    Orientation o = i - 1 is the type of the path's start less one: it uses
    (x, y) = (a, b) for o = 0 and (b, a) for o = 1, since a geodesic from a
    type-2 vertex is one from a type-1 vertex with alpha and beta exchanged.
    cross[o][n] is the probability for a path of odd length 2n-1, same[o][n]
    for even length 2n.  Values are filled bottom-up: level n of cross[o]
    needs levels < n, and level n of same[o] needs cross[1 - o] up to n, so
    each level fills both crosses before both sames.
    """

    def __init__(self, pgf, a: float, b: float, k_max: int = K_MAX_DEFAULT):
        self.pgf = pgf
        self.a, self.b = (_check_real("hitting probability", v, 0, 1, "[]") for v in (a, b))
        self.k_max = _check_int("k_max", k_max, 1, math.inf)
        self.n_max = (self.k_max + 1) // 2
        # per orientation, 1-indexed; the kernel coefficients are
        # c1[o][l] = phi(1 - x^{l+1} y^l) - phi(1 - x^l y^l)
        # c2[o][l] = phi(1 - x^l y^l)     - phi(1 - x^l y^{l-1})
        self._cross, self._same = ([0.0], [0.0]), ([0.0], [0.0])
        self._c1, self._c2 = ([0.0], [0.0]), ([0.0], [0.0])

    def _require(self, n: int) -> None:
        if n > self.n_max:
            raise ValueError(f"path length {2 * n - 1}..{2 * n} exceeds k_max={self.k_max}; "
                             f"construct the tables with a larger k_max")
        pgf, a, b = self.pgf, self.a, self.b
        cross, same, c1, c2 = self._cross, self._same, self._c1, self._c2
        while len(cross[0]) <= n:
            m = len(cross[0])
            mid = pgf(1.0 - a ** m * b ** m)  # x^m y^m is the same in both orientations
            for o, (x, y) in enumerate(((a, b), (b, a))):
                k1, k2, own, other = c1[o], c2[o], cross[o], same[1 - o]
                xm, ym = x ** m, y ** m
                ym1 = y ** (m - 1)  # 0**0 == 1 covers p = 0
                k1.append(pgf(1.0 - x * xm * ym) - mid)
                k2.append(mid - pgf(1.0 - xm * ym1))
                v = 1.0 - pgf(1.0 - xm * ym1)
                for l in range(1, m):
                    v += k1[l] * own[m - l] + k2[l] * other[m - l]
                own.append(v)
            for o in (0, 1):
                k1, k2, own, other = c1[o], c2[o], same[o], cross[1 - o]
                v = 1.0 - mid
                for l in range(1, m):
                    v += k1[l] * own[m - l]
                for l in range(1, m + 1):
                    v += k2[l] * other[m + 1 - l]
                own.append(v)

    def same_11(self, n: int) -> float:
        return self.value(PathOpenQuery(1, 1, 2 * n))

    def value(self, query: PathOpenQuery) -> float:
        self._require(query.n)
        return (self._same if query.i == query.j else self._cross)[query.i - 1][query.n]


def path_open_prob(query: PathOpenQuery, t: TreeParams, law: InitLaw, p: float) -> float:
    """Probability that the geodesic described by the query opens."""
    pair = hitting_pair(t, p)
    return PathOpenTables(law.pgf, pair.alpha, pair.beta, k_max=query.k).value(query)


def bernoulli_path_open(n: int, q: float, a: float, b: float) -> float:
    """Closed form of same_11(n) when the frog count is Bernoulli(q)."""
    n, q = _check_int("n", n, 1, math.inf), _check_q(q)
    a, b = (_check_real("hitting probability", v, 0, 1, "[]") for v in (a, b))
    return q * (a * b * (1.0 + q * (1.0 - b))) ** n * (1.0 + q * (1.0 - a)) ** (n - 1)


def mc_path_open(query: PathOpenQuery, t: TreeParams, law: InitLaw, p: float,
                 trials: int, seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of path_open_prob by direct event simulation.

    Frogs are realized at x_0 .. x_{k-1} and each walk is projected onto
    (nearest path index, off-path distance); on a tree an off-path
    excursion can only re-enter at its projection vertex, so the pair is a
    Markov chain.  The per-trial reach matrix REACH[l, m] (owner l's frogs
    visited x_m) feeds the inductive open-to-the-end recursion; frogs at
    x_k are irrelevant to the event and not simulated.  A walk farther
    than hitting._auto_escape_radius(p) from the path is retired, as in
    the distance-chain oracles.
    """
    p = _check_p(p)
    trials = _check_int("trials", trials, 1, math.inf)
    k = query.k
    radius = _auto_escape_radius(p)

    rng = _stream(seed, 0x50415448)
    degs = (t.d1 + 1, t.d2 + 1)
    i0 = query.i - 1  # 0-based parity of x_0

    counts = law.sample(rng, trials * k).reshape(trials, k)
    owner = np.tile(np.arange(k, dtype=np.int64), trials)
    trial = np.repeat(np.arange(trials, dtype=np.int64), k)
    owner = np.repeat(owner, counts.ravel())
    trial = np.repeat(trial, counts.ravel())

    pos = owner.copy()          # index of nearest path vertex
    off = np.zeros_like(pos)    # distance from the path
    reach = np.zeros((trials, k, k + 1), dtype=bool)
    reach[trial, owner, pos] = True

    while pos.size:
        alive = np.flatnonzero(rng.random(pos.size) < p)
        trial, owner, pos, off = (a.take(alive) for a in (trial, owner, pos, off))
        if not pos.size:
            break
        deg = np.where((i0 + pos + off) % 2 == 0, degs[0], degs[1])
        # u * deg rounds below deg for u <= 1 - 2**-53, so truncation needs no clamp
        slot = (rng.random(pos.size) * deg).astype(np.int64)
        on_path = off == 0
        # on the path: slot 0 steps toward x_0 (off the segment when pos=0),
        # slot 1 toward x_k (off when pos=k); any other slot leaves the path
        go_left = on_path & (slot == 0) & (pos > 0)
        go_right = on_path & (slot == (pos > 0).astype(np.int64)) & (pos < k)
        go_off = on_path & ~go_left & ~go_right
        back = ~on_path & (slot == 0)
        pos = pos + go_right.astype(np.int64) - go_left.astype(np.int64)
        off = off + np.where(on_path, go_off.astype(np.int64),
                             np.where(back, -1, 1))
        arrived = np.flatnonzero(off == 0)
        if arrived.size:
            reach[trial.take(arrived), owner.take(arrived), pos.take(arrived)] = True
        keep = np.flatnonzero(off <= radius)
        trial, owner, pos, off = (a.take(keep) for a in (trial, owner, pos, off))

    # open-to-the-end recursion, from the far end down to x_0
    open_to = np.zeros((trials, k + 1), dtype=bool)
    open_to[:, k] = True
    for m in range(k - 1, -1, -1):
        acc = reach[:, m, k].copy()
        for l in range(m + 1, k):
            acc |= reach[:, m, l] & ~reach[:, m, l + 1] & open_to[:, l]
        open_to[:, m] = acc

    return _mc_estimate(int(open_to[:, 0].sum()), trials)
