"""Probability that a fixed geodesic opens under cascading activation.

A geodesic x_0, ..., x_k carries sleeping frogs on x_0 .. x_{k-1}.  The
path is *open* when x_0's frogs either reach x_k directly, or reach some
intermediate x_l (but not x_{l+1}) whose own frogs open the rest, and so
on inductively.  With a = alpha, b = beta the one-step hitting
probabilities and cpgf(z) = 1 - phi(1 - z), phi the generating function of
the frog count, the probabilities for the four pairs of endpoint types
satisfy mutual recursions whose kernel coefficients, differences of cpgf
values at full relative precision, are the chances that the owner's frogs
reach exactly l vertices along the path before the first closed edge.
A path from a type-2 vertex is one from a type-1 vertex with a and b
exchanged, so one recursion, run in both orientations, gives all four.

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
from .hitting import (_ESCAPE_RADIUS, McEstimate, _check_p, _distance_chain, _mc_estimate,
                      _stream, edge_exponents, hitting_pair)
from .laws import InitLaw
from .tree import TreeParams, _check_int, _check_real


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
    """Memoized path-open probabilities at fixed (cpgf, a, b), by orientation.

    Orientation o = i - 1 is the type of the path's start less one: it uses
    (x, y) = (a, b) for o = 0 and (b, a) for o = 1, since a geodesic from a
    type-2 vertex is one from a type-1 vertex with alpha and beta exchanged.
    cross[o][n] is the probability for a path of odd length 2n-1, same[o][n]
    for even length 2n.  Values are filled bottom-up: level n of cross[o]
    needs levels < n, and level n of same[o] needs cross[1 - o] up to n, so
    each level fills both crosses before both sames.
    """

    def __init__(self, cpgf, a: float, b: float, k_max: int):
        self.cpgf = cpgf
        self.a, self.b = (_check_real("hitting probability", v, 0, 1, "[]") for v in (a, b))
        self.k_max = _check_int("k_max", k_max, 1, math.inf)
        self.n_max = (self.k_max + 1) // 2
        # per orientation, 1-indexed; the kernel coefficients are
        # c1[o][l] = cpgf(x^l y^l)     - cpgf(x^{l+1} y^l)
        # c2[o][l] = cpgf(x^l y^{l-1}) - cpgf(x^l y^l)
        self._cross, self._same = ([0.0], [0.0]), ([0.0], [0.0])
        self._c1, self._c2 = ([0.0], [0.0]), ([0.0], [0.0])

    def _require(self, n: int) -> None:
        if n > self.n_max:
            raise ValueError(f"path length {2 * n - 1}..{2 * n} exceeds k_max={self.k_max}; "
                             f"construct the tables with a larger k_max")
        cpgf, a, b = self.cpgf, self.a, self.b
        cross, same, c1, c2 = self._cross, self._same, self._c1, self._c2
        while len(cross[0]) <= n:
            m = len(cross[0])
            mid = cpgf(a ** m * b ** m)  # x^m y^m is the same in both orientations
            for o, (x, y) in enumerate(((a, b), (b, a))):
                k1, k2, own, other = c1[o], c2[o], cross[o], same[1 - o]
                direct = cpgf(x ** m * y ** (m - 1))  # 0**0 == 1 covers p = 0
                k1.append(mid - cpgf(x ** (m + 1) * y ** m))
                k2.append(direct - mid)
                v = direct
                for l in range(1, m):
                    v += k1[l] * own[m - l] + k2[l] * other[m - l]
                own.append(v)
            for o in (0, 1):
                k1, k2, own, other = c1[o], c2[o], same[o], cross[1 - o]
                v = mid
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
    return PathOpenTables(law.cpgf, pair.alpha, pair.beta, k_max=query.k).value(query)


def bernoulli_path_open(n: int, q: float, a: float, b: float) -> float:
    """Closed form of same_11(n) when the frog count is Bernoulli(q)."""
    n, q = _check_int("n", n, 1, math.inf), _check_q(q)
    a, b = (_check_real("hitting probability", v, 0, 1, "[]") for v in (a, b))
    return q * (a * b * (1.0 + q * (1.0 - b))) ** n * (1.0 + q * (1.0 - a)) ** (n - 1)


def mc_path_open(query: PathOpenQuery, t: TreeParams, law: InitLaw, p: float,
                 trials: int, seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of path_open_prob by direct event simulation.

    Frogs are realized at x_0 .. x_{k-1} (frogs at x_k are irrelevant to
    the event and not simulated), and each walks through
    hitting._distance_chain by its distance to x_k, retired past distance
    _ESCAPE_RADIUS + k as in mc_range_vs_disk.  On a tree a walk from x_l
    first comes within distance k - m of x_k at x_m, so owner l's frogs
    visit exactly x_l .. x_reach[l], where reach[l] is k less the least
    distance any of them reached, or l.  The path opens iff following
    l -> reach[l] from x_0 ends at x_k; every hop short of x_k moves
    forward or stays, so k hops decide it.
    """
    p = _check_p(p)
    trials = _check_int("trials", trials, 1, math.inf)
    k = query.k
    rng = _stream(seed, 0x50415448)
    # frogs in (trial, owner) order, owner l at distance k - l from x_k
    cell = np.repeat(np.arange(trials * k, dtype=np.int64), law.sample(rng, trials * k))
    trial, owner = np.divmod(cell, k)
    # x_0 has type i, so x_k has parity i - 1 + k
    closest, _ = _distance_chain(rng, t, p, k - owner, query.i - 1 + k, _ESCAPE_RADIUS + k)
    reach = np.tile(np.arange(k + 1, dtype=np.int64), (trials, 1))
    np.maximum.at(reach, (trial, owner), k - closest)
    rows, at = np.arange(trials), np.zeros(trials, dtype=np.int64)
    for _ in range(k):
        at = reach[rows, at]
    return _mc_estimate(int(np.count_nonzero(at == k)), trials)
