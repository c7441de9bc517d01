"""Probability that a fixed geodesic opens under cascading activation.

A geodesic x_0, ..., x_k carries sleeping frogs on x_0 .. x_{k-1}.  The
path is *open* when x_0's frogs either reach x_k directly, or reach some
intermediate x_l (but not x_{l+1}) whose own frogs open the rest, and so
on inductively.  With a = alpha, b = beta the one-step hitting
probabilities and phi the generating function of the frog count, the four
families (indexed by the endpoint types) satisfy mutual recursions whose
kernel coefficients are the probabilities that the owner's frogs reach
exactly l vertices along the path before the first closed edge.

For Bernoulli frog counts the same-type family collapses to the closed
form

    F_n(q, a, b) = q [a b (1 + q (1 - b))]^n [1 + q (1 - a)]^{n-1},

which the recursion must reproduce; bounds are built on that product
structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hitting import (McEstimate, _auto_escape_radius, _check_p, _check_trials,
                      _mc_estimate, _stream, edge_exponents, hitting_pair)
from .laws import InitLaw
from .tree import TreeParams

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
    """Memoized evaluation of the four path-open families at fixed (pgf, a, b).

    cross_12(n) is the probability for a path of odd length 2n-1 from type 1
    to type 2; cross_21(n) the reverse; same_11(n) and same_22(n) are the
    even-length 2n families.  Values are filled bottom-up: level n of the
    cross families needs levels < n, and level n of the same families needs
    cross values <= n of the opposite orientation.
    """

    def __init__(self, pgf, a: float, b: float, k_max: int = K_MAX_DEFAULT):
        if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
            raise ValueError(f"hitting probabilities must lie in [0, 1], got ({a}, {b})")
        self.pgf = pgf
        self.a = float(a)
        self.b = float(b)
        self.k_max = int(k_max)
        self.n_max = (self.k_max + 1) // 2
        self._k = [0.0]   # cross_12, 1-indexed
        self._ks = [0.0]  # cross_21
        self._f = [0.0]   # same_11
        self._fs = [0.0]  # same_22
        # kernel coefficients, filled alongside the tables:
        # _ck1[l] = phi(1 - a^{l+1} b^l)   - phi(1 - a^l b^l)
        # _ck2[l] = phi(1 - a^l b^l)       - phi(1 - a^l b^{l-1})
        # _cs1[l] = phi(1 - b^{l+1} a^l)   - phi(1 - a^l b^l)
        # _cs2[l] = phi(1 - a^l b^l)       - phi(1 - b^l a^{l-1})
        self._ck1 = [0.0]
        self._ck2 = [0.0]
        self._cs1 = [0.0]
        self._cs2 = [0.0]

    def _require(self, n: int) -> None:
        if n > self.n_max:
            raise ValueError(f"path length {2 * n - 1}..{2 * n} exceeds k_max={self.k_max}; "
                             f"construct the tables with a larger k_max")
        pgf, a, b = self.pgf, self.a, self.b
        while len(self._k) <= n:
            m = len(self._k)
            am, bm = a ** m, b ** m
            am1, bm1 = a ** (m - 1), b ** (m - 1)  # 0**0 == 1 covers p = 0
            self._ck1.append(pgf(1.0 - a * am * bm) - pgf(1.0 - am * bm))
            self._ck2.append(pgf(1.0 - am * bm) - pgf(1.0 - am * bm1))
            self._cs1.append(pgf(1.0 - b * bm * am) - pgf(1.0 - am * bm))
            self._cs2.append(pgf(1.0 - am * bm) - pgf(1.0 - bm * am1))

            k_n = 1.0 - pgf(1.0 - am * bm1)
            ks_n = 1.0 - pgf(1.0 - bm * am1)
            for l in range(1, m):
                k_n += self._ck1[l] * self._k[m - l] + self._ck2[l] * self._fs[m - l]
                ks_n += self._cs1[l] * self._ks[m - l] + self._cs2[l] * self._f[m - l]
            self._k.append(k_n)
            self._ks.append(ks_n)

            f_n = 1.0 - pgf(1.0 - am * bm)
            fs_n = 1.0 - pgf(1.0 - am * bm)
            for l in range(1, m):
                f_n += self._ck1[l] * self._f[m - l]
                fs_n += self._cs1[l] * self._fs[m - l]
            for l in range(1, m + 1):
                f_n += self._ck2[l] * self._ks[m + 1 - l]
                fs_n += self._cs2[l] * self._k[m + 1 - l]
            self._f.append(f_n)
            self._fs.append(fs_n)

    def cross_12(self, n: int) -> float:
        self._require(n)
        return self._k[n]

    def cross_21(self, n: int) -> float:
        self._require(n)
        return self._ks[n]

    def same_11(self, n: int) -> float:
        self._require(n)
        return self._f[n]

    def same_22(self, n: int) -> float:
        self._require(n)
        return self._fs[n]

    def value(self, query: PathOpenQuery) -> float:
        if (query.i, query.j) == (1, 2):
            return self.cross_12(query.n)
        if (query.i, query.j) == (2, 1):
            return self.cross_21(query.n)
        if (query.i, query.j) == (1, 1):
            return self.same_11(query.n)
        return self.same_22(query.n)


def path_open_prob(query: PathOpenQuery, t: TreeParams, law: InitLaw, p: float) -> float:
    """Probability that the geodesic described by the query opens."""
    pair = hitting_pair(t, p)
    return PathOpenTables(law.pgf, pair.alpha, pair.beta, k_max=query.k).value(query)


def bernoulli_path_open(n: int, q: float, a: float, b: float) -> float:
    """Closed form of same_11(n) when the frog count is Bernoulli(q)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
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
    _check_trials(trials)
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
        ty = (i0 + pos + off) % 2
        deg = np.where(ty == 0, degs[0], degs[1])
        alive = rng.random(pos.size) < p
        trial, owner, pos, off, deg = trial[alive], owner[alive], pos[alive], off[alive], deg[alive]
        if not pos.size:
            break
        slot = np.minimum(np.floor(rng.random(pos.size) * deg).astype(np.int64), deg - 1)
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
        arrived = off == 0
        if arrived.any():
            reach[trial[arrived], owner[arrived], pos[arrived]] = True
        keep = off <= radius
        trial, owner, pos, off = trial[keep], owner[keep], pos[keep], off[keep]

    # open-to-the-end recursion, from the far end down to x_0
    open_to = np.zeros((trials, k + 1), dtype=bool)
    open_to[:, k] = True
    for m in range(k - 1, -1, -1):
        acc = reach[:, m, k].copy()
        for l in range(m + 1, k):
            acc |= reach[:, m, l] & ~reach[:, m, l + 1] & open_to[:, l]
        open_to[:, m] = acc

    return _mc_estimate(int(open_to[:, 0].sum()), trials)
