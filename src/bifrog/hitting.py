"""Neighbor-hitting probabilities of the killed walk on the biregular tree.

A walker dies with probability 1 - p before each step and otherwise jumps
to a uniform neighbor.  hitting_pair(t, p) is the pair (alpha, beta):
alpha is the probability that a walker started at an even-level (type 1)
vertex ever sits on a fixed neighbor, beta the same from an odd-level
(type 2) vertex.  The pair solves

    alpha = p/(d1+1) + d1/(d1+1) p alpha beta
    beta  = p/(d2+1) + d2/(d2+1) p alpha beta

and the closed forms used here are the rationalized solutions

    alpha = 2 kappa p / ((d1+1) (kappa + p^2 (d2-d1) + sqrt(D)))
    beta  = 2 kappa p / ((d2+1) (kappa + p^2 (d1-d2) + sqrt(D)))
    D     = kappa^2 - 2 kappa (d1+d2) p^2 + (d2-d1)^2 p^4,

algebraically equal to the textbook quadratic-root expressions but free of
the small-p cancellation (and exact at p = 0 and p = 1).

edge_open_prob gives the probability that a frog placed at one end of a
fixed geodesic of length k ever reaches the far end, with the number of
frogs drawn from an initial law.

Every random stream comes from _stream, the coupled sweep's included, and the
Monte Carlo oracles report an McEstimate built by _mc_estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .laws import InitLaw
from .tree import TreeParams, _check_int, _check_real


class HittingPair(NamedTuple):
    alpha: float
    beta: float


def _check_p(p: float) -> float:
    return _check_real("survival parameter p", p, 0, 1, "[]")


def hitting_pair(t: TreeParams, p: float) -> HittingPair:
    p = _check_p(p)
    d1, d2 = t.d1, t.d2
    k = t.kappa
    disc = k * k - 2.0 * k * (d1 + d2) * p * p + (d2 - d1) ** 2 * p ** 4
    # disc >= 0 on [0,1]: its smaller root in p^2 is kappa/(sqrt(d1)+sqrt(d2))^2 >= 1
    if disc < -1e-12 * k * k:
        raise RuntimeError(f"negative discriminant {disc!r} at {t}, p={p!r}")
    root = math.sqrt(max(disc, 0.0))
    a = 2.0 * k * p / ((d1 + 1) * (k + p * p * (d2 - d1) + root))
    b = 2.0 * k * p / ((d2 + 1) * (k + p * p * (d1 - d2) + root))
    return HittingPair(a, b)


def system_residuals(t: TreeParams, p: float, pair: HittingPair) -> tuple:
    """Defects of the two fixed-point equations at the given pair."""
    p = _check_p(p)
    a, b = pair
    d1, d2 = t.d1, t.d2
    r1 = a - (p / (d1 + 1) + d1 / (d1 + 1) * p * a * b)
    r2 = b - (p / (d2 + 1) + d2 / (d2 + 1) * p * a * b)
    return (r1, r2)


def edge_exponents(i: int, j: int, k: int) -> tuple:
    """Powers (ea, eb) with P[end-to-end reach | one frog] = alpha^ea beta^eb.

    A geodesic of length k from a type-i to a type-j vertex alternates
    vertex types, so i == j forces k even and i != j forces k odd.
    """
    i, j = (_check_int("vertex type", v, 1, 2) for v in (i, j))
    k = _check_int("path length k", k, 1, math.inf)
    if (i == j) != (k % 2 == 0):
        raise ValueError(f"no geodesic of length {k} joins type {i} to type {j}")
    n = (k + 1) // 2
    if i == j:
        return (n, n)
    if i == 1:
        return (n, n - 1)
    return (n - 1, n)


def edge_open_prob(t: TreeParams, law: InitLaw, p: float, i: int, j: int, k: int) -> float:
    """P[some frog placed by the law at a type-i vertex reaches a fixed
    vertex at distance k of type j]."""
    ea, eb = edge_exponents(i, j, k)
    a, b = hitting_pair(t, p)
    return law.cpgf(a ** ea * b ** eb)


def _stream(*words: int) -> np.random.Generator:
    """The Philox stream keyed by words (a seed, a replica, a tag), all >= 0."""
    words = tuple(_check_int("seed", w, 0, math.inf) for w in words)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo proportion over trials with its Wald standard error."""

    prob: float
    stderr: float
    trials: int


def _mc_estimate(hits: int, trials: int) -> McEstimate:
    prob = hits / trials
    stderr = math.sqrt(max(prob * (1.0 - prob), 1e-300) / trials)
    return McEstimate(prob=prob, stderr=stderr, trials=trials)


#: walkers farther than this from their target are retired as misses.  A
#: return from distance r only gets likelier as p grows, so p = 1 bounds the
#: error at every p: (alpha beta)^150 ~ 7e-46 on T(1,2)
_ESCAPE_RADIUS = 300

_CHAIN_STEP_CAP = 10 ** 6


def _distance_chain(rng: np.random.Generator, t: TreeParams, p: float,
                    m: np.ndarray, parity: int, radius: int) -> tuple:
    """Killed walks tracked only by their distance to one target vertex.

    Walker i starts at distance m[i]; a vertex at distance d from the
    target has parity (parity + d) % 2: 0 for type 1, 1 for type 2.  Each
    step, every alive walker survives with probability p (one uniform
    each, in index order), then each survivor steps toward the target with
    probability 1/deg of its vertex and away otherwise (one uniform each,
    in index order).  A walker stops on the target or beyond radius.
    Returns (closest, jumps) per walker: the least distance it reached (0
    where it hit the target) and its number of steps; RuntimeError if a
    walker is still alive after _CHAIN_STEP_CAP steps.
    """
    closest = m.copy()
    jumps = np.zeros(m.size, dtype=np.int64)
    idx = np.arange(m.size, dtype=np.int64)
    steps = 0
    while idx.size:
        if steps == _CHAIN_STEP_CAP:
            raise RuntimeError(f"{idx.size} killed walks still alive after "
                               f"{_CHAIN_STEP_CAP} steps")
        keep = np.flatnonzero(rng.random(idx.size) < p)
        idx, m = idx.take(keep), m.take(keep)
        steps += 1
        if idx.size:
            deg = np.where((parity + m) % 2 == 0, t.d1 + 1, t.d2 + 1)
            m = np.where(rng.random(idx.size) < 1.0 / deg, m - 1, m + 1)
            jumps[idx] = steps
            low = np.flatnonzero(m < closest.take(idx))
            closest[idx.take(low)] = m.take(low)
            stay = np.flatnonzero((m > 0) & (m <= radius))
            idx, m = idx.take(stay), m.take(stay)
    return closest, jumps


def mc_hit_neighbor(t: TreeParams, p: float, start_type: int, trials: int,
                    seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of alpha (start_type 1) or beta (start_type 2).

    Each trial is one walker at distance 1 from the target neighbor, run
    through _distance_chain; it hits where the least distance it reached
    is 0.  Walkers past _ESCAPE_RADIUS are retired as misses; at p = 1 this
    undercounts hits by a one-sided, exponentially small amount (and is
    the only reason the walks end there).
    """
    p = _check_p(p)
    start_type = _check_int("start_type", start_type, 1, 2)
    trials = _check_int("trials", trials, 1, math.inf)
    # the neighbor has the other type: parity start_type - 1 + 1
    closest, _ = _distance_chain(_stream(seed, 0x48495421), t, p,
                                 np.ones(trials, dtype=np.int64), start_type,
                                 _ESCAPE_RADIUS)
    return _mc_estimate(int(np.count_nonzero(closest == 0)), trials)
