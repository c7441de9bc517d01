"""Tests for pair hitting probabilities.

The closed forms are validated three independent ways: by iterating the
defining fixed-point system from zero (which converges to the minimal
solution), by exact endpoint values at p in {0, 1}, and by direct Monte
Carlo of the killed walk.
"""

import mpmath
import numpy as np
import pytest

from bifrog import hitting
from bifrog.hitting import (
    edge_exponents,
    edge_open_prob,
    hitting_pair,
    mc_hit_neighbor,
    system_residuals,
)
from bifrog.laws import Bernoulli, Constant, Geometric, Poisson
from bifrog.pathprob import PathOpenQuery, mc_path_open, path_open_prob
from bifrog.sim import mc_range_vs_disk
from bifrog.tree import TreeParams
from mp_laws import mp_pgf

TREES = [TreeParams(1, 2), TreeParams(2, 2), TreeParams(2, 3), TreeParams(3, 100)]
P_GRID = [0.0, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0]


def _iterate_system(t, p, tol=1e-14, max_iter=200_000):
    """Minimal fixed point by monotone iteration from (0, 0)."""
    a = b = 0.0
    for _ in range(max_iter):
        a_new = p / (t.d1 + 1) + t.d1 / (t.d1 + 1) * p * a * b
        b_new = p / (t.d2 + 1) + t.d2 / (t.d2 + 1) * p * a * b
        if abs(a_new - a) < tol and abs(b_new - b) < tol:
            return a_new, b_new
        a, b = a_new, b_new
    return a, b


@pytest.mark.parametrize("t", TREES, ids=str)
@pytest.mark.parametrize("p", P_GRID)
def test_closed_form_matches_fixed_point_iteration(t, p):
    a, b = hitting_pair(t, p)
    a_it, b_it = _iterate_system(t, p)
    assert abs(a - a_it) < 1e-10
    assert abs(b - b_it) < 1e-10


@pytest.mark.parametrize("t", TREES, ids=str)
@pytest.mark.parametrize("p", P_GRID)
def test_residuals_vanish(t, p):
    ra, rb = system_residuals(t, p, hitting_pair(t, p))
    assert abs(ra) < 1e-12
    assert abs(rb) < 1e-12


@pytest.mark.parametrize("t", TREES, ids=str)
def test_endpoints_are_exact(t):
    assert hitting_pair(t, 0.0) == (0.0, 0.0)
    a1, b1 = hitting_pair(t, 1.0)
    assert abs(a1 - (t.d2 + 1) / (t.d2 * (t.d1 + 1))) < 1e-12
    assert abs(b1 - (t.d1 + 1) / (t.d1 * (t.d2 + 1))) < 1e-12


def test_small_p_is_linear_not_cancelled():
    # the naive root expression loses all digits here; the stable form
    # must reproduce the leading-order behavior a ~ p / (d1 + 1)
    t = TreeParams(2, 3)
    for p in (1e-9, 1e-6, 1e-3):
        a, b = hitting_pair(t, p)
        assert abs(a / p - 1.0 / (t.d1 + 1)) < 1e-5
        assert abs(b / p - 1.0 / (t.d2 + 1)) < 1e-5
        assert a > 0.0 and b > 0.0


@pytest.mark.parametrize("t", TREES, ids=str)
def test_monotone_and_bounded(t):
    ps = np.linspace(0.0, 1.0, 101)
    avals, bvals = np.array([hitting_pair(t, p) for p in ps]).T
    assert np.all(np.diff(avals) > -1e-15)
    assert np.all(np.diff(bvals) > -1e-15)
    assert np.all((avals >= 0.0) & (avals <= 1.0))
    assert np.all((bvals >= 0.0) & (bvals <= 1.0))


def test_swap_symmetry():
    t = TreeParams(2, 5)
    for p in (0.2, 0.6, 0.95):
        a, b = hitting_pair(t, p)
        a_s, b_s = hitting_pair(TreeParams(t.d2, t.d1), p)
        assert abs(a - b_s) < 1e-15
        assert abs(b - a_s) < 1e-15


def test_p_out_of_range_rejected():
    t = TreeParams(2, 2)
    for p in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            hitting_pair(t, p)


def _chain_exponents(i, k):
    """Per-edge product along a path: count alternating factor types."""
    ea = eb = 0
    cur = i
    for _ in range(k):
        if cur == 1:
            ea += 1
        else:
            eb += 1
        cur = 3 - cur
    return ea, eb


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("k", range(1, 10))
def test_edge_exponents_match_alternating_chain(i, k):
    j = i if k % 2 == 0 else 3 - i
    assert edge_exponents(i, j, k) == _chain_exponents(i, k)


def test_edge_exponents_reject_parity_mismatch():
    with pytest.raises(ValueError):
        edge_exponents(1, 1, 3)
    with pytest.raises(ValueError):
        edge_exponents(1, 2, 2)
    with pytest.raises(ValueError):
        edge_exponents(1, 2, 0)
    with pytest.raises(ValueError):
        edge_exponents(3, 1, 1)


def test_hit_probability_factorizes_along_path():
    # distance 2n + 1 from type 1 splits as n round trips plus one edge
    t = TreeParams(2, 3)
    p = 0.8
    a, b = hitting_pair(t, p)
    for n in range(1, 4):
        ea, eb = edge_exponents(1, 2, 2 * n + 1)
        assert abs(a**ea * b**eb - (a * b) ** n * a) < 1e-15


def test_edge_open_prob_definition():
    t = TreeParams(2, 3)
    p = 0.7
    a, b = hitting_pair(t, p)
    for law in (Constant(2), Bernoulli(0.4), Poisson(1.5)):
        for (i, j, k) in ((1, 2, 1), (2, 1, 3), (1, 1, 4)):
            ea, eb = edge_exponents(i, j, k)
            want = 1.0 - law.pgf(1.0 - a**ea * b**eb)
            got = edge_open_prob(t, law, p, i, j, k)
            assert abs(got - want) < 1e-14


@pytest.mark.parametrize("law", [Constant(1), Constant(3), Bernoulli(0.4), Poisson(1.0),
                                 Geometric(0.5)], ids=repr)
def test_edge_open_prob_keeps_relative_precision(law):
    # 1 - pgf(1 - z) in floats is 0.0 below z ~ 1.1e-16, which k = 20 at
    # p = 0.5 already passes; the reference works at enough digits for z
    t = TreeParams(2, 3)
    for p in (0.5, 0.9):
        a, b = hitting_pair(t, p)
        for k in range(1, 201):
            for i in (1, 2):
                j = i if k % 2 == 0 else 3 - i
                ea, eb = edge_exponents(i, j, k)
                z = mpmath.mpf(a) ** ea * mpmath.mpf(b) ** eb
                with mpmath.workdps(40 - int(mpmath.log10(z))):
                    want = 1 - mp_pgf(law, 1 - z)
                    got = edge_open_prob(t, law, p, i, j, k)
                    assert abs(got - want) <= 1e-12 * want, (p, k, i, j)
    assert edge_open_prob(t, Poisson(1.0), 0.5, 1, 1, 20) == pytest.approx(4.78e-17, rel=1e-3)


def test_edge_open_prob_monotone_in_distance():
    t = TreeParams(2, 2)
    law = Poisson(1.0)
    vals = [edge_open_prob(t, law, 0.9, 1, 1 + (k % 2), k) for k in range(1, 8)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_mc_hit_neighbor_agrees_with_closed_form():
    t = TreeParams(2, 3)
    for p, start in ((0.6, 1), (0.85, 2)):
        est = mc_hit_neighbor(t, p, start_type=start, trials=40_000, seed=11)
        ref = hitting_pair(t, p)[start - 1]
        assert abs(est.prob - ref) < 4.0 * max(est.stderr, 1e-6)


def test_mc_hit_neighbor_p_one_hits_surely_for_d1():
    # with d1 = 1 every even vertex has degree 2 and the immortal walk
    # on the half line visits its neighbor with probability bounded away
    # from alpha < 1 only through escape; the estimate must stay within
    # the documented one-sided censoring of the escape radius
    t = TreeParams(2, 2)
    est = mc_hit_neighbor(t, 1.0, start_type=1, trials=20_000, seed=3)
    assert abs(est.prob - 0.5) < 4.0 * max(est.stderr, 1e-6) + 1e-3


def test_distance_chain_oracles_end_quickly_near_p_one():
    # the escape radius is its p = 1 value at every p, so a walk that almost
    # never dies is retired within a few hundred steps rather than millions
    t, p, law = TreeParams(2, 2), 0.99999, Constant(1)
    est = mc_hit_neighbor(t, p, start_type=1, trials=2_000, seed=1)
    assert abs(est.prob - hitting_pair(t, p).alpha) < 4.0 * est.stderr
    query = PathOpenQuery(1, 1, 2)
    est = mc_path_open(query, t, law, p, trials=1_000, seed=1)
    assert abs(est.prob - path_open_prob(query, t, law, p)) < 4.0 * est.stderr
    rep = mc_range_vs_disk(t, law, p, k=2, trials=1_000, seed=1)
    assert rep.range_ref == edge_open_prob(t, law, p, 1, 1, 2)
    assert abs(rep.range_prob - rep.range_ref) < 4.0 * rep.range_se


def test_distance_chain_raises_past_its_step_cap(monkeypatch):
    # all three distance-chain oracles share the kernel and its cap
    monkeypatch.setattr(hitting, "_CHAIN_STEP_CAP", 3)
    t = TreeParams(2, 3)
    with pytest.raises(RuntimeError, match="still alive"):
        mc_hit_neighbor(t, 0.9, start_type=1, trials=1_000, seed=1)
    with pytest.raises(RuntimeError, match="still alive"):
        mc_range_vs_disk(t, Constant(1), 0.9, k=3, trials=1_000, seed=1)
    with pytest.raises(RuntimeError, match="still alive"):
        mc_path_open(PathOpenQuery(1, 2, 3), t, Constant(1), 0.9, trials=1_000, seed=1)
