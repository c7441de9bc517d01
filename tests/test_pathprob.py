"""Tests for path-open probabilities.

The workhorse check plays the general recursion against the independent
Bernoulli closed form on a grid of activation probabilities and hitting
pairs, in relative terms down to levels where the hitting products are far
below machine epsilon.  For other laws the same recursion run on a
120-digit cpgf is the reference.  A direct Monte Carlo of the multi-frog
path event provides a model-level oracle for non-Bernoulli laws.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrog.hitting import hitting_pair
from bifrog.laws import Bernoulli, Constant, Geometric, Poisson
from bifrog.pathprob import (
    PathOpenQuery,
    PathOpenTables,
    bernoulli_path_open,
    mc_path_open,
    path_open_prob,
)
from bifrog.tree import TreeParams
from mp_laws import mp_pgf

Q_GRID = [0.1, 0.3, 0.5, 0.8, 1.0]
AB_GRID = [(a, b) for a in (0.0, 0.2, 0.45, 0.6, 0.75) for b in (0.0, 0.25, 0.5, 0.65, 0.8)]


def test_query_validation():
    PathOpenQuery(1, 2, 1)
    PathOpenQuery(2, 2, 6)
    with pytest.raises(ValueError):
        PathOpenQuery(1, 1, 3)
    with pytest.raises(ValueError):
        PathOpenQuery(1, 2, 4)
    with pytest.raises(ValueError):
        PathOpenQuery(1, 2, 0)
    with pytest.raises(ValueError):
        PathOpenQuery(0, 2, 1)


def test_query_level_index():
    assert PathOpenQuery(1, 2, 1).n == 1
    assert PathOpenQuery(1, 1, 2).n == 1
    assert PathOpenQuery(2, 1, 5).n == 3
    assert PathOpenQuery(2, 2, 6).n == 3


@pytest.mark.parametrize("q", Q_GRID)
def test_recursion_matches_bernoulli_closed_form(q):
    law = Bernoulli(q)
    for a, b in AB_GRID:
        tables = PathOpenTables(law.cpgf, a, b, k_max=64)
        for n in range(1, 33):
            got = tables.same_11(n)
            want = bernoulli_path_open(n, q, a, b)
            # relative, so a zero closed form (a or b is 0) must be met exactly
            assert abs(got - want) <= 1e-12 * want, (q, a, b, n)


@pytest.mark.parametrize("law", [Constant(2), Bernoulli(0.6), Poisson(1.3), Geometric(0.45)],
                         ids=repr)
def test_tables_keep_relative_precision_against_a_high_precision_run(law):
    # the same recursion on the same float hitting products, with every
    # cpgf value and every sum taken at 120 digits
    for a, b in ((0.62, 0.35), (0.5, 0.5), (0.3, 0.2)):
        tables = PathOpenTables(law.cpgf, a, b, k_max=64)
        with mpmath.workdps(120):
            ref = PathOpenTables(lambda z: 1 - mp_pgf(law, 1 - mpmath.mpf(z)), a, b, k_max=64)
            for i in (1, 2):
                for j in (1, 2):
                    for n in range(1, 33):
                        query = PathOpenQuery(i, j, 2 * n - (i != j))
                        want = ref.value(query)
                        got = tables.value(query)
                        assert abs(got - want) <= 1e-13 * want, (a, b, query)


def test_bernoulli_one_step_recurrence():
    # the closed form satisfies F_{n+1} = ab (1 + q(1-a)) (1 + q(1-b)) F_n
    for q in (0.25, 0.7, 1.0):
        for a, b in ((0.3, 0.5), (0.6, 0.4)):
            ratio = a * b * (1.0 + q * (1.0 - a)) * (1.0 + q * (1.0 - b))
            for n in range(1, 8):
                lhs = bernoulli_path_open(n + 1, q, a, b)
                rhs = ratio * bernoulli_path_open(n, q, a, b)
                assert abs(lhs - rhs) < 1e-15


def test_level_one_values_match_direct_decomposition():
    # a single edge needs only the start vertex's frogs; a length-2 path
    # opens when the start covers both edges, or covers just the first
    # and the middle vertex's frogs finish the second
    law = Poisson(1.2)
    phi = law.pgf
    a, b = 0.55, 0.4
    tables = PathOpenTables(law.cpgf, a, b, k_max=2)
    assert abs(tables.value(PathOpenQuery(1, 2, 1)) - (1.0 - phi(1.0 - a))) < 1e-15
    assert abs(tables.value(PathOpenQuery(2, 1, 1)) - (1.0 - phi(1.0 - b))) < 1e-15
    want_11 = (1.0 - phi(1.0 - a * b)) + (phi(1.0 - a * b) - phi(1.0 - a)) * (1.0 - phi(1.0 - b))
    want_22 = (1.0 - phi(1.0 - a * b)) + (phi(1.0 - a * b) - phi(1.0 - b)) * (1.0 - phi(1.0 - a))
    assert abs(tables.same_11(1) - want_11) < 1e-15
    assert abs(tables.value(PathOpenQuery(2, 2, 2)) - want_22) < 1e-15


def test_swapping_a_b_exchanges_families():
    law = Geometric(0.45)
    a, b = 0.62, 0.35
    fwd = PathOpenTables(law.cpgf, a, b, k_max=20)
    rev = PathOpenTables(law.cpgf, b, a, k_max=20)
    for n in range(1, 10):
        k = 2 * n - 1
        assert fwd.value(PathOpenQuery(1, 2, k)) == rev.value(PathOpenQuery(2, 1, k))
        assert fwd.same_11(n) == rev.value(PathOpenQuery(2, 2, k + 1))


def test_values_are_probabilities_and_decrease_with_length():
    for law in (Constant(1), Poisson(0.8), Geometric(0.3)):
        tables = PathOpenTables(law.cpgf, 0.7, 0.6, k_max=40)
        for i, j in ((1, 2), (2, 1), (1, 1), (2, 2)):
            vals = [tables.value(PathOpenQuery(i, j, 2 * n - (i != j))) for n in range(1, 20)]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


def test_path_open_at_least_product_of_edge_terms():
    # opening every edge from its own endpoint's frogs is one way (not the
    # only way) to open the path, so the full value dominates the product
    # of single-edge openings along the geodesic
    law = Poisson(1.0)
    a, b = 0.6, 0.5
    tables = PathOpenTables(law.cpgf, a, b, k_max=13)
    edge_a = 1.0 - law.pgf(1.0 - a)
    edge_b = 1.0 - law.pgf(1.0 - b)
    for n in range(1, 8):
        lower = edge_a**n * edge_b ** (n - 1) if n > 1 else edge_a
        assert tables.value(PathOpenQuery(1, 2, 2 * n - 1)) >= lower - 1e-15


def test_path_open_prob_monotone_in_p():
    t = TreeParams(2, 3)
    law = Poisson(1.0)
    q = PathOpenQuery(1, 2, 5)
    ps = np.linspace(0.05, 1.0, 20)
    vals = [path_open_prob(q, t, law, p) for p in ps]
    assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


_LAWS = st.sampled_from([Constant(1), Constant(3), Bernoulli(0.4), Poisson(1.0),
                         Poisson(2.5), Geometric(0.5)])


@st.composite
def _queries(draw):
    """A geodesic query: i != j forces an odd length, i == j an even one."""
    i, j, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 16))
    return PathOpenQuery(i, j, 2 * n - (i != j))


@given(query=_queries(), d1=st.integers(1, 8), d2=st.integers(1, 8), law=_LAWS,
       p=st.floats(0.0, 1.0), gap=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_path_open_prob_nondecreasing_in_p(query, d1, d2, law, p, gap):
    t = TreeParams(d1, d2)
    hi = p + gap * (1.0 - p)
    assert path_open_prob(query, t, law, p) <= path_open_prob(query, t, law, hi) + 1e-14


def test_tables_reject_bad_hitting_values():
    with pytest.raises(ValueError):
        PathOpenTables(Constant(1).cpgf, -0.1, 0.5, k_max=2)
    with pytest.raises(ValueError):
        PathOpenTables(Constant(1).cpgf, 0.5, 1.2, k_max=2)


def test_bernoulli_helper_matches_general_recursion_at_tree():
    t = TreeParams(2, 3)
    for p in (0.4, 0.8):
        for q in (0.35, 1.0):
            law = Bernoulli(q)
            for n in (1, 3, 6):
                want = path_open_prob(PathOpenQuery(1, 1, 2 * n), t, law, p)
                got = bernoulli_path_open(n, q, *hitting_pair(t, p))
                assert abs(got - want) < 1e-12


def test_degenerate_hitting_pairs():
    law = Poisson(1.0)
    dead = PathOpenTables(law.cpgf, 0.0, 0.0, k_max=8)
    for n in range(1, 5):
        assert dead.value(PathOpenQuery(1, 2, 2 * n - 1)) == 0.0
        assert dead.same_11(n) == 0.0
    full = PathOpenTables(Constant(1).cpgf, 1.0, 1.0, k_max=8)
    for n in range(1, 5):
        assert abs(full.value(PathOpenQuery(1, 2, 2 * n - 1)) - 1.0) < 1e-15
        assert abs(full.value(PathOpenQuery(2, 2, 2 * n)) - 1.0) < 1e-15


@pytest.mark.parametrize("ijk", [(1, 2, 3), (2, 1, 3), (1, 1, 4), (2, 2, 4)])
def test_mc_path_open_agrees_with_recursion(ijk):
    t = TreeParams(2, 3)
    query = PathOpenQuery(*ijk)
    for law in (Constant(1), Poisson(1.0)):
        est = mc_path_open(query, t, law, 0.7, trials=30_000, seed=17)
        ref = path_open_prob(query, t, law, 0.7)
        assert abs(est.prob - ref) < 4.0 * max(est.stderr, 1e-6)


@pytest.mark.parametrize("d1, d2, law, p, ijk", [
    (1, 2, Poisson(1.5), 0.9, (2, 1, 11)),
    (1, 2, Geometric(0.5), 0.95, (1, 1, 12)),
    (3, 100, Poisson(1.5), 0.95, (2, 1, 11)),
    (3, 100, Geometric(0.5), 0.8, (2, 2, 12)),
], ids=["T12-poisson-k11", "T12-geometric-k12", "T3_100-poisson-k11",
        "T3_100-geometric-k12"])
def test_mc_path_open_agrees_with_recursion_on_deep_paths(d1, d2, law, p, ijk):
    # a cascade over many owners, through degree-2 vertices on T(1,2) and
    # degree-101 ones on T(3,100); there the path opens with probability
    # below 1e-10, so the check is that no cascade opens it falsely
    t, query = TreeParams(d1, d2), PathOpenQuery(*ijk)
    est = mc_path_open(query, t, law, p, trials=20_000, seed=23)
    ref = path_open_prob(query, t, law, p)
    assert abs(est.prob - ref) < 4.0 * max(est.stderr, 1e-6)


def test_mc_path_open_at_p_zero_opens_nothing():
    est = mc_path_open(PathOpenQuery(1, 2, 3), TreeParams(2, 3), Constant(2), 0.0,
                       trials=200, seed=1)
    assert est.prob == 0.0
