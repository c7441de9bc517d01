"""Tests for the initial-configuration laws.

Every law is checked against brute-force summation of its pmf: the pgf,
mean and p0 must all agree with direct numerics.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifrog.laws import (
    _CONSTANT_K_MAX,
    _POISSON_MU_MAX,
    Bernoulli,
    Constant,
    Geometric,
    Poisson,
    describe_law,
    parse_law,
)

ALL_LAWS = [
    Constant(1),
    Constant(3),
    Bernoulli(0.3),
    Bernoulli(1.0),
    Poisson(0.7),
    Poisson(2.5),
    Geometric(0.2),
    Geometric(0.8),
]

PMF_CUTOFF = 400


def _pmf_vector(law, n=PMF_CUTOFF):
    return np.array([law.pmf(k) for k in range(n)])


@pytest.mark.parametrize("law", ALL_LAWS, ids=describe_law)
def test_pmf_sums_to_one(law):
    assert abs(_pmf_vector(law).sum() - 1.0) < 1e-12


@pytest.mark.parametrize("law", ALL_LAWS, ids=describe_law)
def test_pgf_matches_pmf_sum(law):
    pk = _pmf_vector(law)
    ks = np.arange(pk.size)
    for s in (0.0, 0.25, 0.5, 0.9, 1.0):
        direct = float(np.sum(pk * s**ks))
        assert abs(law.pgf(s) - direct) < 1e-12


@pytest.mark.parametrize("law", ALL_LAWS, ids=describe_law)
def test_mean_and_p0_match_pmf(law):
    pk = _pmf_vector(law)
    ks = np.arange(pk.size)
    assert abs(law.mean - float(np.sum(pk * ks))) < 1e-10
    assert abs(law.p0 - pk[0]) < 1e-15
    assert abs(law.q - (1.0 - pk[0])) < 1e-15


@pytest.mark.parametrize("law", ALL_LAWS, ids=describe_law)
def test_sample_frequencies_match_pmf(law):
    rng = np.random.default_rng(7)
    draws = law.sample(rng, 200_000)
    assert draws.dtype.kind == "i"
    assert draws.min() >= 0
    emp_mean = draws.mean()
    # mean of 2e5 draws; all laws here have variance < 10
    assert abs(emp_mean - law.mean) < 0.05
    for k in range(3):
        emp = np.mean(draws == k)
        assert abs(emp - law.pmf(k)) < 0.01


@pytest.mark.parametrize("law", ALL_LAWS, ids=describe_law)
def test_cpgf_is_one_minus_pgf_without_cancellation(law):
    # where 1 - pgf(1 - z) loses nothing to rounding the two agree, at z = 1
    # it is q, and at tiny z it is mean * z to first order
    for z in (1e-3, 0.1, 0.5, 0.9):
        assert abs(law.cpgf(z) - (1.0 - law.pgf(1.0 - z))) < 1e-14
    assert law.cpgf(0.0) == 0.0
    assert abs(law.cpgf(1.0) - law.q) < 1e-15
    for z in (1e-300, 1e-100, 1e-17):
        assert law.cpgf(z) == pytest.approx(law.mean * z, rel=1e-12)
        assert 1.0 - law.pgf(1.0 - z) == 0.0


def test_pgf_is_monotone_and_convex_on_unit_interval():
    s = np.linspace(0.0, 1.0, 41)
    for law in ALL_LAWS:
        vals = np.array([law.pgf(x) for x in s])
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(np.diff(vals, 2) >= -1e-12)
        assert abs(vals[-1] - 1.0) < 1e-12


@given(st.floats(0.01, 0.99), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_bernoulli_pgf_closed_form(q, s):
    law = Bernoulli(q)
    assert abs(law.pgf(s) - (1.0 - q + q * s)) < 1e-14


@given(st.floats(0.01, 0.95), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_geometric_pgf_closed_form(r, s):
    law = Geometric(r)
    assert abs(law.pgf(s) - (1.0 - r) / (1.0 - r * s)) < 1e-12


def test_geometric_mean_identity():
    for r in (0.1, 0.5, 0.9):
        assert abs(Geometric(r).mean - r / (1.0 - r)) < 1e-12


def test_constant_support_and_pgf():
    law = Constant(2)
    assert law.pmf(2) == 1.0
    assert law.pmf(1) == 0.0
    assert law.pgf(0.5) == 0.25
    assert law.q == 1.0
    assert law.support_max == 2


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Constant(0)
    with pytest.raises(ValueError):
        Bernoulli(0.0)
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        Geometric(1.0)
    with pytest.raises(ValueError):
        Geometric(-0.1)


def test_parameter_caps_are_the_samplers_own():
    rng = np.random.default_rng(0)
    top = Poisson(_POISSON_MU_MAX)
    assert top.sample(rng, 2).dtype == np.int64 and top.draw(rng) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(math.nextafter(_POISSON_MU_MAX, math.inf))
    assert _CONSTANT_K_MAX == np.iinfo(np.int64).max
    assert Constant(_CONSTANT_K_MAX).sample(rng, 2).tolist() == [_CONSTANT_K_MAX] * 2


def test_parse_law_round_trip():
    assert isinstance(parse_law("const:2"), Constant)
    assert isinstance(parse_law("bernoulli:0.5"), Bernoulli)
    assert isinstance(parse_law("poisson:1.5"), Poisson)
    assert isinstance(parse_law("geometric:0.3"), Geometric)
    assert parse_law("const:2").k == 2
    assert abs(parse_law("poisson:1.5").mu - 1.5) < 1e-15


def test_parse_law_rejects_garbage():
    for text in ("", "const", "const:", "const:x", "gamma:1", "poisson:-1"):
        with pytest.raises(ValueError):
            parse_law(text)


def test_describe_law_is_informative():
    assert "const" in describe_law(Constant(1))
    assert "poisson" in describe_law(Poisson(1.0))


#: every law, with its parameter anywhere in a wide part of its domain
_ANY_LAW = st.one_of(
    st.integers(1, 10**6).map(Constant),
    st.floats(0.0, 1.0, exclude_min=True).map(Bernoulli),
    st.floats(0.0, 1e6, exclude_min=True).map(Poisson),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(Geometric),
)


@given(law=_ANY_LAW, seed=st.integers(0, 2**64 - 1))
@settings(max_examples=300, deadline=None)
def test_draw_reads_the_stream_sample_reads(law, seed):
    g1, g2 = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    x = law.draw(g1)
    assert type(x) is int and x == int(law.sample(g2, 1)[0])
    # the next read agrees too, so both left the stream at the same place
    assert g1.random() == g2.random()


@given(law=_ANY_LAW | st.floats(0.0, _POISSON_MU_MAX, exclude_min=True).map(Poisson))
@example(law=Poisson(1.23456789))
@example(law=Bernoulli(1.0))
@settings(max_examples=300, deadline=None)
def test_describe_law_round_trips(law):
    assert parse_law(describe_law(law)) == law
