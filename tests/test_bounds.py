"""Tests for the critical-parameter bounds.

Closed-form bounds are pinned against hand-computed rationals and surds;
the root-based upper bound is checked at the one geometry where it has an
exact value, against its own defining equation, and against the finite-n
approximants that converge to it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bifrog import bounds
from bifrog.bounds import (
    TABLE_REFERENCE,
    TABLE_ROWS,
    NoRootError,
    bounds_report,
    disk_mean_offspring,
    f_value,
    lb_alves,
    lb_biregular,
    spectral_radius,
    table1,
    ub_closed,
    ub_root,
    ub_root_n,
)
from bifrog.laws import Bernoulli, Constant, Poisson
from bifrog.tree import TreeParams


# --- closed-form lower bounds ---------------------------------------------


def test_lb_biregular_hand_values():
    # sqrt(kappa / ((d1(E+1) + 1)(d2(E+1) + 1))) at E = 1
    assert abs(lb_biregular(TreeParams(2, 2), 1.0) - math.sqrt(9 / 25)) < 1e-15
    assert abs(lb_biregular(TreeParams(2, 3), 1.0) - math.sqrt(12 / 35)) < 1e-15
    assert abs(lb_biregular(TreeParams(1, 2), 1.0) - math.sqrt(6 / 15)) < 1e-15


def test_lb_alves_hand_values():
    assert abs(lb_alves(2, 1.0) - 3.0 / 5.0) < 1e-15
    assert abs(lb_alves(3, 1.0) - 4.0 / 7.0) < 1e-15
    assert abs(lb_alves(2, 2.0) - 3.0 / 7.0) < 1e-15


def test_lb_alves_equals_lb_biregular_iff_regular():
    for d in (2, 3, 5):
        t = TreeParams(d, d)
        assert abs(lb_alves(d, 1.0) - lb_biregular(t, 1.0)) < 1e-15
    # off the diagonal the degree-aware bound is strictly sharper
    t = TreeParams(2, 3)
    assert lb_biregular(t, 1.0) > lb_alves(3, 1.0)


def test_lb_biregular_does_not_round_to_zero_at_huge_means():
    # the two-factor denominator overflows near a mean of 1e154; on the
    # regular tree the bound must still equal the single-type one
    assert math.isclose(lb_biregular(TreeParams(2, 2), 1e300), lb_alves(2, 1e300),
                        rel_tol=1e-12)


def test_lb_monotone_in_mean():
    t = TreeParams(2, 3)
    means = [0.5, 1.0, 2.0, 5.0]
    vals = [lb_biregular(t, e) for e in means]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_lb_alves_validation():
    with pytest.raises(ValueError):
        lb_alves(1, 1.0)
    with pytest.raises(ValueError):
        lb_alves(2.5, 1.0)
    with pytest.raises(ValueError):
        lb_alves(2, 0.0)


# --- moment matrix and spectral radius ------------------------------------


def test_moment_matrix_entries():
    # T(2,3), E = 1, p = 1/2: m12 = p 5/3, m21 = p 7/4, radius sqrt(m12 m21)
    t = TreeParams(2, 3)
    assert abs(spectral_radius(t, 1.0, 0.5) - 0.5 * math.sqrt(35 / 12)) < 1e-15


@pytest.mark.parametrize("mean_eta", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("t", [TreeParams(2, 2), TreeParams(2, 3), TreeParams(3, 100)], ids=str)
def test_spectral_radius_is_one_at_lower_bound(t, mean_eta):
    p_star = lb_biregular(t, mean_eta)
    assert abs(spectral_radius(t, mean_eta, p_star) - 1.0) < 1e-12


def test_spectral_radius_linear_in_p():
    t = TreeParams(2, 3)
    r1 = spectral_radius(t, 1.0, 0.3)
    r2 = spectral_radius(t, 1.0, 0.6)
    assert abs(r2 - 2.0 * r1) < 1e-14


# --- criticality gap f and its finite-n versions ---------------------------


def test_f_sign_change_brackets_root():
    t = TreeParams(2, 3)
    root = ub_root(t)
    assert f_value(t, 1.0, root - 1e-6) < 0.0
    assert f_value(t, 1.0, root + 1e-6) > 0.0
    assert abs(f_value(t, 1.0, root)) < 1e-10


def test_f_monotone_on_grid():
    for t in (TreeParams(1, 2), TreeParams(2, 3), TreeParams(3, 100)):
        for q in (0.3, 1.0):
            ps = np.linspace(0.0, 1.0, 50)
            vals = np.array([f_value(t, q, p) for p in ps])
            assert np.all(np.diff(vals) > 0.0)


def test_f_at_zero_is_negative_constant():
    t = TreeParams(2, 3)
    assert abs(f_value(t, 1.0, 0.0) + 1.0 / 6.0) < 1e-15
    assert abs(bounds._gap(t, 1.0, 0.0, 1 / 5) + 1.0 / 6.0) < 1e-15


def test_f_n_converges_to_f_from_below_in_the_limit():
    t = TreeParams(2, 3)
    p, q = 0.7, 1.0
    gaps = [abs(bounds._gap(t, q, p, 1 / n) - f_value(t, q, p)) for n in (5, 20, 80, 320)]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3
    # past the float range 1/n rounds to 0.0, which is the limit itself
    assert bounds._gap(t, q, p, 1 / 10**400) == f_value(t, q, p)


def test_f_n_survives_deep_underflow():
    # the raw n-step path probability underflows double precision long
    # before n = 200 on wide trees; the closed form never forms it
    t = TreeParams(4, 10000)
    val = bounds._gap(t, 1.0, 0.9, 1 / 200)
    assert math.isfinite(val)
    assert val > 0.0


@given(d1=st.integers(1, 10_000), d2=st.integers(1, 10_000),
       q=st.floats(0.0, 1.0, exclude_min=True), n=st.integers(1, 10**6),
       p=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_f_n_never_exceeds_f(d1, d2, q, n, p):
    # f_n is f times (q / (1 + q(1 - alpha)))^{1/n}, a factor at most 1
    t = TreeParams(d1, d2)
    assert bounds._gap(t, q, p, 1 / n) <= f_value(t, q, p)


# --- root-based upper bound ------------------------------------------------


def test_ub_root_exact_on_2_2():
    # on the (2, 2) geometry with one frog per vertex the gap function
    # factors and the root is exactly 3/4
    assert abs(ub_root(TreeParams(2, 2)) - 0.75) < 1e-9
    assert bounds_report(TreeParams(2, 2), Constant(1)).root_iterations > 0


def test_bisection_halves_the_bracket_just_below_root_tol():
    lo, hi = bounds._BRACKET
    assert bounds._BISECT_STEPS == 40
    assert (hi - lo) / 2 ** bounds._BISECT_STEPS <= bounds.ROOT_TOL
    assert (hi - lo) / 2 ** (bounds._BISECT_STEPS - 1) > bounds.ROOT_TOL


def test_ub_root_swap_symmetric():
    for d1, d2 in ((1, 2), (2, 3), (3, 100)):
        r1 = ub_root(TreeParams(d1, d2))
        r2 = ub_root(TreeParams(d2, d1))
        assert abs(r1 - r2) < 1e-10


@given(d1=st.integers(1, 50), d2=st.integers(1, 50),
       q=st.floats(0.5, 1.0, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_ub_root_swap_symmetric_everywhere(d1, d2, q):
    assume((d1, d2) != (1, 1))
    t = TreeParams(d1, d2)
    assert abs(ub_root(t, q) - ub_root(TreeParams(d2, d1), q)) < 1e-10


def test_ub_root_decreases_with_q():
    t = TreeParams(2, 3)
    vals = [ub_root(t, q=q) for q in (0.6, 0.8, 1.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_ub_root_n_decreasing_in_n():
    # finite-n roots shrink toward the limit as the certificate sharpens
    t = TreeParams(2, 3)
    roots = [ub_root_n(t, 1.0, n) for n in (1, 2, 5, 20, 100)]
    assert all(x > y for x, y in zip(roots, roots[1:]))
    assert roots[-1] > ub_root(t) - 1e-6


def test_no_root_for_weak_activation():
    # with rare frogs and a short certificate the gap stays negative on
    # all of (0, 1] and there is no root to find; the message names both
    # ends of the bracket searched exactly
    with pytest.raises(NoRootError, match=r"on \(1e-09, 0\.999999999\):"):
        ub_root_n(TreeParams(2, 2), q=0.2, n=1)


def test_ub_closed_values_and_domain():
    assert abs(ub_closed(TreeParams(2, 2)) - 0.75) < 1e-15
    assert abs(ub_closed(TreeParams(2, 3)) - 0.5 * math.sqrt(2.0)) < 1e-15
    with pytest.raises(ValueError):
        ub_closed(TreeParams(1, 1))


def test_ub_closed_dominates_ub_root():
    for d1, d2 in TABLE_ROWS:
        t = TreeParams(d1, d2)
        assert ub_root(t) <= ub_closed(t) + 1e-12


# --- reference table --------------------------------------------------------


def test_table_matches_reference_to_print_precision():
    for row in table1():
        ref_lb_a, ref_lb, ref_ub = TABLE_REFERENCE[(row.d1, row.d2)]
        assert abs(row.lb_alves - ref_lb_a) < 5e-5
        assert abs(row.lb_biregular - ref_lb) < 5e-5
        assert abs(row.ub_root - ref_ub) < 5e-5


def test_bounds_ordering_everywhere():
    for d1, d2 in TABLE_ROWS:
        t = TreeParams(d1, d2)
        rep = bounds_report(t, Constant(1))
        assert 0.0 < rep.lb_alves <= rep.lb_biregular <= rep.ub_root <= 1.0
        assert rep.ub_closed is not None
        assert rep.ub_root <= rep.ub_closed


def test_bounds_report_fields():
    rep = bounds_report(TreeParams(2, 3), Poisson(1.5))
    assert rep.d1 == 2 and rep.d2 == 3
    assert abs(rep.mean_eta - 1.5) < 1e-15
    assert abs(rep.q - (1.0 - math.exp(-1.5))) < 1e-15
    assert rep.ub_closed is None  # closed form needs q = 1
    assert rep.root_iterations > 0


def test_bounds_report_rejects_1_1():
    with pytest.raises(ValueError, match=r"T_\{1,1\}"):
        bounds_report(TreeParams(1, 1), Constant(1))


# --- disk series ------------------------------------------------------------


def test_disk_series_geometric_identity_for_constant_one():
    # with exactly one frog per vertex P[ball >= k] = p^k and the series
    # telescopes to (D + 1) p / (1 - D p)
    for big_d, p in ((2, 0.2), (2, 0.4), (3, 0.3), (5, 0.15)):
        s = disk_mean_offspring(Constant(1), big_d, p)
        want = (big_d + 1) * p / (1.0 - big_d * p)
        assert abs(s.value - want) < 1e-9
        assert s.value + s.remainder >= want - 1e-12
        assert s.remainder < 1e-6


def test_disk_series_certified_remainder_brackets_truth(monkeypatch):
    # truncating hard at small k_max must leave the truth inside
    # [value, value + remainder]
    law = Poisson(1.0)
    full = disk_mean_offspring(law, 2, 0.3)
    monkeypatch.setattr(bounds, "_DISK_K_MAX", 4)
    crude = disk_mean_offspring(law, 2, 0.3)
    truth = full.value
    assert crude.value <= truth + 1e-12
    assert crude.value + crude.remainder >= truth - 1e-12
    assert crude.remainder > full.remainder


def test_disk_series_subcritical_certificate():
    # below the critical p = 1/(2D + 1) of the one-frog ball process the
    # certified sum drops under one, certifying extinction of the
    # dominating process
    law = Constant(1)
    s = disk_mean_offspring(law, 2, 0.15)
    assert s.value + s.remainder < 1.0
    # and at exactly p = 1/(2D + 1) the series sums to one
    crit = disk_mean_offspring(law, 2, 0.2)
    assert abs(crit.value - 1.0) < 1e-9


def test_disk_series_divergence_guard():
    with pytest.raises(ValueError):
        disk_mean_offspring(Constant(1), 2, 0.5)
    with pytest.raises(ValueError):
        disk_mean_offspring(Constant(1), 3, 1.0 / 3.0)


def test_disk_series_respects_support_max():
    # a Bernoulli vertex holds at most one frog, so its ball is that frog's:
    # P[>= k] = q p^k, series = q (D+1) p / (1 - D p)
    s = disk_mean_offspring(Bernoulli(0.5), 2, 0.3)
    want = 0.5 * 3 * 0.3 / (1.0 - 0.6)
    assert abs(s.value - want) < 1e-9


def test_disk_series_unbounded_law_tail():
    # every mass of these laws lies far past any cut in the frog count; the
    # series is summed directly from each law's closed form of
    # P[ball >= k] = 1 - pgf(1 - p^k)
    big_d, p = 2, 0.1
    closed = {
        Constant(1000): lambda z: -math.expm1(1000 * math.log1p(-z)),
        Poisson(500.0): lambda z: -math.expm1(-500.0 * z),
    }
    for law, ball in closed.items():
        s = disk_mean_offspring(law, big_d, p)
        want = math.fsum((big_d + 1) * big_d ** (k - 1) * ball(p ** k)
                         for k in range(1, 401) if p ** k > 0.0)
        assert s.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert 0.0 <= s.remainder < 1e-200


# --- validation --------------------------------------------------------------


def test_validation_of_q_and_mean():
    t = TreeParams(2, 3)
    with pytest.raises(ValueError):
        f_value(t, 0.0, 0.5)
    with pytest.raises(ValueError):
        f_value(t, 1.5, 0.5)
    with pytest.raises(ValueError):
        spectral_radius(t, -1.0, 0.5)
    with pytest.raises(ValueError):
        lb_biregular(t, 0.0)
