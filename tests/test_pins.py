"""Exact outputs of the Monte Carlo oracles, the path-open tables and the
laws' zero mass.

The oracle tests elsewhere compare within four standard errors, which a
changed random stream would still pass.  These values were recorded at the
commit before the oracles shared one stream constructor and one estimate
type, and passed there; they pin every random number the oracles read.

The path-open tests elsewhere compare within 1e-12 or 1e-15, which a
reordered sum would still pass.  The table digests and the zero masses were
recorded at the commit before the path-open recursion was written once for
both orientations of a geodesic and before P[eta = 0] was read off the pmf,
and passed there.
"""

import hashlib
from dataclasses import astuple

import pytest

from bifrog.hitting import mc_hit_neighbor
from bifrog.laws import Bernoulli, Constant, Geometric, Poisson
from bifrog.pathprob import PathOpenQuery, PathOpenTables, mc_path_open
from bifrog.sim import mc_range_vs_disk, run_multitype_gw
from bifrog.tree import TreeParams

T12, T22, T23 = TreeParams(1, 2), TreeParams(2, 2), TreeParams(2, 3)


def _est(e):
    return (e.prob, e.stderr, e.trials)


@pytest.mark.parametrize("call, expected", [
    (lambda: _est(mc_hit_neighbor(T23, 0.6, 1, 400, seed=5)),
     (0.2475, 0.021577983571223702, 400)),
    (lambda: _est(mc_hit_neighbor(T22, 0.9, 2, 300, seed=7)),
     (0.39, 0.028160255680657446, 300)),
    (lambda: _est(mc_hit_neighbor(T12, 1.0, 1, 50, seed=0)),
     (0.86, 0.04907137658554119, 50)),
    (lambda: _est(mc_path_open(PathOpenQuery(1, 1, 4), T23, Poisson(1.0), 0.7, 300,
                               seed=3)),
     (0.01, 0.005744562646538029, 300)),
    (lambda: _est(mc_path_open(PathOpenQuery(2, 1, 3), T22, Bernoulli(0.6), 0.85, 200,
                               seed=4)),
     (0.03, 0.012062338081814818, 200)),
    (lambda: astuple(mc_range_vs_disk(T23, Poisson(1.5), 0.8, 3, 300, seed=2, start_type=2)),
     (300, 3, 0.03666666666666667, 0.010850840554571832, 0.027268486932130576,
      0.5033333333333333, 0.02886687195205425, 0.5360599789083533)),
    (lambda: astuple(mc_range_vs_disk(T22, Geometric(0.5), 0.8, 2, 200, seed=9, start_type=1)),
     (200, 2, 0.12, 0.022978250586152115, 0.09391521363705069,
      0.43, 0.03500714212842859, 0.3902439024390244)),
    (lambda: astuple(run_multitype_gw(T22, Constant(1), 0.55, seed=1, replica_index=1)),
     (True, 4, [(0, 4), (4, 0), (0, 2), (1, 0), (0, 0)])),
    (lambda: astuple(run_multitype_gw(T22, Poisson(1.0), 0.5, seed=1, replica_index=2)),
     (True, 13, [(0, 7), (9, 0), (0, 17), (20, 0), (0, 19), (9, 0), (0, 6),
                 (10, 0), (0, 12), (6, 0), (0, 6), (2, 0), (0, 1), (0, 0)])),
], ids=["hit-T23", "hit-T22", "hit-T12-p1", "path-poisson", "path-bernoulli",
        "range-poisson", "range-geometric", "gw-const", "gw-poisson"])
def test_oracle_outputs_are_pinned(call, expected):
    assert call() == expected


@pytest.mark.parametrize("law, a, b, expected", [
    (Constant(2), 0.0, 0.45, "7fcfc09c03506154"),
    (Constant(2), 0.62, 0.35, "07c72826240201f0"),
    (Constant(2), 0.55, 1.0, "8d83bdee90c286e5"),
    (Constant(2), 1.0, 0.3, "17d52adb17165a24"),
    (Bernoulli(0.6), 0.0, 0.45, "499fd027d739e249"),
    (Bernoulli(0.6), 0.62, 0.35, "30e2871b563bd022"),
    (Bernoulli(0.6), 0.55, 1.0, "ee0d982e462321a7"),
    (Bernoulli(0.6), 1.0, 0.3, "f5a911ce4dfc43d5"),
    (Poisson(1.3), 0.0, 0.45, "a6aaf27293b5313c"),
    (Poisson(1.3), 0.62, 0.35, "5ca8335f83bec712"),
    (Poisson(1.3), 0.55, 1.0, "ce7e718b33525925"),
    (Poisson(1.3), 1.0, 0.3, "c0eaaf878f84ff43"),
    (Geometric(0.45), 0.0, 0.45, "3adb16b8df095eea"),
    (Geometric(0.45), 0.62, 0.35, "7aa2de25fe701a80"),
    (Geometric(0.45), 0.55, 1.0, "d91736cfe6582640"),
    (Geometric(0.45), 1.0, 0.3, "c6164df32157b41d"),
])
def test_path_open_tables_are_pinned(law, a, b, expected):
    # the four families (1,1), (1,2), (2,1), (2,2) at levels n = 1..12, each
    # value written exactly by float.hex; the digest is the first 16 hex
    # digits of the SHA-256 of those 48 words joined by spaces
    tables = PathOpenTables(law.pgf, a, b, k_max=24)
    words = [tables.value(PathOpenQuery(i, j, 2 * n - (i != j))).hex()
             for i in (1, 2) for j in (1, 2) for n in range(1, 13)]
    assert hashlib.sha256(" ".join(words).encode()).hexdigest()[:16] == expected


@pytest.mark.parametrize("law, p0, q", [
    (Constant(2), 0.0, 1.0),
    (Bernoulli(0.6), 0.4, 0.6),
    (Poisson(1.3), 0.2725317930340126, 0.7274682069659875),
    (Geometric(0.45), 0.55, 0.44999999999999996),
])
def test_zero_mass_and_activation_probability_are_pinned(law, p0, q):
    assert (law.p0, law.q) == (p0, q)
