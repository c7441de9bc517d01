"""Exact outputs of the four Monte Carlo oracles at small trial counts.

The oracle tests elsewhere compare within four standard errors, which a
changed random stream would still pass.  These values were recorded at the
commit before the oracles shared one stream constructor and one estimate
type, and passed there; they pin every random number the oracles read.
"""

from dataclasses import astuple

import pytest

from bifrog.hitting import mc_hit_neighbor
from bifrog.laws import Bernoulli, Constant, Geometric, Poisson
from bifrog.pathprob import PathOpenQuery, mc_path_open
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
