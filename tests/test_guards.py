"""Checks that must survive `python -O`.

The package states its invariants and input checks as explicit raises, so
no `assert` statement may appear in it, and each input check below must
raise ValueError.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import pytest

import bifrog
from bifrog.bounds import disk_mean_offspring, f_n_value, ub_root
from bifrog.hitting import hitting_pair, mc_hit_neighbor
from bifrog.laws import Constant, Poisson
from bifrog.pathprob import (PathOpenQuery, PathOpenTables, bernoulli_path_open,
                             mc_path_open)
from bifrog.sim import gw_progeny_masses, mc_range_vs_disk
from bifrog.tree import TreeParams

T23 = TreeParams(2, 3)
LAW = Poisson(1.0)


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(bifrog.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_hitting_pair_raises_on_a_negative_discriminant():
    # no tree has kappa = 1 at d1 = d2 = 2; the check must still fire
    fake = SimpleNamespace(d1=2, d2=2, kappa=1)
    with pytest.raises(RuntimeError, match="discriminant"):
        hitting_pair(fake, 0.5)


@pytest.mark.parametrize("call", [
    lambda: mc_range_vs_disk(T23, LAW, 0.5, k=0, trials=10),
    lambda: mc_range_vs_disk(T23, LAW, 0.5, k=1, trials=0),
    lambda: mc_range_vs_disk(T23, LAW, 0.5, k=1, trials=10, start_type=3),
    lambda: mc_hit_neighbor(T23, 0.5, start_type=0, trials=10),
    lambda: mc_hit_neighbor(T23, 0.5, start_type=1, trials=0),
    lambda: mc_path_open(PathOpenQuery(1, 2, 1), T23, LAW, 0.5, trials=0),
    lambda: gw_progeny_masses(T23, LAW, 0.5, parent_type=3),
    lambda: f_n_value(T23, 1.0, 0, 0.5),
    lambda: ub_root(T23, tol=0.0),
    lambda: disk_mean_offspring(LAW, 0, 0.1),
    lambda: bernoulli_path_open(0, 0.5, 0.3, 0.3),
    lambda: bernoulli_path_open(1, 0.0, 0.3, 0.3),
    lambda: PathOpenTables(Constant(1).pgf, 0.3, 0.3, k_max=8).same_11(5),
], ids=[
    "range-k0", "range-trials0", "range-type3", "hit-type0", "hit-trials0",
    "path-trials0", "gw-type3", "f_n-n0", "ub_root-tol0", "disk-big_d0",
    "bernoulli-n0", "bernoulli-q0", "tables-past-k_max",
])
def test_input_checks_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
