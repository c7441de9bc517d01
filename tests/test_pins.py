"""Exact outputs of the Monte Carlo oracles, the path-open tables, the
laws' zero mass and the upper-bound roots.

The oracle tests elsewhere compare within four standard errors, which a
changed random stream would still pass.  These values were recorded at the
commit before the oracles shared one stream constructor and one estimate
type, and passed there; they pin every random number the oracles read.
The two path-open values were recorded again when mc_path_open moved onto
the distance chain: its walks now read the chain's stream (a step toward
the target where u < 1/deg, and no walk past x_k), so the same seeds give
other realizations of the same event.

The path-open tests elsewhere compare within 1e-12 or 1e-15, which a
reordered sum would still pass.  The zero masses were recorded at the
commit before P[eta = 0] was read off the pmf, and passed there.  The table
digests were recorded at the commit before the path-open recursion was
written once for both orientations of a geodesic, and recorded again when
the tables came to read the law's cancellation-free complement
cpgf(z) = 1 - pgf(1 - z) in place of forming it from the pgf.  14 of the 16
moved, by at most 1.9e-11 relative, the cancellation the old form made; the
Constant and Bernoulli rows with a = 0, whose one nonzero value,
cpgf(0.45), rounds the same either way, kept theirs.

The roots of the gap function on the nine reference rows at q = 1 and
q = 1/2 were recorded, as float.hex, at the commit before the bisection
took a fixed number of halvings, and passed there.
"""

import hashlib
from dataclasses import astuple

import pytest

from bifrog.bounds import TABLE_ROWS, ub_root
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
     (0.013333333333333334, 0.006622073078111707, 300)),
    (lambda: _est(mc_path_open(PathOpenQuery(2, 1, 3), T22, Bernoulli(0.6), 0.85, 200,
                               seed=4)),
     (0.08, 0.01918332609325088, 200)),
    # range_ref and ball_ref (fields 4 and 7) are the laws' cpgf closed forms;
    # both range_ref values equal a 50-digit mpmath 1 - pgf(1 - z) rounded
    (lambda: astuple(mc_range_vs_disk(T23, Poisson(1.5), 0.8, 3, 300, seed=2, start_type=2)),
     (300, 3, 0.03666666666666667, 0.010850840554571832, 0.027268486932130555,
      0.5033333333333333, 0.02886687195205425, 0.5360599789083534)),
    (lambda: astuple(mc_range_vs_disk(T22, Geometric(0.5), 0.8, 2, 200, seed=9, start_type=1)),
     (200, 2, 0.12, 0.022978250586152115, 0.09391521363705067,
      0.43, 0.03500714212842859, 0.39024390243902446)),
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
    (Constant(2), 0.62, 0.35, "02bc8fd3272b4184"),
    (Constant(2), 0.55, 1.0, "af2795df84130e11"),
    (Constant(2), 1.0, 0.3, "751f38868d0e0e51"),
    (Bernoulli(0.6), 0.0, 0.45, "499fd027d739e249"),
    (Bernoulli(0.6), 0.62, 0.35, "3d08b42f7d13479a"),
    (Bernoulli(0.6), 0.55, 1.0, "467946d90557466a"),
    (Bernoulli(0.6), 1.0, 0.3, "72f0460df5dfcd45"),
    (Poisson(1.3), 0.0, 0.45, "dbb36281efeead2c"),
    (Poisson(1.3), 0.62, 0.35, "53b3578f43e9cee8"),
    (Poisson(1.3), 0.55, 1.0, "61f7b7f84f25bd0c"),
    (Poisson(1.3), 1.0, 0.3, "3e7270427f5ac813"),
    (Geometric(0.45), 0.0, 0.45, "dd70ec68d64db550"),
    (Geometric(0.45), 0.62, 0.35, "d258fe3ceacdf1d7"),
    (Geometric(0.45), 0.55, 1.0, "0a76b0b621435e08"),
    (Geometric(0.45), 1.0, 0.3, "3240ab1e8c9d472c"),
])
def test_path_open_tables_are_pinned(law, a, b, expected):
    # the four families (1,1), (1,2), (2,1), (2,2) at levels n = 1..12, each
    # value written exactly by float.hex; the digest is the first 16 hex
    # digits of the SHA-256 of those 48 words joined by spaces
    tables = PathOpenTables(law.cpgf, a, b, k_max=24)
    words = [tables.value(PathOpenQuery(i, j, 2 * n - (i != j))).hex()
             for i in (1, 2) for j in (1, 2) for n in range(1, 13)]
    assert hashlib.sha256(" ".join(words).encode()).hexdigest()[:16] == expected


_UB_ROOT_HEX = {
    1.0: ("0x1.b7b00c149f228p-1", "0x1.9b99e43be2658p-1", "0x1.8cb980d2762f6p-1",
          "0x1.7fffffffff7d0p-1", "0x1.699eb6ecd7bb2p-1", "0x1.5d9a1c2332f72p-1",
          "0x1.277b2ca623dc2p-1", "0x1.26108a1bf4070p-1", "0x1.1d43f2933b9cap-1"),
    0.5: ("0x1.e869c332e6960p-1", "0x1.d766548250bb0p-1", "0x1.cd1982a451352p-1",
          "0x1.c62c77480cb36p-1", "0x1.b558e6f5853d0p-1", "0x1.ab9d06eb7ada2p-1",
          "0x1.7ba691fb36d96p-1", "0x1.7a4281c970cbep-1", "0x1.722bc54b46474p-1"),
}


@pytest.mark.parametrize("q", sorted(_UB_ROOT_HEX))
@pytest.mark.parametrize("row", range(len(TABLE_ROWS)))
def test_ub_root_values_are_pinned(row, q):
    assert ub_root(TreeParams(*TABLE_ROWS[row]), q).hex() == _UB_ROOT_HEX[q][row]


@pytest.mark.parametrize("law, p0, q", [
    (Constant(2), 0.0, 1.0),
    (Bernoulli(0.6), 0.4, 0.6),
    (Poisson(1.3), 0.2725317930340126, 0.7274682069659875),
    (Geometric(0.45), 0.55, 0.44999999999999996),
])
def test_zero_mass_and_activation_probability_are_pinned(law, p0, q):
    assert (law.p0, law.q) == (p0, q)
