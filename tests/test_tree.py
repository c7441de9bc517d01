"""Tests for biregular tree addressing.

These helpers are the oracle the simulator's tree stores are checked
against in test_sim.py, so their own rules are checked here on an
explicitly built finite ball: parity, degrees, the parent/child inverse
and the neighbor slot order.  The real-valued input rule, which lives in
the same module, is checked at the ends of its four kinds of interval.
"""

import pytest

from bifrog.tree import (
    ROOT,
    TreeParams,
    _check_real,
    children,
    degree,
    neighbors,
    num_children,
    parent,
    parity,
)


def _ball(tree, radius):
    """All addresses within `radius` of the root, via explicit expansion."""
    out = [ROOT]
    frontier = [ROOT]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            nxt.extend(children(tree, v))
        out.extend(nxt)
        frontier = nxt
    return out


def test_params_validation():
    TreeParams(1, 1)
    TreeParams(3, 100)
    with pytest.raises(ValueError):
        TreeParams(0, 2)
    with pytest.raises(ValueError):
        TreeParams(2, -1)
    # d + 1 neighbor slots must fit the simulator's int32 slot draw
    assert TreeParams(2 ** 31 - 2, 2).stride == 2 ** 31 - 1
    with pytest.raises(ValueError, match="2147483646"):
        TreeParams(2, 2 ** 31 - 1)


@pytest.mark.parametrize("ends,low_in,high_in", [
    ("[]", True, True), ("(]", False, True), ("[)", True, False), ("()", False, False),
])
def test_check_real_reads_the_interval_ends(ends, low_in, high_in):
    for value, inside in ((0, low_in), (0.5, True), (1, high_in), (-0.1, False), (1.1, False)):
        if inside:
            assert _check_real("x", value, 0, 1, ends) == value
        else:
            with pytest.raises(ValueError, match=rf"x must be a finite real in \{ends[0]}0, 1"):
                _check_real("x", value, 0, 1, ends)


def test_kappa_and_swap():
    t = TreeParams(2, 3)
    assert t.kappa == 12
    assert TreeParams(t.d2, t.d1).kappa == 12


def test_root_properties():
    t = TreeParams(2, 3)
    assert parity(ROOT) == 1
    assert degree(t, ROOT) == 3
    assert num_children(t, ROOT) == 3
    with pytest.raises(ValueError):
        parent(ROOT)


def test_parity_alternates_along_edges():
    t = TreeParams(2, 3)
    for v in _ball(t, 4):
        for c in children(t, v):
            assert parity(c) == 3 - parity(v)


def test_degrees_by_parity():
    t = TreeParams(2, 5)
    for v in _ball(t, 4):
        if v == ROOT:
            continue
        want = 3 if parity(v) == 1 else 6
        assert degree(t, v) == want
        assert num_children(t, v) == want - 1


def test_children_and_parent_are_inverse():
    t = TreeParams(2, 3)
    for v in _ball(t, 4):
        for c in children(t, v):
            assert parent(c) == v
            assert c[-1] < num_children(t, v)


def test_neighbors_parent_first_and_complete():
    t = TreeParams(2, 3)
    v = (1, 0)
    nb = neighbors(t, v)
    # slot 0 is the parent and slot c + 1 child c below the root
    assert nb[0] == parent(v)
    assert nb[1:] == children(t, v)
    assert len(nb) == degree(t, v)
    # at the root slot c is child c
    assert neighbors(t, ROOT) == children(t, ROOT)
    assert len(neighbors(t, ROOT)) == degree(t, ROOT)
