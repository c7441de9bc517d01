"""Tests for biregular tree addressing.

neighbors is the oracle the simulator's tree stores are checked against
in test_sim.py, so its own rules are checked here on an explicitly built
finite ball: the degree of each level, the parent/child inverse and the
neighbor slot order.  The real-valued input rule, which lives in the same
module, is checked at the ends of its four kinds of interval.
"""

import pytest

from bifrog.tree import ROOT, TreeParams, _check_real, neighbors


def _children(tree, v):
    """The neighbors of v one level further from the root."""
    return neighbors(tree, v)[1:] if v else neighbors(tree, v)


def _ball(tree, radius):
    """All addresses within `radius` of the root, via explicit expansion."""
    out = [ROOT]
    frontier = [ROOT]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            nxt.extend(_children(tree, v))
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
    # the root has no parent: all d1 + 1 of its neighbors are its children
    assert neighbors(t, ROOT) == [(0,), (1,), (2,)]


def test_parity_alternates_along_edges():
    t = TreeParams(2, 3)
    for v in _ball(t, 4):
        for y in neighbors(t, v):
            assert abs(len(y) - len(v)) == 1
            # the degree alternates with the level parity along every edge
            assert {len(neighbors(t, v)), len(neighbors(t, y))} == {3, 4}


def test_degrees_by_parity():
    t = TreeParams(2, 5)
    for v in _ball(t, 4):
        want = 3 if len(v) % 2 == 0 else 6
        assert len(neighbors(t, v)) == want
        assert len(_children(t, v)) == (want if v == ROOT else want - 1)


def test_children_and_parent_are_inverse():
    t = TreeParams(2, 3)
    for v in _ball(t, 4):
        kids = _children(t, v)
        assert [c[:-1] for c in kids] == [v] * len(kids)
        assert [c[-1] for c in kids] == list(range(len(kids)))
        # a child's slot 0 leads back to v
        assert all(neighbors(t, c)[0] == v for c in kids)


def test_neighbors_parent_first_and_complete():
    t = TreeParams(2, 3)
    v = (1, 0)
    # slot 0 is the parent and slot c + 1 child c below the root
    assert neighbors(t, v) == [(1,), (1, 0, 0), (1, 0, 1)]
    # an even-level vertex has d1 children below its parent, an odd-level one d2
    assert neighbors(t, (2,)) == [ROOT, (2, 0), (2, 1), (2, 2)]
