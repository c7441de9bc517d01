"""Tests for biregular tree addressing and geometry.

The distance function is cross-checked against breadth-first search on an
explicitly built finite ball, so the address arithmetic never gets to grade
its own homework.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrog.tree import (
    ROOT,
    TreeParams,
    children,
    degree,
    distance,
    neighbors,
    num_children,
    parent,
    parity,
    validate_addr,
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


def _bfs_distance(tree, u, v, radius):
    """Graph distance by BFS over the ball, ignoring addresses entirely."""
    seen = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        if w == v:
            return seen[w]
        for x in neighbors(tree, w):
            if len(x) > radius or x in seen:
                continue
            seen[x] = seen[w] + 1
            queue.append(x)
    raise AssertionError("BFS failed to reach target inside ball")


def test_params_validation():
    TreeParams(1, 1)
    TreeParams(3, 100)
    with pytest.raises(ValueError):
        TreeParams(0, 2)
    with pytest.raises(ValueError):
        TreeParams(2, -1)


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
            validate_addr(t, c)


def test_neighbors_parent_first_and_complete():
    t = TreeParams(2, 3)
    v = (1, 0)
    nb = neighbors(t, v)
    assert nb[0] == parent(v)
    assert set(nb[1:]) == set(children(t, v))
    assert len(nb) == degree(t, v)
    assert len(neighbors(t, ROOT)) == degree(t, ROOT)


def test_validate_addr_rejects_out_of_range_labels():
    t = TreeParams(2, 3)
    validate_addr(t, (2, 1, 0))
    with pytest.raises(ValueError):
        validate_addr(t, (3,))  # root has d1 + 1 = 3 children: labels 0..2
    with pytest.raises(ValueError):
        validate_addr(t, (0, 3))  # odd vertex has d2 = 3 children: labels 0..2
    with pytest.raises(ValueError):
        validate_addr(t, (0, -1))


def test_distance_small_cases():
    t = TreeParams(2, 3)
    assert distance(ROOT, ROOT) == 0
    assert distance(ROOT, (1,)) == 1
    assert distance((1,), (2,)) == 2
    assert distance((1, 0), (1, 1)) == 2
    assert distance((1, 0, 1), (2,)) == 4


def test_distance_matches_bfs_exhaustively():
    t = TreeParams(2, 3)
    ball = _ball(t, 3)
    for u in ball:
        for v in ball:
            assert distance(u, v) == _bfs_distance(t, u, v, radius=3)


@st.composite
def _addr_pairs(draw):
    d1, d2 = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 4)]))
    t = TreeParams(d1, d2)

    def addr():
        depth = draw(st.integers(0, 6))
        labels = []
        v = ()
        for _ in range(depth):
            c = children(t, v)
            v = c[draw(st.integers(0, len(c) - 1))]
        return v

    return t, addr(), addr()


@given(_addr_pairs())
@settings(max_examples=200, deadline=None)
def test_distance_is_a_metric(pair):
    t, u, v = pair
    d = distance(u, v)
    assert d == distance(v, u)
    assert (d == 0) == (u == v)
    assert d <= len(u) + len(v)
    if v != ROOT:
        assert abs(distance(u, v) - distance(u, parent(v))) == 1
