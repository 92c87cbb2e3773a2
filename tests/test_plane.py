import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg2q.plane import IdenticalLines, IdenticalPoints, PointSet, plane_for_order


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_plane_axioms_exhaustive(q):
    pl = plane_for_order(q)
    n = q * q + q + 1
    assert pl.n == n == len(pl.coords)
    assert all(len(pts) == q + 1 for pts in pl.points_on_line)
    assert all(len(ls) == q + 1 for ls in pl.lines_through_point)
    # each pair of points joined by exactly one line, dually for lines
    for i in range(n):
        for j in range(i + 1, n):
            l = pl.line_through(i, j)
            assert pl.incident(i, l) and pl.incident(j, l)
            common = set(pl.lines_through_point[i]) & set(pl.lines_through_point[j])
            assert common == {l}
            m = pl.meet(i, j)  # same coordinates read as lines
            assert set(pl.points_on_line[i]) & set(pl.points_on_line[j]) == {m}


def test_counts_examples():
    assert plane_for_order(5).n == 31
    assert plane_for_order(3).n == 13
    assert plane_for_order(7).n == 57


def test_double_count():
    pl = plane_for_order(5)
    assert sum(len(pts) for pts in pl.points_on_line) == 31 * 6


def test_join_meet_examples():
    pl = plane_for_order(5)
    l = pl.line_through(pl.index_of((1, 0, 0)), pl.index_of((0, 1, 0)))
    assert pl.coords[l] == (0, 0, 1)
    l2 = pl.line_through(pl.index_of((1, 0, 3)), pl.index_of((0, 1, 0)))
    assert pl.coords[l2] == (1, 0, 3)
    p = pl.meet(pl.index_of((0, 0, 1)), pl.index_of((0, 1, 0)))
    assert pl.coords[p] == (1, 0, 0)
    with pytest.raises(IdenticalPoints):
        pl.line_through(3, 3)
    with pytest.raises(IdenticalLines):
        pl.meet(4, 4)


def test_enumeration_order():
    pl = plane_for_order(3)
    assert pl.coords[0] == (1, 0, 0)
    assert pl.coords[1] == (1, 0, 1)
    assert pl.coords[3] == (1, 1, 0)
    assert pl.coords[9] == (0, 1, 0)
    assert pl.coords[12] == (0, 0, 1)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_normalize_scale_invariant(data):
    q = data.draw(st.sampled_from([3, 5, 9]))
    pl = plane_for_order(q)
    v = data.draw(st.tuples(*[st.integers(0, q - 1)] * 3).filter(lambda t: any(t)))
    lam = data.draw(st.integers(1, q - 1))
    scaled = tuple(pl.gf.mul(lam, c) for c in v)
    assert pl.normalize(v) == pl.normalize(scaled)
    assert pl.normalize(pl.normalize(v)) == pl.normalize(v)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_pointset_incremental_counts(data):
    q = data.draw(st.sampled_from([3, 5]))
    pl = plane_for_order(q)
    ps = PointSet(pl)
    ops = data.draw(st.lists(st.integers(0, pl.n - 1), max_size=40))
    for p in ops:
        if p in ps:
            ps.remove(p)
        else:
            ps.add(p)
    assert ps.per_line == ps.recomputed_counts()
    assert sum(ps.per_line) == len(ps) * (q + 1)


def test_pointset_json_roundtrip_and_normalization():
    pl = plane_for_order(5)
    ps = PointSet(pl, [0, 5, 17])
    text = ps.dump()
    again = PointSet.load(text)
    assert again.sorted_tuple() == ps.sorted_tuple()
    # unnormalized input coordinates are normalized on load
    obj = json.loads(text)
    obj["points"] = [[pl.gf.mul(2, c) for c in pt] for pt in obj["points"]]
    assert PointSet.load(json.dumps(obj)).sorted_tuple() == ps.sorted_tuple()
    # a prime field reads any integer coordinate mod p
    obj["points"] = [[0, 2, -1]]
    assert PointSet.load(json.dumps(obj)).sorted_tuple() == (pl.index_of((0, 1, 2)),)


def test_pointset_remove_missing():
    pl = plane_for_order(3)
    ps = PointSet(pl, [1])
    with pytest.raises(KeyError):
        ps.remove(5)
