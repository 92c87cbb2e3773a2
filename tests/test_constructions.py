import pytest

from pg2q.conic import canonical_conic, PointClass
from pg2q.constructions import (
    InvalidA,
    QTooSmall,
    RTooLarge,
    WrongSize,
    all_certificates,
    build,
    find_valid_a,
    frobenius_graph,
    interior_points,
    punctured_interior,
    trace_graph,
    trivial,
    two_conics,
    verify_desargues,
)
from pg2q.plane import plane_for_order
from pg2q.tangency import is_tangent_free, spectrum


def test_trivial_sizes():
    for q in (3, 5, 7, 9):
        t = trivial(q)
        assert len(t) == 2 * q
        assert is_tangent_free(t)
        assert spectrum(t)[q] == 2  # the two construction lines


def test_find_valid_a_q7():
    assert find_valid_a(7) == [6]  # 1-6=2 and 6*5=2 are squares mod 7


def test_two_conics_q7():
    ps = two_conics(7, 6)
    assert len(ps) == 12 and is_tangent_free(ps)
    with pytest.raises(InvalidA):
        two_conics(7, 3)  # 1-3=5 is a non-square mod 7
    with pytest.raises(InvalidA):
        two_conics(7, 0)
    with pytest.raises(InvalidA):
        two_conics(5, 2)  # q must exceed 5


def test_two_conics_disjointness():
    """The construction drops exactly the two common points of the conics."""
    from pg2q.conic import Conic

    pl = plane_for_order(7)
    gf = pl.gf
    c1 = Conic(pl, (0, 0, 1, gf.neg(1), 0, 0))
    c2 = Conic(pl, (0, 0, 1, gf.neg(6), 0, 0))
    common = set(c1.points) & set(c2.points)
    assert common == {pl.index_of((1, 0, 0)), pl.index_of((0, 1, 0))}
    ps = two_conics(7, 6)
    assert ps.members == (set(c1.points) | set(c2.points)) - common


def test_interior_points_sizes():
    for q in (5, 7):
        c = canonical_conic(plane_for_order(q))
        s = interior_points(c)
        assert len(s) == q * (q - 1) // 2
        assert is_tangent_free(s)
    with pytest.raises(QTooSmall):
        interior_points(canonical_conic(plane_for_order(3)))


def test_interior_points_line_degree():
    """Every line through a member carries at least (q-3)/2 other members."""
    for q in (5, 7, 9):
        pl = plane_for_order(q)
        s = interior_points(canonical_conic(pl))
        for l, c in enumerate(s.per_line):
            if c:
                assert c >= (q - 3) // 2 + 1


def test_desargues_configuration():
    s = interior_points(canonical_conic(plane_for_order(5)))
    assert verify_desargues(s)
    assert not verify_desargues(trivial(5))
    with pytest.raises(WrongSize):
        verify_desargues(trivial(3))


def test_punctured_interior():
    pl = plane_for_order(7)
    c = canonical_conic(pl)
    ext = next(p for p in range(pl.n) if c.classify_point(p) is PointClass.EXTERIOR)
    s = punctured_interior(c, ext, 1)
    assert len(s) == 21 - 4 and is_tangent_free(s)
    s0 = punctured_interior(c, ext, 0)
    assert s0.members == interior_points(c).members
    with pytest.raises(RTooLarge):
        punctured_interior(c, ext, 2)  # (q-5)/2 = 1 for q=7
    on_conic = c.points[0]
    with pytest.raises(Exception):
        punctured_interior(c, on_conic, 1)


def test_punctured_interior_q9():
    pl = plane_for_order(9)
    c = canonical_conic(pl)
    ext = next(p for p in range(pl.n) if c.classify_point(p) is PointClass.EXTERIOR)
    s = punctured_interior(c, ext, 2)
    assert len(s) == 36 - 10 and is_tangent_free(s)


def test_punctured_min_line_intersection():
    for q, r in [(7, 1), (9, 1), (9, 2), (11, 3)]:
        pl = plane_for_order(q)
        c = canonical_conic(pl)
        ext = next(p for p in range(pl.n) if c.classify_point(p) is PointClass.EXTERIOR)
        s = punctured_interior(c, ext, r)
        assert len(s) == q * (q - 1) // 2 - r * (q + 1) // 2
        nonzero = [c_ for c_ in s.per_line if c_]
        assert min(nonzero) >= 2


def test_trace_graph_sizes():
    tg9 = trace_graph(9)
    assert len(tg9) == 15 and is_tangent_free(tg9) and build("trace_graph", 9).notes == ""
    tg27 = trace_graph(27)
    assert len(tg27) == 2 * 27 - 9 == 45 and is_tangent_free(tg27)


def test_frobenius_graph_flagged_size():
    fg = frobenius_graph(9)
    assert is_tangent_free(fg)
    assert len(fg) == 15  # the construction's own count
    cert = build("frobenius_graph", 9)
    assert cert.points.members == fg.members
    assert cert.status == "FLAGGED"
    assert cert.actual_size == 15 and cert.claimed_size == 12  # the printed formula disagrees


def test_graphs_prime_field_notice():
    fg = frobenius_graph(5)
    assert build("frobenius_graph", 5).notes.startswith("prime field")
    assert len(fg) == 10 and is_tangent_free(fg)
    from pg2q.tangency import is_trivial_set

    assert is_trivial_set(fg)


def test_certificates_quick():
    for q in (5, 7, 9):
        for cert in all_certificates(q):
            assert cert.tangent_free, cert
            if cert.name.startswith("frobenius") and q == 9:
                assert cert.status == "FLAGGED"
            else:
                assert cert.status == "VALID", cert
