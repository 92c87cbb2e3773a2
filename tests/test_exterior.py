import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg2q.conic import LineClass, canonical_conic, is_arc
from pg2q.exterior import (
    NotExternal,
    TooLarge,
    canonical_external_line,
    check_extension_dichotomy,
    conic_union_check,
    exterior_clique_search,
    exterior_points_on_line,
    external_line_test_formula,
    find_extenders,
    join_line_coords,
    pg25_ten_set,
)
from pg2q.gfq import QuadChar
from pg2q.linalg import random_invertible
from pg2q.plane import PointSet, mask_bits, plane_for_order
from pg2q.tangency import is_tangent_free, spectrum


def test_exterior_points_on_line_q5():
    pl = plane_for_order(5)
    conic, line, a = canonical_external_line(pl)
    assert a == 2
    pts = exterior_points_on_line(conic, line)
    coords = {pl.coords[p] for p in pts}
    assert coords == {(0, 1, 0), (1, 1, 2), (1, 4, 2)}
    with pytest.raises(NotExternal):
        exterior_points_on_line(conic, pl.index_of((1, 0, 0)))  # tangent x=0


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_exterior_point_count_on_external_lines(q):
    pl = plane_for_order(q)
    conic, line, _ = canonical_external_line(pl)
    assert len(exterior_points_on_line(conic, line)) == (q + 1) // 2


def test_is_exterior_set_basics():
    pl = plane_for_order(5)
    conic, line, _ = canonical_external_line(pl)
    base = exterior_points_on_line(conic, line)
    assert _reference_is_exterior_set(conic, base)  # the only secant is the line itself
    assert _reference_is_exterior_set(conic, base[:1])  # singleton, vacuous
    # two points joined by a secant of the conic fail
    secant = next(l for l in range(pl.n) if conic.classify_line(l) is LineClass.SECANT)
    two = mask_bits(pl.line_masks[secant])[:2]
    assert not _reference_is_exterior_set(conic, two)


def test_find_extenders_q5():
    pl = plane_for_order(5)
    conic, line, a = canonical_external_line(pl)
    rep = find_extenders(conic, line)
    assert [pl.coords[p] for p in rep.extenders_off_line] == [(1, 0, 3)]  # <(1,0,-a)>
    assert set(rep.extenders_on_line) == set(mask_bits(pl.line_masks[line])) - set(rep.base_points)
    # cross-check a few candidates against the definitional test
    for p in list(rep.extenders_off_line) + list(rep.extenders_on_line)[:2]:
        assert _reference_is_exterior_set(conic, list(rep.base_points) + [p])


def test_find_extenders_q7_none_off_line():
    pl = plane_for_order(7)
    conic, line, _ = canonical_external_line(pl)
    rep = find_extenders(conic, line)
    assert rep.extenders_off_line == ()


def test_find_extenders_q13_unique():
    pl = plane_for_order(13)
    conic, line, a = canonical_external_line(pl)
    rep = find_extenders(conic, line)
    assert len(rep.extenders_off_line) == 1
    assert pl.coords[rep.extenders_off_line[0]] == (1, 0, pl.gf.neg(a))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29])
def test_extension_dichotomy(q):
    rep = check_extension_dichotomy(q)
    assert rep.ok
    assert rep.off_line_count == rep.expected_off == (1 if q % 4 == 1 else 0)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31])
def test_extension_dichotomy_all_lines(q):
    """Loop every external line of the canonical conic, not just z = ax."""
    rep = check_extension_dichotomy(q, all_lines=True)
    assert rep.ok


def test_formula_example_q5():
    gf = plane_for_order(5).gf
    # (alpha, lam, xi, a) = (0, 3, 1, 2): discriminant 1 - 4(-3)(1) = 13 = 3
    assert external_line_test_formula(gf, 0, 3, 1, 2) is QuadChar.NONSQUARE


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_formula_agrees_with_classification_exhaustive(q):
    # the suite check runs every pair of distinct points with x = 1
    from pg2q.suite import _check_external_line_formula

    ok, detail = _check_external_line_formula([q])
    assert ok, detail


def test_formula_agrees_random_q_up_to_31():
    rng = random.Random(42)
    for q in [13, 17, 19, 23, 25, 27, 29, 31]:
        pl = plane_for_order(q)
        gf = pl.gf
        conic = canonical_conic(pl)
        done = 0
        while done < 1000:
            alpha, lam, xi, a = (rng.randrange(q) for _ in range(4))
            if lam == a and xi == alpha:
                continue
            coords = join_line_coords(gf, alpha, lam, xi, a)
            if not any(coords):
                continue
            ch = external_line_test_formula(gf, alpha, lam, xi, a)
            cls = conic.classify_line(pl.index_of(coords))
            assert (cls is LineClass.EXTERNAL) == (ch is QuadChar.NONSQUARE)
            done += 1


def test_pg25_ten_set():
    ps = pg25_ten_set()
    assert len(ps) == 10
    assert is_tangent_free(ps)
    sp = spectrum(ps)
    assert (sp[0], sp[2], sp[3], sp[4]) == (6, 15, 10, 0)


def test_pg25_ten_set_is_interior_class():
    from pg2q.search import pgl_group
    from pg2q.constructions import interior_points

    pl = plane_for_order(5)
    ten = pg25_ten_set().sorted_tuple()
    intr = interior_points(canonical_conic(pl)).sorted_tuple()
    orb = set(pgl_group(5).orbit(intr))
    assert ten in orb


@pytest.mark.parametrize("q", [5, 9, 13])
def test_cliques_collinear_for_q_1_mod_4(q):
    res = exterior_clique_search(q)  # internal assertion enforces collinearity
    assert len(res) == q * (q - 1) // 2  # one clique per external line
    assert all(len(s) == (q + 1) // 2 for s in res)


def test_cliques_q7_noncollinear_union():
    pl = plane_for_order(7)
    conic = canonical_conic(pl)
    wits = exterior_clique_search(7, no_three_collinear=True)
    assert wits
    for w in wits:
        assert _reference_is_exterior_set(conic, w.members)
        assert conic_union_check(conic, w.members)
        union = PointSet(pl, set(conic.points) | set(w.members))
        assert len(union) == 12 and is_tangent_free(union)


def test_cliques_q11_noncollinear_union():
    pl = plane_for_order(11)
    conic = canonical_conic(pl)
    wits = exterior_clique_search(11, no_three_collinear=True)
    assert wits
    w = wits[0]
    union = PointSet(pl, set(conic.points) | set(w.members))
    assert len(union) == 18 and is_tangent_free(union)


def test_clique_q5_collinear_union_fails():
    """Collinear half-line sets never complete the conic tangent-freely."""
    pl = plane_for_order(5)
    conic = canonical_conic(pl)
    for w in exterior_clique_search(5):
        assert not conic_union_check(conic, w.members)


def test_clique_q13_collinear_union_fails():
    pl = plane_for_order(13)
    conic = canonical_conic(pl)
    for w in exterior_clique_search(13):
        assert not conic_union_check(conic, w.members)


def test_clique_guard():
    with pytest.raises(TooLarge):
        exterior_clique_search(17)


# -- per-pair references for the mask answers -------------------------------


def _external_join(conic, p, r):
    return conic.classify_line(conic.plane.meet(p, r)) is LineClass.EXTERNAL


def _reference_is_exterior_set(conic, members):
    """The definition: every line meeting the set twice is external."""
    s = PointSet(conic.plane, members)
    return all(conic.classify_line(l) is LineClass.EXTERNAL for l, c in enumerate(s.per_line) if c >= 2)


def _reference_extenders(conic, line):
    """Per-pair scan: the definitional set test for points on the line, one
    join per base point for points off it."""
    plane = conic.plane
    base = exterior_points_on_line(conic, line)
    on_line, off_line = [], []
    for x in range(plane.n):
        if x in base:
            continue
        if plane.incident(x, line):
            if _reference_is_exterior_set(conic, base + [x]):
                on_line.append(x)
        elif all(_external_join(conic, x, b) for b in base):
            off_line.append(x)
    return tuple(base), tuple(on_line), tuple(off_line)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_find_extenders_matches_per_pair_scan(q):
    """Every external line of the canonical conic and of 3 random images."""
    pl = plane_for_order(q)
    conic = canonical_conic(pl)
    rng = random.Random(1000 + q)
    for con in [conic] + [conic.transform(random_invertible(pl.gf, rng)) for _ in range(3)]:
        lines = [l for l in range(pl.n) if con.classify_line(l) is LineClass.EXTERNAL]
        assert len(lines) == q * (q - 1) // 2
        for l in lines:
            rep = find_extenders(con, l)
            got = (rep.base_points, rep.extenders_on_line, rep.extenders_off_line)
            assert got == _reference_extenders(con, l), (q, con.coeffs, l)


def _reference_cliques(q, no_three_collinear):
    """Cliques of the exterior points under an O(v^2) adjacency table of
    external joins, in the order of a lowest-vertex-first DFS."""
    pl = plane_for_order(q)
    conic = canonical_conic(pl)
    verts = mask_bits(conic.exterior)
    adj = [
        sum(1 << j for j, w in enumerate(verts) if w != v and _external_join(conic, v, w))
        for v in verts
    ]
    k = (q + 1) // 2
    out = []

    def extend(members, cand):
        if len(members) == k:
            out.append(tuple(verts[i] for i in members))
            return
        for i in range(len(verts)):
            if cand >> i & 1:
                cand &= ~(1 << i)
                extend(members + (i,), cand & adj[i])

    extend((), (1 << len(verts)) - 1)
    return [c for c in out if not no_three_collinear or is_arc(pl, c)]


@pytest.mark.parametrize("no3col", [False, True])
@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_clique_search_matches_adjacency_reference(q, no3col):
    got = [s.sorted_tuple() for s in exterior_clique_search(q, no_three_collinear=no3col)]
    assert got == _reference_cliques(q, no3col)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_is_exterior_set_is_pairwise_external(data):
    q = data.draw(st.sampled_from([5, 7, 9, 11]))
    pl = plane_for_order(q)
    conic = canonical_conic(pl)
    ext = mask_bits(conic.exterior)
    members = data.draw(st.lists(st.sampled_from(ext), max_size=6, unique=True))
    if data.draw(st.booleans()):
        # an exterior set plus a few points, so that both answers occur
        lines = [l for l in range(pl.n) if conic.classify_line(l) is LineClass.EXTERNAL]
        base = exterior_points_on_line(conic, data.draw(st.sampled_from(lines)))
        members = sorted(set(base) | set(members[:2]))
    pairwise = all(_external_join(conic, p, r) for i, p in enumerate(members) for r in members[i + 1 :])
    assert _reference_is_exterior_set(conic, members) == pairwise
