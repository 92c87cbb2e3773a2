import random

import pytest

from pg2q.conic import (
    Conic,
    DegenerateConic,
    LineClass,
    PointClass,
    canonical_conic,
    discriminant_point_class,
    evaluate_form,
    form_zeros,
    is_arc,
)
from pg2q.linalg import nullspace, random_invertible
from pg2q.plane import PointSet, mask_bits, plane_for_order

from output_manifest import ODD_Q, PINNED, canonical_sha256, conic_outputs, geometry_outputs


class TooFewPoints(ValueError):
    pass


def fit_quadratic_form(plane, coord_triples):
    """Six coefficients of a form vanishing on the given triples, or None if
    only the zero form does or the solution is not unique up to scale."""
    gf = plane.gf
    rows = [[gf.mul(x, x), gf.mul(y, y), gf.mul(z, z), gf.mul(x, y), gf.mul(x, z), gf.mul(y, z)]
            for x, y, z in coord_triples]
    basis = nullspace(rows, gf, ncols=6)
    return tuple(basis[0]) if len(basis) == 1 else None


def arc_is_conic_check(plane, indices):
    """Reference: fit a form through five of the points and test the rest
    against it."""
    pts = sorted(indices)
    if len(pts) < 5:
        raise TooFewPoints("need at least 5 points to fit a conic")
    coords = [plane.coords[p] for p in pts]
    form = fit_quadratic_form(plane, coords[:5])
    return form is not None and all(evaluate_form(plane.gf, form, c) == 0 for c in coords)


def test_conic_points_examples():
    pl = plane_for_order(5)
    c = canonical_conic(pl)
    assert len(c.points) == 6
    pl7 = plane_for_order(7)
    c7 = canonical_conic(pl7)
    assert len(c7.points) == 8
    assert pl7.index_of((0, 0, 1)) in c7.points
    # parametrisation <(1,t,t^2)> plus <(0,0,1)>
    gf = pl7.gf
    expect = {pl7.index_of((1, t, gf.mul(t, t))) for t in range(7)} | {pl7.index_of((0, 0, 1))}
    assert set(c7.points) == expect


def test_degenerate_rejected():
    pl = plane_for_order(5)
    with pytest.raises(DegenerateConic):
        Conic(pl, (0, 0, 0, 1, 0, 0))  # xy = 0 contains two full lines
    with pytest.raises(DegenerateConic):
        canonical_conic(plane_for_order(4))  # even order rejected


def _random_forms(gf, rng, count: int) -> list[tuple[int, ...]]:
    """The zero form, forms with each coefficient zero half the time (among
    them irreducible conics, single points and double lines), and products
    of two random linear forms (line pairs)."""
    def cross(u1, v1, u2, v2):  # the st coefficient of (u1 s + v1 t)(u2 s + v2 t)
        return gf.add(gf.mul(u1, v2), gf.mul(u2, v1))

    forms = [(0,) * 6]
    for _ in range(count):
        forms.append(tuple(rng.randrange(gf.q) if rng.randrange(2) else 0 for _ in range(6)))
        (a1, b1, c1), (a2, b2, c2) = [[rng.randrange(gf.q) for _ in range(3)] for _ in range(2)]
        forms.append((gf.mul(a1, a2), gf.mul(b1, b2), gf.mul(c1, c2),
                      cross(a1, b1, a2, b2), cross(a1, c1, a2, c2), cross(b1, c1, b2, c2)))
    return forms


@pytest.mark.parametrize("q", ODD_Q + [49])
def test_form_zeros_match_evaluation(q):
    """form_zeros solves one quadratic per row; it gives the points where
    evaluate_form vanishes, and Conic refuses exactly the forms whose zeros
    are not q + 1 points with no full line among them."""
    pl = plane_for_order(q)
    gf = pl.gf
    for coeffs in _random_forms(gf, random.Random(q), 15):
        want = tuple(i for i, v in enumerate(pl.coords) if evaluate_form(gf, coeffs, v) == 0)
        assert form_zeros(pl, coeffs) == want
        if len(want) != q + 1 or q + 1 in PointSet(pl, want).per_line:
            with pytest.raises(DegenerateConic):
                Conic(pl, coeffs)
        else:
            assert Conic(pl, coeffs).points == want


def test_classify_line_examples():
    pl = plane_for_order(5)
    c = canonical_conic(pl)
    gf = pl.gf
    # z = a x has dual coordinates (a, 0, -1)
    assert c.classify_line(pl.index_of((2, 0, gf.neg(1)))) is LineClass.EXTERNAL
    assert c.classify_line(pl.index_of((4, 0, gf.neg(1)))) is LineClass.SECANT
    assert c.classify_line(pl.index_of((1, 0, 0))) is LineClass.TANGENT  # x = 0


def test_classify_point_examples():
    pl = plane_for_order(5)
    c = canonical_conic(pl)
    assert c.classify_point(pl.index_of((0, 1, 0))) is PointClass.EXTERIOR
    assert c.classify_point(pl.index_of((1, 0, 2))) is PointClass.INTERIOR
    assert all(c.classify_point(p) is PointClass.ON_CONIC for p in c.points)


@pytest.mark.parametrize("q", ODD_Q)
def test_censuses_closed_forms(q):
    c = canonical_conic(plane_for_order(q))
    want = (q + 1, q * (q + 1) // 2, q * (q - 1) // 2)
    assert c.line_census() == want
    assert c.point_census() == want
    assert sum(c.line_census()) == q * q + q + 1


def test_census_examples():
    assert canonical_conic(plane_for_order(5)).line_census() == (6, 15, 10)
    assert canonical_conic(plane_for_order(7)).line_census() == (8, 28, 21)
    assert canonical_conic(plane_for_order(5)).point_census() == (6, 15, 10)
    assert canonical_conic(plane_for_order(7)).point_census() == (8, 28, 21)


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_line_type_interior_counts(q):
    """Secants carry (q-1)/2 interior points, external lines (q+1)/2."""
    pl = plane_for_order(q)
    c = canonical_conic(pl)
    for l in range(pl.n):
        interior = sum(
            1 for p in mask_bits(pl.line_masks[l]) if c.classify_point(p) is PointClass.INTERIOR
        )
        cls = c.classify_line(l)
        if cls is LineClass.SECANT:
            assert interior == (q - 1) // 2
        elif cls is LineClass.EXTERNAL:
            assert interior == (q + 1) // 2
        else:
            assert interior == 0


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31])
def test_discriminant_matches_tangent_count(q):
    """On the external line z = ax the sign of xi^2 - a classifies points."""
    pl = plane_for_order(q)
    gf = pl.gf
    c = canonical_conic(pl)
    a = gf.smallest_nonsquare()
    for xi in range(q):
        p = pl.index_of((1, xi, a))
        assert c.classify_point(p) is discriminant_point_class(a, xi, gf)


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_transform_invariance(q):
    """Censuses survive 100 random invertible coordinate changes."""
    pl = plane_for_order(q)
    c = canonical_conic(pl)
    want_l, want_p = c.line_census(), c.point_census()
    rng = random.Random(q)
    for _ in range(100):
        m = random_invertible(pl.gf, rng)
        c2 = c.transform(m)
        assert c2.line_census() == want_l
        assert c2.point_census() == want_p
        assert sorted(c2.points) == sorted(pl.apply_matrix(m, p) for p in c.points)


def test_geometry_outputs_match_the_pinned_digests():
    """The dichotomy reports over every external line and random images, and
    the coefficients of chained transforms, at every odd q <= 31
    (`output_manifest.geometry_outputs`)."""
    for name, value in geometry_outputs().items():
        assert canonical_sha256(value) == PINNED[name], name


def test_conic_points_match_the_pinned_digest():
    """The points of the canonical conic and of 10 random images at every odd
    q <= 64 (`output_manifest.conic_outputs`)."""
    for name, value in conic_outputs().items():
        assert canonical_sha256(value) == PINNED[name], name


def test_is_arc_and_conic_fit():
    pl = plane_for_order(5)
    c = canonical_conic(pl)
    assert is_arc(pl, c.points)
    assert arc_is_conic_check(pl, c.points)
    # a 3-secant ruins an arc
    line_pts = mask_bits(pl.line_masks[0])[:3]
    assert not is_arc(pl, line_pts + list(c.points)[:2])
    with pytest.raises(TooFewPoints):
        arc_is_conic_check(pl, list(c.points)[:4])


def test_dual_arc_of_interior_set():
    """The six lines missing the interior 10-set form a dual conic."""
    from pg2q.constructions import interior_points

    pl = plane_for_order(5)
    c = canonical_conic(pl)
    s = interior_points(c)
    missing = [l for l, cnt in enumerate(s.per_line) if cnt == 0]
    assert len(missing) == 6
    # self-duality: no three of the lines are concurrent, read as an arc
    assert is_arc(pl, missing)
    # line duals live in the same coordinate space, so the conic fit applies
    assert arc_is_conic_check(pl, missing)
    # those lines are exactly the tangent lines of the conic
    assert sorted(missing) == sorted(c.tangent_lines)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_external_joins_are_the_external_joins(q):
    """On the canonical conic and on a transformed one; every point is read
    twice, so the second read comes from the conic's table of joins."""
    pl = plane_for_order(q)
    canonical = canonical_conic(pl)
    for c in (canonical, canonical.transform(random_invertible(pl.gf, random.Random(q)))):
        assert c.external_lines == sum(
            1 << l for l in range(pl.n) if c.classify_line(l) is LineClass.EXTERNAL
        )
        want = [
            sum(1 << r for r in range(pl.n) if r != p and c.classify_line(pl.meet(p, r)) is LineClass.EXTERNAL)
            for p in range(pl.n)
        ]
        for _ in range(2):
            assert [c.external_joins(p) & ~(1 << p) for p in range(pl.n)] == want
