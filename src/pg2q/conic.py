"""Conic machinery: point/line classification against an irreducible conic,
tangent structure, censuses, and arc tests.

A conic is a ternary quadratic form given by six coefficients
(xx, yy, zz, xy, xz, yz); the canonical one is y^2 - xz.  Classification
assumes q odd (no conic theory attempted in characteristic 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, reduce
from operator import or_

from .gfq import GF, QuadChar
from .linalg import mat_inverse, mat_vec
from .plane import Plane, PointSet, check_index, mask_bits, mask_of


class DegenerateConic(ValueError):
    pass


class LineClass(Enum):
    TANGENT = 1
    SECANT = 2
    EXTERNAL = 0


class PointClass(Enum):
    ON_CONIC = 1
    EXTERIOR = 2
    INTERIOR = 0


def evaluate_form(gf: GF, coeffs, v) -> int:
    """The quadratic form with coefficients (xx, yy, zz, xy, xz, yz) at v."""
    x, y, z = v
    xx, yy, zz, xy, xz, yz = coeffs
    acc = gf.mul(xx, gf.mul(x, x))
    acc = gf.add(acc, gf.mul(yy, gf.mul(y, y)))
    acc = gf.add(acc, gf.mul(zz, gf.mul(z, z)))
    acc = gf.add(acc, gf.mul(xy, gf.mul(x, y)))
    acc = gf.add(acc, gf.mul(xz, gf.mul(x, z)))
    acc = gf.add(acc, gf.mul(yz, gf.mul(y, z)))
    return acc


@lru_cache(maxsize=None)
def _square_roots(gf: GF) -> tuple[int | None, ...]:
    """roots[a]: a square root of a in GF(q), None for a non-square."""
    roots = [None] * gf.q
    for r, row in enumerate(gf.mul_table):
        roots[row[r]] = r
    return tuple(roots)


def form_zeros(plane: Plane, coeffs) -> tuple[int, ...]:
    """The points, ascending, where the form with coefficients (xx, yy, zz,
    xy, xz, yz) vanishes, for odd q.

    On the row of points <(1, y, z)> the form is zz z^2 + (xz + yz y) z +
    (xx + xy y + yy y^2), and on <(0, 1, z)> it is zz z^2 + yz z + yy: one
    quadratic a z^2 + b z + c in z per row, solved by the quadratic formula
    with a table of square roots.  Where a = b = 0 the row holds all of its
    points or none.  <(0, 0, 1)> is a zero when zz = 0.
    """
    gf = plane.gf
    q, add, mul = gf.q, gf.add_table, gf.mul_table
    neg = [gf.neg(x) for x in range(q)]
    roots = _square_roots(gf)
    xx, yy, zz, xy, xz, yz = coeffs
    if zz:
        four_a, inv_2a = mul[add[2][2]][zz], gf.inv(add[zz][zz])

    def row(b, c) -> list[int]:
        if zz:
            r = roots[add[mul[b][b]][neg[mul[four_a][c]]]]
            if r is None:
                return []
            return list({mul[add[neg[b]][r]][inv_2a], mul[add[neg[b]][neg[r]]][inv_2a]})
        if b:
            return [mul[neg[c]][gf.inv(b)]]
        return [] if c else list(range(q))

    out = []
    for y in range(q):
        out += [y * q + z for z in row(add[xz][mul[yz][y]], add[xx][mul[y][add[xy][mul[yy][y]]]])]
    out += [q * q + z for z in row(yz, yy)]
    if not zz:
        out.append(q * q + q)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Conic:
    """Irreducible conic on a plane of odd order."""

    plane: Plane
    coeffs: tuple[int, int, int, int, int, int]  # xx, yy, zz, xy, xz, yz

    def __post_init__(self):
        if self.plane.q % 2 == 0:
            raise DegenerateConic("conic classification requires odd q")
        pts = self.points
        if len(pts) != self.plane.q + 1:
            raise DegenerateConic(f"form has {len(pts)} rational points, expected q+1")
        if self.plane.q + 1 in self.line_intersections:
            raise DegenerateConic("form vanishes on a full line")

    def evaluate(self, v) -> int:
        return evaluate_form(self.plane.gf, self.coeffs, v)

    @cached_property
    def points(self) -> tuple[int, ...]:
        return form_zeros(self.plane, self.coeffs)

    @cached_property
    def line_intersections(self) -> bytes:
        return PointSet(self.plane, self.points).per_line

    @cached_property
    def tangent_lines(self) -> tuple[int, ...]:
        return tuple(l for l, c in enumerate(self.line_intersections) if c == 1)

    @cached_property
    def external_lines(self) -> int:
        """Mask of the external lines, indexed by line."""
        return mask_of(l for l, c in enumerate(self.line_intersections) if c == 0)

    @cached_property
    def _external_joins(self) -> dict[int, int]:
        return {}

    def external_joins(self, p: int) -> int:
        """Mask of the points on an external line through p, kept with the
        conic from its first read.  Points and lines share one index space,
        so line_masks[p] is the pencil of p."""
        joins = self._external_joins
        if p not in joins:
            check_index(self.plane.n, p)
            lm = self.plane.line_masks
            joins[p] = reduce(or_, (lm[l] for l in mask_bits(lm[p] & self.external_lines)), 0)
        return joins[p]

    def classify_line(self, l: int) -> LineClass:
        check_index(self.plane.n, l, kind="line")
        c = self.line_intersections[l]
        if c == 1:
            return LineClass.TANGENT
        return LineClass.SECANT if c == 2 else LineClass.EXTERNAL

    @cached_property
    def _tangent_counts(self) -> bytes:
        # self-duality: the lines of a set L through point p are the members of L on line p
        return PointSet(self.plane, self.tangent_lines).per_line

    @cached_property
    def exterior(self) -> int:
        """Mask of the exterior points, those on two tangents."""
        return mask_of(p for p, c in enumerate(self._tangent_counts) if c == 2)

    @cached_property
    def interior(self) -> int:
        """Mask of the interior points, those on no tangent."""
        return mask_of(p for p, c in enumerate(self._tangent_counts) if c == 0)

    def classify_point(self, p: int) -> PointClass:
        check_index(self.plane.n, p)
        c = self._tangent_counts[p]
        if c == 1:
            return PointClass.ON_CONIC
        return PointClass.EXTERIOR if c == 2 else PointClass.INTERIOR

    def line_census(self) -> tuple[int, int, int]:
        """(tangent, secant, external) line counts."""
        li = self.line_intersections
        t, s = li.count(1), li.count(2)
        return t, s, self.plane.n - t - s

    def point_census(self) -> tuple[int, int, int]:
        """(on-conic, exterior, interior) point counts."""
        return len(self.points), self.exterior.bit_count(), self.interior.bit_count()

    def transform(self, mat) -> "Conic":
        """Conic with point set mapped by x -> Mx: the form Q'(y) = Q(M^-1 y),
        its coefficients read off Q' at e1, e2, e3 and the sums ei + ej, a
        cross term being Q'(ei + ej) - Q'(ei) - Q'(ej)."""
        gf = self.plane.gf
        minv = mat_inverse(mat, gf)

        def image(v):
            return self.evaluate(mat_vec(minv, v, gf))

        xx, yy, zz = image((1, 0, 0)), image((0, 1, 0)), image((0, 0, 1))
        xy = gf.sub(gf.sub(image((1, 1, 0)), xx), yy)
        xz = gf.sub(gf.sub(image((1, 0, 1)), xx), zz)
        yz = gf.sub(gf.sub(image((0, 1, 1)), yy), zz)
        return Conic(self.plane, (xx, yy, zz, xy, xz, yz))


@lru_cache(maxsize=None)
def canonical_conic(plane: Plane) -> Conic:
    """The conic y^2 = xz: points <(1,t,t^2)> for t in GF(q) plus <(0,0,1)>;
    one shared instance per plane."""
    neg1 = plane.gf.neg(1)
    return Conic(plane, (0, 1, 0, 0, neg1, 0))


def interior_point_indices(conic: Conic) -> list[int]:
    return mask_bits(conic.interior)


def discriminant_point_class(conic_line_a: int, xi: int, gf: GF) -> PointClass:
    """Classify <(1,xi,a)> on the external line z = ax of the canonical conic
    by the sign of xi^2 - a (square: exterior, non-square: interior)."""
    d = gf.sub(gf.mul(xi, xi), conic_line_a)
    ch = gf.quad_char(d)
    if ch is QuadChar.ZERO:
        return PointClass.ON_CONIC
    return PointClass.EXTERIOR if ch is QuadChar.SQUARE else PointClass.INTERIOR


# -- arcs ----------------------------------------------------------------------


def is_arc(plane: Plane, indices) -> bool:
    """No line carries three of the given points."""
    return max(PointSet(plane, indices).per_line) <= 2
