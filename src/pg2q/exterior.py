"""Exterior sets of a conic: extension of the exterior points on an external
line by an extra point, the PG(2,5) ten-set, and clique searches for
half-line exterior sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .conic import Conic, canonical_conic, is_arc
from .gfq import GF, QuadChar
from .linalg import random_invertible
from .plane import Plane, PointSet, check_index, mask_bits, mask_of, plane_for_order
from .tangency import is_tangent_free


class NotExternal(ValueError):
    pass


class TooLarge(ValueError):
    """The input is beyond the size an exhaustive search is run at."""


def exterior_points_on_line(conic: Conic, line: int) -> list[int]:
    check_index(conic.plane.n, line, kind="line")
    if not (conic.external_lines >> line) & 1:
        raise NotExternal(f"line {line} is not external")
    return mask_bits(conic.plane.line_masks[line] & conic.exterior)


@dataclass(frozen=True)
class ExteriorSetReport:
    q: int
    conic_coeffs: tuple[int, ...]
    base_line: int
    base_points: tuple[int, ...]
    extenders_on_line: tuple[int, ...]
    extenders_off_line: tuple[int, ...]

    def to_json(self, plane: Plane) -> dict:
        return {
            "q": self.q,
            "conic": list(self.conic_coeffs),
            "base_line": list(plane.coords[self.base_line]),
            "base_points": [list(plane.coords[p]) for p in self.base_points],
            "extenders_on_line": [list(plane.coords[p]) for p in self.extenders_on_line],
            "extenders_off_line": [list(plane.coords[p]) for p in self.extenders_off_line],
        }


def find_extenders(conic: Conic, line: int) -> ExteriorSetReport:
    """Points Q extending the exterior points of an external line to a larger
    exterior set: the base is already exterior, so Q extends it exactly when
    its join with every base point is external."""
    base = exterior_points_on_line(conic, line)
    ext = ~mask_of(base)
    for b in base:
        ext &= conic.external_joins(b)
    on_line = ext & conic.plane.line_masks[line]
    return ExteriorSetReport(
        conic.plane.q,
        conic.coeffs,
        line,
        tuple(base),
        tuple(mask_bits(on_line)),
        tuple(mask_bits(ext & ~on_line)),
    )


def canonical_external_line(plane: Plane) -> tuple[Conic, int, int]:
    """Canonical conic y^2 = xz with the external line z = ax, a the smallest
    non-square; returns (conic, line index, a)."""
    gf = plane.gf
    a = gf.smallest_nonsquare()
    conic = canonical_conic(plane)
    line = plane.index_of((a, 0, gf.neg(1)))
    return conic, line, a


def external_line_test_formula(gf: GF, alpha: int, lam: int, xi: int, a: int) -> QuadChar:
    """Quadratic character of (lam-a)^2 - 4(alpha*a - xi*lam)(xi - alpha); the
    join of <(1,alpha,lam)> and <(1,xi,a)> is external iff it is a non-square."""
    four = gf.add(gf.add(1, 1), gf.add(1, 1))
    t1 = gf.sub(lam, a)
    disc = gf.sub(
        gf.mul(t1, t1),
        gf.mul(four, gf.mul(gf.sub(gf.mul(alpha, a), gf.mul(xi, lam)), gf.sub(xi, alpha))),
    )
    return gf.quad_char(disc)


def join_line_coords(gf: GF, alpha: int, lam: int, xi: int, a: int) -> tuple[int, int, int]:
    """Dual coordinates of the join used by the test formula."""
    return (
        gf.sub(gf.mul(alpha, a), gf.mul(xi, lam)),
        gf.sub(lam, a),
        gf.sub(xi, alpha),
    )


@dataclass(frozen=True)
class DichotomyReport:
    q: int
    residue: int  # q mod 4
    off_line_count: int
    expected_off: int
    predicted_point_hit: bool  # off-line extender equals <(1,0,-a)> when q=1 mod 4
    every_line_point_extends: bool
    ok: bool


DICHOTOMY_TRANSFORMS = 3


def check_extension_dichotomy(q: int, all_lines: bool = False, rng=None) -> DichotomyReport:
    """For the canonical pair, DICHOTOMY_TRANSFORMS random images of it (and
    optionally all external lines): q = 3 mod 4 admits no off-line extender,
    q = 1 mod 4 exactly one, namely <(1,0,-a)> in canonical coordinates."""
    plane = plane_for_order(q)
    gf = plane.gf
    conic, line, a = canonical_external_line(plane)
    cases = [(conic, line, plane.index_of((1, 0, gf.neg(a))))]
    if all_lines:
        for l in mask_bits(conic.external_lines & ~(1 << line)):
            slope = _line_slope(plane, l)
            pred = plane.index_of((1, 0, gf.neg(slope))) if slope is not None else None
            cases.append((conic, l, pred))
    if rng is None:
        rng = random.Random(q)
    p0, p1 = mask_bits(plane.line_masks[line])[:2]
    for _ in range(DICHOTOMY_TRANSFORMS):
        m = random_invertible(gf, rng)
        cases.append(
            (
                conic.transform(m),
                plane.meet(plane.apply_matrix(m, p0), plane.apply_matrix(m, p1)),  # the image line
                plane.apply_matrix(m, plane.index_of((1, 0, gf.neg(a)))),
            )
        )
    residue = q % 4
    expected_off = 1 if residue == 1 else 0
    counts_ok = True
    off_count = None
    hit = True
    every = True
    for con, l, predicted in cases:
        rep = find_extenders(con, l)
        if off_count is None:
            off_count = len(rep.extenders_off_line)
        if len(rep.extenders_off_line) != expected_off:
            counts_ok = False
        if residue == 1 and predicted is not None and rep.extenders_off_line != (predicted,):
            hit = False
        if mask_of(rep.extenders_on_line) != con.plane.line_masks[l] ^ mask_of(rep.base_points):
            every = False
    return DichotomyReport(
        q, residue, off_count, expected_off, hit, every, counts_ok and hit and every
    )


def _line_slope(plane: Plane, line: int):
    """For a line z = ax (dual (a, 0, -1) up to scale), return a; else None."""
    a_, b_, c_ = plane.coords[line]
    if b_ != 0 or c_ == 0:
        return None
    gf = plane.gf
    return gf.neg(gf.div(a_, c_))


def pg25_ten_set() -> PointSet:
    """Conic points, the three exterior points of an external line, and the
    meet of their second external lines: the non-trivial 10-set in PG(2,5)."""
    plane = plane_for_order(5)
    conic, line, a = canonical_external_line(plane)
    base = exterior_points_on_line(conic, line)
    if len(base) != 3:
        raise AssertionError("an external line of PG(2,5) holds three exterior points")
    second = []
    for p in base:
        others = mask_bits(plane.line_masks[p] & conic.external_lines & ~(1 << line))
        if len(others) != 1:
            raise AssertionError("each exterior point lies on one more external line")
        second.append(others[0])
    q1 = plane.meet(second[0], second[1])
    q2 = plane.meet(second[0], second[2])
    if q1 != q2:
        raise AssertionError("the three second external lines must be concurrent")
    out = PointSet(plane, (*conic.points, *base, q1))
    if not (len(out) == 10 and is_tangent_free(out)):
        raise AssertionError("the PG(2,5) 10-set must be tangent-free")
    return out


def exterior_clique_search(q: int, no_three_collinear: bool = False) -> list[PointSet]:
    """All exterior sets of (q+1)/2 exterior points of the canonical conic:
    cliques in the graph joining pairs whose connecting line is external.

    With no_three_collinear, keep only cliques no three of whose points are
    collinear.  For q = 1 mod 4 every clique must be collinear and this is
    asserted.
    """
    if q % 2 == 0:
        raise TooLarge("exterior point cliques need odd q")
    if q > 13:
        raise TooLarge("clique search is kept to q <= 13")
    plane = plane_for_order(q)
    conic = canonical_conic(plane)
    k = (q + 1) // 2
    cliques: list[tuple[int, ...]] = []

    def extend(members, cand):
        if len(members) == k:
            cliques.append(members)
            return
        if len(members) + cand.bit_count() < k:
            return
        c = cand
        while c:
            bit = c & -c
            c ^= bit
            p = bit.bit_length() - 1
            extend(members + (p,), c & conic.external_joins(p))

    extend((), conic.exterior)
    out = [
        PointSet(plane, members)
        for members in cliques
        if not no_three_collinear or is_arc(plane, members)
    ]
    if q % 4 == 1 and not no_three_collinear:
        if not all(len(s) in s.per_line for s in out):
            raise AssertionError("q = 1 mod 4: every half-line exterior set must be collinear")
    return out


def conic_union_check(conic: Conic, exterior_members) -> bool:
    """Is the union of the conic with the given exterior set tangent-free?"""
    union = PointSet(conic.plane, (*conic.points, *exterior_members))
    return is_tangent_free(union)
