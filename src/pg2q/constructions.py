"""Explicit constructions of sets without tangents, each with a
self-verification certificate recording claimed vs. actual size.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .conic import Conic, PointClass, canonical_conic, exterior_point_indices
from .gfq import GF, QuadChar, field_for_order
from .plane import PointSet, mask_bits, plane_for_order
from .tangency import Spectrum, WrongSize, is_tangent_free, redei_completion, spectrum


class InvalidA(ValueError):
    pass


class QTooSmall(ValueError):
    pass


class RTooLarge(ValueError):
    pass


class NotExterior(ValueError):
    pass


@dataclass(frozen=True)
class ConstructionCert:
    name: str
    q: int
    claimed_size: int
    actual_size: int
    tangent_free: bool
    spectrum: Spectrum
    notes: str = ""

    @property
    def status(self) -> str:
        if not self.tangent_free:
            return "INVALID"
        return "VALID" if self.claimed_size == self.actual_size else "FLAGGED"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "q": self.q,
            "claimed_size": self.claimed_size,
            "actual_size": self.actual_size,
            "tangent_free": self.tangent_free,
            "spectrum": str(self.spectrum),
            "status": self.status,
            "notes": self.notes,
        }


def certify(name: str, ps: PointSet, claimed_size: int, notes: str = "") -> ConstructionCert:
    return ConstructionCert(
        name, ps.plane.q, claimed_size, len(ps), is_tangent_free(ps), spectrum(ps), notes
    )


def trivial(q: int) -> PointSet:
    """Points of two lines minus their intersection: 2q points, no tangents."""
    plane = plane_for_order(q)
    l1, l2 = 0, 1
    z = plane.meet(l1, l2)
    members = (set(plane.points_on_line[l1]) | set(plane.points_on_line[l2])) - {z}
    return PointSet(plane, members)


def find_valid_a(q: int) -> list[int]:
    """All a with 1-a and a(a-1) nonzero squares (a not in {0,1})."""
    gf = field_for_order(q)
    out = []
    for a in range(2, q):
        one_minus = gf.sub(1, a)
        prod = gf.mul(a, gf.sub(a, 1))
        if gf.quad_char(one_minus) is QuadChar.SQUARE and gf.quad_char(prod) is QuadChar.SQUARE:
            out.append(a)
    return out


def two_conics(q: int, a: int) -> PointSet:
    """Symmetric difference of the conics z^2 = xy and z^2 = a xy."""
    if q <= 5 or q % 2 == 0:
        raise InvalidA("two-conic construction needs odd q > 5")
    plane = plane_for_order(q)
    gf = plane.gf
    if not 0 <= a < q:
        raise InvalidA(f"a={a} is not an element of GF({q}): need 0 <= a < {q}")
    if a in (0, 1):
        raise InvalidA("a must avoid 0 and 1")
    if gf.quad_char(gf.sub(1, a)) is not QuadChar.SQUARE or gf.quad_char(
        gf.mul(a, gf.sub(a, 1))
    ) is not QuadChar.SQUARE:
        raise InvalidA(f"a={a}: 1-a and a(a-1) must be nonzero squares")
    neg1 = gf.neg(1)
    c1 = Conic(plane, (0, 0, 1, neg1, 0, 0))
    c2 = Conic(plane, (0, 0, 1, gf.neg(a), 0, 0))
    members = set(c1.points) ^ set(c2.points)
    return PointSet(plane, members)


def interior_points(conic: Conic) -> PointSet:
    """All interior points of the conic: q(q-1)/2 points, tangent-free for
    q >= 5."""
    from .conic import interior_point_indices

    q = conic.plane.q
    if q < 5:
        raise QTooSmall("interior points of a conic have tangents for q=3")
    return PointSet(conic.plane, interior_point_indices(conic))


def punctured_interior(conic: Conic, exterior_point: int, r: int, rng=None) -> PointSet:
    """Interior points off r external lines through a chosen exterior point.

    Lines are picked by ascending index so outputs are reproducible; pass an
    rng for a randomized choice instead.
    """
    plane = conic.plane
    q = plane.q
    if not 0 <= r <= (q - 5) // 2:
        raise RTooLarge(f"need 0 <= r <= (q-5)/2 = {(q - 5) // 2}")
    if conic.classify_point(exterior_point) is not PointClass.EXTERIOR:
        raise NotExterior(f"point {exterior_point} is not exterior")
    ext_lines = mask_bits(plane.line_masks[exterior_point] & conic.external_lines)
    if len(ext_lines) < r:
        raise RTooLarge(f"only {len(ext_lines)} external lines through the point")
    chosen = sorted(rng.sample(ext_lines, r)) if rng is not None else ext_lines[:r]
    removed = 0
    for l in chosen:
        removed |= plane.line_masks[l]
    members = [
        p
        for p in range(plane.n)
        if conic.classify_point(p) is PointClass.INTERIOR and not (removed >> p) & 1
    ]
    return PointSet(plane, members)


def _graph_completion(q: int, graph_map) -> tuple[PointSet, str]:
    """Affine graph {<(1, x, graph_map(gf, x))>} completed with the non-determined
    directions on the line x = 0; returns the set and a notice ('' normally,
    a message when q is prime and the set is trivial)."""
    gf = field_for_order(q)
    if gf.p == 2:
        raise WrongSize("construction needs odd characteristic")
    plane = plane_for_order(q)
    linf = plane.index_of((1, 0, 0))  # dual coords of the line x = 0
    affine = PointSet(plane, (plane.index_of((1, x, graph_map(gf, x))) for x in range(q)))
    notice = "prime field: graph of the identity map, set is the trivial one" if gf.h == 1 else ""
    return redei_completion(affine, linf), notice


def frobenius_graph(q: int) -> tuple[PointSet, str]:
    """Graph of x -> x^p plus non-determined directions; returns the set and a
    notice ('' normally, a message when q is prime and the set is trivial)."""
    return _graph_completion(q, GF.frobenius)


def trace_graph(q: int) -> tuple[PointSet, str]:
    """Graph of the trace map plus non-determined directions; size 2q - q/p."""
    return _graph_completion(q, GF.trace)


def verify_desargues(s: PointSet) -> bool:
    """Ten points, exactly ten 3-secant lines, three of them through each
    member, and no line with four members."""
    if len(s) != 10:
        raise WrongSize("a Desargues configuration has 10 points")
    plane = s.plane
    three = [l for l, c in enumerate(s.per_line) if c == 3]
    if len(three) != 10 or any(c >= 4 for c in s.per_line):
        return False
    # self-duality: the lines of a set L through point p are the members of L on line p
    through = PointSet(plane, three).per_line
    return all(through[p] == 3 for p in s.members)


# -- the construction list ----------------------------------------------------------


def claimed_size(name: str, q: int, r: int = 0) -> int:
    """The size claimed for a named construction at order q; r is the number
    of external lines taken out of the interior by punctured_interior.  The
    Frobenius size is the printed formula, which the construction disagrees
    with."""
    p = field_for_order(q).p
    return {
        "trivial": 2 * q,
        "two_conics": 2 * (q - 1),
        "interior": q * (q - 1) // 2,
        "punctured_interior": q * (q - 1) // 2 - r * (q + 1) // 2,
        "trace_graph": 2 * q - q // p,
        "frobenius_graph": q + (q - p) // (p - 1),
        "pg25_ten_set": 10,
    }[name]


@dataclass(frozen=True)
class Construction:
    """A named set without tangents and the size claimed for it."""

    name: str
    points: PointSet
    claimed_size: int
    notes: str = ""


def constructions_at(q: int) -> Iterator[Construction]:
    """Every construction applicable at this order, in a fixed order."""
    plane = plane_for_order(q)
    yield Construction("trivial", trivial(q), claimed_size("trivial", q))
    if q % 2 == 1 and q > 5:
        valid = find_valid_a(q)
        if valid:
            yield Construction("two_conics", two_conics(q, valid[0]), claimed_size("two_conics", q),
                               f"a={valid[0]}")
    if q % 2 == 1 and q >= 5:
        con = canonical_conic(plane)
        yield Construction("interior", interior_points(con), claimed_size("interior", q))
        ext = exterior_point_indices(con)[0]
        for r in range(0, (q - 5) // 2 + 1):
            yield Construction(f"punctured_interior_r{r}", punctured_interior(con, ext, r),
                               claimed_size("punctured_interior", q, r))
    if plane.gf.p > 2 and plane.gf.h >= 2:
        yield Construction("trace_graph", trace_graph(q)[0], claimed_size("trace_graph", q))
        yield Construction("frobenius_graph", frobenius_graph(q)[0], claimed_size("frobenius_graph", q),
                           "printed size formula disagrees with the construction; kept for the record")


def all_certificates(q: int) -> list[ConstructionCert]:
    """Certify every construction applicable at this order."""
    return [certify(c.name, c.points, c.claimed_size, c.notes) for c in constructions_at(q)]
