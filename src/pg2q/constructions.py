"""Explicit constructions of sets without tangents.  `build` maps a
construction name to its set; each Construction carries its certificate,
the claimed size against the actual size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conic import Conic, canonical_conic
from .exterior import pg25_ten_set
from .gfq import GF, QuadChar, field_for_order
from .plane import PointSet, check_index, mask_bits, mask_of, plane_for_order
from .tangency import Spectrum, WrongSize, is_tangent_free, redei_completion, spectrum


class InvalidA(ValueError):
    pass


class QTooSmall(ValueError):
    pass


class RTooLarge(ValueError):
    pass


class NotExterior(ValueError):
    pass


def trivial(q: int) -> PointSet:
    """Points of two lines minus their intersection: 2q points, no tangents."""
    plane = plane_for_order(q)
    return PointSet.from_mask(plane, plane.line_masks[0] ^ plane.line_masks[1])


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
    valid = find_valid_a(q)
    if a not in valid:
        raise InvalidA(f"a={a}: need 1-a and a(a-1) nonzero squares in GF({q}), that is a in {valid}")
    plane = plane_for_order(q)
    gf = plane.gf
    c1 = Conic(plane, (0, 0, 1, gf.neg(1), 0, 0))
    c2 = Conic(plane, (0, 0, 1, gf.neg(a), 0, 0))
    return PointSet.from_mask(plane, mask_of(c1.points) ^ mask_of(c2.points))


def interior_points(conic: Conic) -> PointSet:
    """All interior points of the conic: q(q-1)/2 points, tangent-free for
    q >= 5."""
    q = conic.plane.q
    if q < 5:
        raise QTooSmall("interior points of a conic have tangents for q=3")
    return PointSet.from_mask(conic.plane, conic.interior)


def punctured_interior(conic: Conic, exterior_point: int, r: int) -> PointSet:
    """Interior points off r external lines through a chosen exterior point.

    Lines are picked by ascending index so outputs are reproducible.
    """
    plane = conic.plane
    q = plane.q
    if not 0 <= r <= (q - 5) // 2:
        raise RTooLarge(f"need 0 <= r <= (q-5)/2 = {(q - 5) // 2}")
    check_index(plane.n, exterior_point)
    if not (conic.exterior >> exterior_point) & 1:
        raise NotExterior(f"point {exterior_point} is not exterior")
    ext_lines = mask_bits(plane.line_masks[exterior_point] & conic.external_lines)
    if len(ext_lines) < r:
        raise RTooLarge(f"only {len(ext_lines)} external lines through the point")
    removed = 0
    for l in ext_lines[:r]:
        removed |= plane.line_masks[l]
    return PointSet.from_mask(plane, conic.interior & ~removed)


def _graph_completion(q: int, graph_map) -> PointSet:
    """Affine graph {<(1, x, graph_map(gf, x))>} completed with the non-determined
    directions on the line x = 0."""
    gf = field_for_order(q)
    if gf.p == 2:
        raise WrongSize("construction needs odd characteristic")
    plane = plane_for_order(q)
    linf = plane.index_of((1, 0, 0))  # dual coords of the line x = 0
    affine = PointSet(plane, (plane.index_of((1, x, graph_map(gf, x))) for x in range(q)))
    return redei_completion(affine, linf)


def frobenius_graph(q: int) -> PointSet:
    """Graph of x -> x^p plus non-determined directions (the trivial set
    when q is prime)."""
    return _graph_completion(q, GF.frobenius)


def trace_graph(q: int) -> PointSet:
    """Graph of the trace map plus non-determined directions; size 2q - q/p."""
    return _graph_completion(q, GF.trace)


def verify_desargues(s: PointSet) -> bool:
    """Ten points, exactly ten 3-secant lines, three of them through each
    member, and no line with four members."""
    if len(s) != 10:
        raise WrongSize("a Desargues configuration has 10 points")
    three = [l for l, c in enumerate(s.per_line) if c == 3]
    if len(three) != 10 or any(c >= 4 for c in s.per_line):
        return False
    # self-duality: the lines of a set L through point p are the members of L on line p
    through = PointSet(s.plane, three).per_line
    return all(through[p] == 3 for p in s)


# -- the construction list ----------------------------------------------------------


@dataclass(frozen=True)
class Construction:
    """A named set without tangents and the size claimed for it, with its
    certificate: the tangent check and the spectrum are taken when it is
    built."""

    name: str
    points: PointSet
    claimed_size: int
    notes: str = ""
    tangent_free: bool = field(init=False)
    spectrum: Spectrum = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tangent_free", is_tangent_free(self.points))
        object.__setattr__(self, "spectrum", spectrum(self.points))

    @property
    def q(self) -> int:
        return self.points.plane.q

    @property
    def actual_size(self) -> int:
        return len(self.points)

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


def options_for(name: str, q: int, r: int | None = None, a: int | None = None) -> dict[str, int]:
    """The options the named construction reads, defaults filled in: r for
    punctured_interior (default 0) and a for two_conics (default the least
    valid a).  An option given to any other construction is refused."""
    if r is not None and name != "punctured_interior":
        raise ValueError(f"--r applies only to punctured_interior, not to {name}")
    if a is not None and name != "two_conics":
        raise ValueError(f"--a applies only to two_conics, not to {name}")
    if name == "punctured_interior":
        return {"r": r or 0}
    if name == "two_conics":
        a = min(find_valid_a(q), default=None) if a is None else a
        if a is None:
            raise InvalidA(f"no valid two-conic parameter exists for q={q}")
        return {"a": a}
    return {}


def build(name: str, q: int, r: int | None = None, a: int | None = None) -> Construction:
    """The named construction at order q and the size claimed for it, the one
    map from a name to its set; options_for says which of r and a it reads.
    The Frobenius size is the printed formula, which the construction
    disagrees with."""
    opts = options_for(name, q, r, a)
    plane = plane_for_order(q)
    p = plane.gf.p
    notes = ""
    if name == "trivial":
        ps, claimed = trivial(q), 2 * q
    elif name == "two_conics":
        ps, claimed, notes = two_conics(q, opts["a"]), 2 * (q - 1), f"a={opts['a']}"
    elif name == "interior":
        ps, claimed = interior_points(canonical_conic(plane)), q * (q - 1) // 2
    elif name == "punctured_interior":
        r = opts["r"]
        con = canonical_conic(plane)
        ext = (con.exterior & -con.exterior).bit_length() - 1  # the least exterior point
        ps, claimed = punctured_interior(con, ext, r), q * (q - 1) // 2 - r * (q + 1) // 2
        name = f"punctured_interior_r{r}"
    elif name == "trace_graph":
        ps, claimed = trace_graph(q), 2 * q - q // p
    elif name == "frobenius_graph":
        ps, claimed = frobenius_graph(q), q + (q - p) // (p - 1)
        notes = "printed size formula disagrees with the construction; kept for the record"
    elif name == "pg25_ten_set":
        if q != 5:
            raise ValueError("pg25_ten_set is defined for q=5")
        ps, claimed = pg25_ten_set(), 10
    else:
        raise ValueError(f"unknown construction {name}")
    if name.endswith("_graph") and plane.gf.h == 1:
        notes = "prime field: graph of the identity map, set is the trivial one"
    return Construction(name, ps, claimed, notes)


def all_certificates(q: int) -> list[Construction]:
    """Every construction applicable at this order, in a fixed order, each
    carrying its certificate."""
    gf = field_for_order(q)
    out = [build("trivial", q)]
    if q % 2 == 1 and q > 5 and find_valid_a(q):
        out.append(build("two_conics", q))
    if q % 2 == 1 and q >= 5:
        out.append(build("interior", q))
        out += [build("punctured_interior", q, r=r) for r in range((q - 5) // 2 + 1)]
    if gf.p > 2 and gf.h >= 2:
        out += [build("trace_graph", q), build("frobenius_graph", q)]
    return out
