"""The incidence structure PG(2,q): points, lines, joins, meets, point sets.

Points and lines are normalized homogeneous triples (first nonzero coordinate
scaled to 1) addressed by a dense index in [0, q^2+q+1).  Enumeration order:
<(1,y,z)> by (y,z) code-lexicographic, then <(0,1,z)> by z, then <(0,0,1)>.
A line with dual triple (a,b,c) gets the index of the point (a,b,c), so
points and lines share one index space, and point p lies on line l exactly
when the dot product of their triples vanishes.  That relation is symmetric,
so the points on line i and the lines through point i are the same indices.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from itertools import compress, product
from operator import getitem

from .gfq import GF, FieldSpec, field_for_order, field_new, order_exceeds
from .linalg import mat_vec


# A Plane's one incidence table is line_masks, n masks of n bits (n = q^2+q+1):
# about 2.2 MB at q = 64, growing as q^4 (130 GB at q = 1009).
MAX_PLANE_ORDER = 64


class IdenticalLines(ValueError):
    pass


class Plane:
    """PG(2,q) and its one incidence table, line_masks; immutable after construction."""

    def __init__(self, gf: GF):
        _check_plane_order(gf.p, gf.h)
        self.gf = gf
        q = self.q = gf.q
        self.n = q * q + q + 1
        coords = [(1, y, z) for y in range(q) for z in range(q)] + [(0, 1, z) for z in range(q)] + [(0, 0, 1)]
        self.coords: list[tuple[int, int, int]] = coords
        self._index = {c: i for i, c in enumerate(coords)}
        self.line_masks = [self._line_mask(a, b, c) for a, b, c in coords]

    @cached_property
    def singer(self) -> SingerCycle:
        """The plane indexed along a Singer cycle, built on first use."""
        return SingerCycle(self)

    def _line_mask(self, a: int, b: int, c: int) -> int:
        """The mask of the q+1 points on the line ax + by + cz = 0."""
        gf, q = self.gf, self.q
        if c:
            # <(1, y, z)> with z = u + v y, then <(0, 1, v)>
            ic = gf.inv(c)
            u, v = gf.mul(gf.neg(a), ic), gf.mul(gf.neg(b), ic)
            return sum(1 << (y * q + gf.add(u, gf.mul(v, y))) for y in range(q)) | 1 << (q * q + v)
        if b:
            # <(1, -a/b, z)> for every z, then <(0, 0, 1)>
            y = gf.mul(gf.neg(a), gf.inv(b))
            return ((1 << q) - 1) << (y * q) | 1 << (q * q + q)
        # the line x = 0: <(0, 1, z)> for every z, then <(0, 0, 1)>
        return ((1 << (q + 1)) - 1) << (q * q)

    # -- coordinates ---------------------------------------------------------

    def normalize(self, v) -> tuple[int, int, int]:
        gf = self.gf
        v = tuple(int(c) % gf.q if gf.h == 1 else int(c) for c in v)
        for c in v:
            if c:
                if c == 1:
                    return v
                inv = gf.inv(c)
                return tuple(gf.mul(inv, x) for x in v)
        raise ValueError("zero vector has no projective class")

    def index_of(self, v) -> int:
        return self._index[self.normalize(v)]

    def incident(self, p: int, l: int) -> bool:
        check_index(self.n, p)
        check_index(self.n, l, kind="line")
        return bool(self.line_masks[l] >> p & 1)

    def meet(self, l: int, m: int) -> int:
        """The one point on lines l and m, the AND of their masks.  Points and
        lines share one index space, so the same call with two points gives
        the line through them, their join."""
        check_index(self.n, l, m, kind="line")
        if l == m:
            raise IdenticalLines(f"line {l} repeated")
        return (self.line_masks[l] & self.line_masks[m]).bit_length() - 1

    def apply_matrix(self, mat, p: int) -> int:
        """Image of a point index under a 3x3 matrix (row-major codes)."""
        check_index(self.n, p)
        return self._index[self.normalize(mat_vec(mat, self.coords[p], self.gf))]


def _singer_orbit(gf: GF, n: int) -> list[tuple[int, int, int]]:
    """The powers 1, t, ..., t^(n-1) in GF(q)[t]/(t^3 - c2 t^2 - c1 t - c0), as
    coordinate triples on the basis 1, t, t^2, for the first cubic, c0 varying
    fastest, under which t has projective order n (Singer 1938).

    Multiplying by t is the companion matrix (a0, a1, a2) -> (c0 a2, a0 + c1 a2,
    a1 + c2 a2), a collineation.  A cubic with a root in GF(q) is skipped
    unwalked; an irreducible one whose t^k is a scalar for some k < n fails.
    When q = 1 (mod 3) every cubic with c0 a cube fails, so c0 runs innermost.
    """
    q, add, mul = gf.q, gf.add_table, gf.mul_table
    cubes = [mul[x][mul[x][x]] for x in range(q)]
    for c2, c1, c0 in product(range(q), range(q), range(1, q)):
        if any(cubes[x] == add[mul[add[mul[c2][x]][c1]][x]][c0] for x in range(q)):
            continue
        m0, m1, m2 = mul[c0], mul[c1], mul[c2]
        orbit = [(1, 0, 0)]
        a0, a1, a2 = 1, 0, 0
        while True:
            a0, a1, a2 = m0[a2], add[a0][m1[a2]], add[a1][m2[a2]]
            if not (a1 or a2):
                break
            orbit.append((a0, a1, a2))
        if len(orbit) == n:
            return orbit
    raise RuntimeError(f"no Singer cycle over {gf!r}")


class SingerCycle:
    """PG(2,q) indexed along a Singer cycle: a collineation that permutes the
    n points in one cycle.  `point_of[k]` is the k-th point from <(1,0,0)>
    (slot k) and `slot` is its inverse.  The slots of line 0,
    `difference_set` D, are a perfect difference set mod n, so the lines are
    exactly the translates D + j, j in [0, n).

    A set of slots packs into an int with one byte per slot, byte k 1 when
    slot k is in the set (`indicator` gives the bytes).  Its line counts are
    then one product: byte j of S(x) D(x^-1) mod x^n - 1 is |S & (D + j)|.
    A count, and the number of packed lines through a slot, is at most
    q + 1 <= MAX_PLANE_ORDER + 1 < 256, so no byte ever carries.
    """

    def __init__(self, plane: Plane):
        n = self.n = plane.n
        self.point_of: tuple[int, ...] = tuple(plane.index_of(v) for v in _singer_orbit(plane.gf, n))
        slot = [0] * n
        for k, p in enumerate(self.point_of):
            slot[p] = k
        self.slot: tuple[int, ...] = tuple(slot)
        self.difference_set: tuple[int, ...] = tuple(sorted(slot[p] for p in mask_bits(plane.line_masks[0])))
        self._bits = 8 * n
        self._low = (1 << self._bits) - 1
        self._diffs = sum(1 << 8 * d for d in self.difference_set)  # D(x)
        self._diffs_rev = sum(1 << 8 * (-d % n) for d in self.difference_set)  # D(x^-1)

    def indicator(self, points) -> bytearray:
        """One byte per slot, 1 at the slots of the given points (a collection;
        a repeated point counts once).  IndexError for a point off the plane."""
        n, slot = self.n, self.slot
        check_index(n, *points)
        out = bytearray(n)
        for p in points:
            out[slot[p]] = 1
        return out

    def points(self, indicator) -> set[int]:
        """The points at the non-zero bytes of a slot indicator."""
        return set(compress(self.point_of, indicator))

    def _cyclic(self, prod: int) -> bytes:
        """The bytes of a product reduced mod x^n - 1."""
        return ((prod & self._low) + (prod >> self._bits)).to_bytes(self.n, "little")

    def line_counts(self, packed: int) -> bytes:
        """Byte j: the number of packed slots on the line D + j."""
        return self._cyclic(packed * self._diffs_rev)

    def line_hits(self, packed_lines: int) -> bytes:
        """Byte k: the number of packed lines (byte j for D + j) through slot k."""
        return self._cyclic(packed_lines * self._diffs)


def mask_bits(mask: int) -> list[int]:
    """The indices of the set bits of a point or line mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(points) -> int:
    """The mask with the bits of the given point or line indices set (a
    repeated index counts once); the inverse of `mask_bits`."""
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


def check_index(n: int, *indices: int, kind: str = "point") -> None:
    """IndexError, naming the kind of index, unless every index lies in [0, n)."""
    if indices and (min(indices) < 0 or max(indices) >= n):
        raise IndexError(f"{kind} indices must lie in [0, {n})")


def checked_mask(points, n: int) -> int:
    """`mask_of` the points of a plane of n points; IndexError for a point
    outside [0, n)."""
    points = tuple(points)  # an error raised producing them is not a bad index
    try:
        mask = mask_of(points)
    except ValueError:  # a negative index: a negative shift
        mask = -1
    if mask < 0 or mask >> n:
        raise IndexError(f"point indices must lie in [0, {n})")
    return mask


def byte_tables(images, empty=0) -> list[list]:
    """Tables that map a mask over len(images) bits one byte at a time, for
    `by_bytes`: entry b of table k is the sum, from `empty`, of images[8k + i]
    over the set bits i of b.  With images[p] = 1 << g(p), g a permutation,
    the images are disjoint bits and a mask maps to the mask of its image
    under g; with images[p] = (p,) it maps to its indices as a sorted tuple."""
    tables = []
    for k in range(0, len(images), 8):
        table = [empty]
        for image in images[k:k + 8]:
            table += [t + image for t in table]  # the entries with this bit set
        tables.append(table)
    return tables


def by_bytes(tables, mask: int, empty=0):
    """A mask mapped through `byte_tables`: one lookup per byte, summed."""
    return sum(map(getitem, tables, mask.to_bytes(len(tables), "little")), empty)


# GF hashes by its FieldSpec, whose modulus is resolved: one Plane per field
_plane_of = lru_cache(maxsize=None)(Plane)


def _check_plane_order(p: int, h: int = 1) -> None:
    """Refuse PG(2,p^h) above MAX_PLANE_ORDER before its field is built, so
    that the refusal names the plane cap, also above gfq.MAX_ORDER."""
    if h >= 1 and order_exceeds(p, h, MAX_PLANE_ORDER):
        order = f"{p}^{h}" if h > 1 else p
        raise ValueError(f"PG(2,{order}) exceeds the plane order cap {MAX_PLANE_ORDER}")


def plane_for(p: int, h: int = 1, modulus=None) -> Plane:
    """PG(2,p^h) over the given modulus (None: the default one)."""
    _check_plane_order(p, h)
    return _plane_of(field_new(p, h, modulus))


def plane_for_order(q: int) -> Plane:
    """PG(2,q) over the default modulus of GF(q)."""
    _check_plane_order(q)
    return _plane_of(field_for_order(q))


def as_plane(plane: Plane | int) -> Plane:
    """The plane itself, or for an order q the default PG(2,q)."""
    return plane if isinstance(plane, Plane) else plane_for_order(plane)


class PointSet:
    """An immutable set of point indices, held as its point mask; per_line[l]
    is the number of its points on line l, the one line-count table of a set.
    A count is at most q + 1 <= MAX_PLANE_ORDER + 1 < 256, so the table is
    one byte a line."""

    def __init__(self, plane: Plane, members=()):
        self.plane = plane
        self.mask = checked_mask(members, plane.n)

    @classmethod
    def from_mask(cls, plane: Plane, mask: int) -> "PointSet":
        """The set of a point mask; IndexError for a negative mask or a bit at n or above."""
        if mask < 0 or mask >> plane.n:
            raise IndexError(f"point indices must lie in [0, {plane.n})")
        out = cls.__new__(cls)
        out.plane, out.mask = plane, mask
        return out

    @property
    def members(self) -> frozenset[int]:
        return frozenset(mask_bits(self.mask))

    @cached_property
    def per_line(self) -> bytes:
        mask = self.mask
        return bytes([(mask & lm).bit_count() for lm in self.plane.line_masks])

    def __contains__(self, p: int) -> bool:
        return 0 <= p < self.plane.n and bool(self.mask >> p & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(mask_bits(self.mask))

    def sorted_tuple(self) -> tuple[int, ...]:
        return tuple(mask_bits(self.mask))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.plane.gf.spec.to_json(),
            "points": [list(self.plane.coords[p]) for p in self],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PointSet":
        if not isinstance(obj, dict):
            raise ValueError("a point set must be a JSON object with \"field\" and \"points\"")
        if not isinstance(obj["field"], dict):
            raise ValueError("\"field\" must be a JSON object with \"p\", \"h\" and \"modulus\"")
        spec = FieldSpec.from_json(obj["field"])
        plane = plane_for(spec.p, spec.h, spec.modulus)
        points = obj["points"]
        if not isinstance(points, list):
            raise ValueError("points must be a list of coordinate triples")
        for v in points:
            if not (isinstance(v, list) and len(v) == 3 and all(type(c) is int for c in v)):
                raise ValueError(f"point {v!r} is not three integers")
            # a prime field reads any integer mod p; GF(p^h) codes have no such reading
            if spec.h > 1 and not all(0 <= c < plane.q for c in v):
                raise ValueError(f"point {v!r} has a code outside [0, {plane.q}), the elements of GF({plane.q})")
        return cls(plane, (plane.index_of(v) for v in points))

    def dump(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)
