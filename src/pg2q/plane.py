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
from itertools import product
from operator import getitem, itemgetter

from .gfq import GF, FieldSpec, field_for_order, field_new, order_exceeds, require_keys
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
        self.line_masks = _line_masks(gf, coords)

    @cached_property
    def singer(self) -> SingerCycle:
        """The plane indexed along a Singer cycle, built on first use."""
        return SingerCycle(self)

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


def _parallel_classes(gf: GF) -> list[list[int]]:
    """classes[v][u]: the mask of the line z = u + v y, the points <(1, y,
    u + v y)> for every y, then <(0, 1, v)>.

    Codes are base-p digit vectors added digit-wise, so adding p^i to every
    column z moves it up by p^i, or down by (p-1) p^i where its digit i is
    p-1.  For p^i <= u < p^(i+1), the line z = u + v y is the line z =
    (u - p^i) + v y with every row moved so at once: six operations on the
    whole mask.  The line z = v y reads its columns off the mul table."""
    p, q = gf.p, gf.q
    rows = sum(1 << (y * q) for y in range(q))  # column 0 of every row
    affine = (1 << (q * q)) - 1
    moves = []  # p^i, the affine bits moved up and down, the step down
    step = 1
    while step < q:
        down = rows * sum(1 << z for z in range(q) if z // step % p == p - 1)
        moves.append((step, affine ^ down, down, (p - 1) * step))
        step *= p
    classes = []
    for v, row in enumerate(gf.mul_table):
        inf = 1 << (q * q + v)
        masks = [sum(1 << (y * q + z) for y, z in enumerate(row)) | inf]
        for step, up, down, back in moves:
            for u in range(step, p * step):
                m = masks[u - step]
                masks.append((m & up) << step | (m & down) >> back | inf)
        classes.append(masks)
    return classes


def _line_masks(gf: GF, coords) -> list[int]:
    """The mask of the q+1 points on each line ax + by + cz = 0 of coords."""
    q, mul = gf.q, gf.mul_table
    classes = _parallel_classes(gf)
    neg_inv = [0] + [gf.neg(gf.inv(c)) for c in range(1, q)]  # -1/c
    out = []
    for a, b, c in coords:
        if c:
            # z = u + v y with u = -a/c, v = -b/c
            out.append(classes[mul[b][neg_inv[c]]][mul[a][neg_inv[c]]])
        elif b:
            # <(1, -a/b, z)> for every z, then <(0, 0, 1)>
            out.append(((1 << q) - 1) << (mul[a][neg_inv[b]] * q) | 1 << (q * q + q))
        else:
            # the line x = 0: <(0, 1, z)> for every z, then <(0, 0, 1)>
            out.append(((1 << (q + 1)) - 1) << (q * q))
    return out


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

    A set of slots is an n-bit mask, bit k for slot k (`slot_mask`), and a
    set of lines one too, bit j for D + j.  Doubling a mask to s | s << n
    makes every shift by d < n a rotation: bit j of that shifted right by d
    is slot j + d mod n, so the q + 1 shifts by the elements of D line up
    every line's slots on its own bit j, and one sweep over them counts each
    line's slots up to two.  Rotating a line mask L the other way by the same
    d, (L | L << n) >> (n - d), puts slot j + d of line D + j on bit j + d,
    so the OR of those gives the slots of the lines (`through`).
    """

    def __init__(self, plane: Plane):
        n = self.n = plane.n
        self.point_of: tuple[int, ...] = tuple(plane.index_of(v) for v in _singer_orbit(plane.gf, n))
        slot = [0] * n
        for k, p in enumerate(self.point_of):
            slot[p] = k
        self.slot: tuple[int, ...] = tuple(slot)
        # where each point's slot sits in a slot mask's n-digit binary numeral,
        # most significant digit first
        self._digit: tuple[int, ...] = tuple(n - 1 - k for k in slot)
        self._by_point_rev = itemgetter(*reversed(self._digit))
        self.difference_set: tuple[int, ...] = tuple(sorted(slot[p] for p in mask_bits(plane.line_masks[0])))
        self._full = (1 << n) - 1

    def slot_mask(self, points) -> int:
        """The slot mask of the given points (any iterable; a repeated point
        counts once), written as its binary numeral.  IndexError for a point
        off the plane."""
        points = tuple(points)
        check_index(self.n, *points)
        digits, at = bytearray(b"0") * self.n, self._digit
        for p in points:
            digits[at[p]] = 49  # "1"
        return int(digits, 2)

    def point_mask(self, s: int) -> int:
        """The point mask of a slot mask: its n-digit binary numeral, read in
        reverse point order, is the point mask's numeral."""
        if not s:
            return 0
        return int("".join(self._by_point_rev(format(s, f"0{self.n}b"))), 2)

    def singleton_lines(self, s: int) -> int:
        """The mask of the lines D + j that hold exactly one slot of s."""
        t = s | s << self.n
        one = two = 0
        for d in self.difference_set:
            x = t >> d
            two |= one & x
            one |= x
        return one & ~two & self._full

    def through(self, lines: int) -> int:
        """The slot mask of the union of the given lines (bit j for D + j)."""
        n = self.n
        t = lines | lines << n
        out = 0
        for d in self.difference_set:
            out |= t >> (n - d)
        return out & self._full


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

    def __eq__(self, other):
        """The same points of the same plane; NotImplemented for anything but a PointSet."""
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.mask == other.mask and self.plane.gf == other.plane.gf

    def __hash__(self) -> int:
        return hash(self.mask)

    def __le__(self, other) -> bool:
        """Subset of a PointSet of the same plane, or of any collection of indices."""
        if not isinstance(other, PointSet):
            return self.members.issubset(other)
        if other.plane.gf != self.plane.gf:
            return NotImplemented
        return not self.mask & ~other.mask

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
        require_keys(obj, "a point set", "field", "points")
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
