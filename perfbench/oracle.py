"""A second, independent model of PG(2,q) for the benchmark's checks.

Nothing here imports pg2q.  The field is rebuilt from its declared modulus
and the plane from the field, so every check compares pg2q with another
implementation or with a property the method must have, never with a stored
copy of pg2q's own output.  Elements use pg2q's exchange coding: the element
c_0 + c_1 t + ... + c_{h-1} t^{h-1} of GF(p^h) is the integer sum c_i p^i.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np


def pgl_order(q: int) -> int:
    return q**3 * (q**3 - 1) * (q**2 - 1)


def dual_code_dim(p: int, h: int) -> int:
    """Hamada's formula: the p-rank of PG(2,p^h) is C(p+1,2)^h + 1."""
    q = p**h
    return q * q + q + 1 - (comb(p + 1, 2) ** h + 1)


class Field:
    """GF(p^h) as dense addition and multiplication tables."""

    def __init__(self, p: int, h: int, modulus):
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != h + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree {h}")
        self.p, self.h, self.q, self.modulus = p, h, p**h, modulus
        q = self.q
        digits = [[(x // p**i) % p for i in range(h)] for x in range(q)]

        def code(ds):
            return sum((c % p) * p**i for i, c in enumerate(ds))

        self.add = np.array([[code([a + b for a, b in zip(da, db)]) for db in digits] for da in digits],
                            dtype=np.int16)
        mul = np.zeros((q, q), dtype=np.int16)
        for x in range(q):
            for y in range(x, q):
                prod = [0] * (2 * h - 1)
                for i, a in enumerate(digits[x]):
                    for j, b in enumerate(digits[y]):
                        prod[i + j] += a * b
                for k in range(2 * h - 2, h - 1, -1):
                    c = prod[k] % p
                    for i in range(h + 1):
                        prod[k - h + i] -= c * modulus[i]
                mul[x, y] = mul[y, x] = code(prod[:h])
        self.mul = mul
        self.neg = [int(np.flatnonzero(self.add[x] == 0)[0]) for x in range(q)]
        self.inv = [0] * q
        for x in range(1, q):
            ones = np.flatnonzero(mul[x] == 1)
            if len(ones) != 1:
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
            self.inv[x] = int(ones[0])

    def is_square(self, a: int) -> bool:
        return bool(a) and any(self.mul[x, x] == a for x in range(1, self.q))


def irreducible_moduli(p: int, h: int) -> list[tuple[int, ...]]:
    """Every monic irreducible polynomial of degree h over GF(p), ascending by code."""
    out = []
    for n in range(p**h):
        mod = tuple((n // p**i) % p for i in range(h)) + (1,)
        try:
            Field(p, h, mod)
        except ValueError:
            continue
        out.append(mod)
    return out


class Plane:
    """PG(2,q) over a Field: normalised points, lines with the same coordinates,
    and the line-by-point incidence matrix."""

    def __init__(self, field: Field):
        self.field = field
        q = field.q
        self.q = q
        pts = [(1, y, z) for y in range(q) for z in range(q)] + [(0, 1, z) for z in range(q)] + [(0, 0, 1)]
        self.points = pts
        self.n = len(pts)
        self.index = {v: i for i, v in enumerate(pts)}
        arr = np.array(pts, dtype=np.int16)
        add, mul = field.add, field.mul
        inc = np.empty((self.n, self.n), dtype=bool)
        for lo in range(0, self.n, 256):
            ln = arr[lo:lo + 256]
            dot = add[add[mul[ln[:, None, 0], arr[None, :, 0]], mul[ln[:, None, 1], arr[None, :, 1]]],
                      mul[ln[:, None, 2], arr[None, :, 2]]]
            inc[lo:lo + 256] = dot == 0
        self.inc = inc

    def normalize(self, v) -> tuple[int, int, int]:
        f = self.field
        v = [int(c) for c in v]
        lead = next((c for c in v if c), 0)
        if not lead:
            raise ValueError("the zero vector is no point")
        return tuple(int(f.mul[f.inv[lead], c]) for c in v)

    def indices(self, coords) -> list[int]:
        return [self.index[self.normalize(v)] for v in coords]

    def line_counts(self, coords) -> np.ndarray:
        """How many of the given points lie on each line."""
        idx = self.indices(coords)
        return self.inc[:, idx].sum(axis=1)

    def is_tangent_free(self, coords) -> bool:
        return len(coords) > 0 and not (self.line_counts(coords) == 1).any()

    def is_hyperoval(self, coords) -> bool:
        return len(coords) == self.q + 2 and set(self.line_counts(coords).tolist()) <= {0, 2}

    def quadrangles(self, coords) -> int:
        """Unordered 4-subsets with no 3 points collinear."""
        idx = sorted(set(self.indices(coords)))
        collinear = set()
        for line in self.inc:
            on = [i for i in idx if line[i]]
            collinear.update(itertools.combinations(on, 3))
        return sum(1 for quad in itertools.combinations(idx, 4)
                   if not any(t in collinear for t in itertools.combinations(quad, 3)))

    def count_tangent_free_subsets(self, size: int) -> int:
        """Brute force over every subset of the given size."""
        combos = np.array(list(itertools.combinations(range(self.n), size)), dtype=np.int16)
        bad = np.zeros(len(combos), dtype=bool)
        for line in self.inc:
            bad |= line[combos].sum(axis=1) == 1
        return int((~bad).sum())

    def is_dual_codeword(self, values: dict) -> bool:
        """values maps point coordinates to coefficients mod p; every line sum must vanish."""
        v = np.zeros(self.n, dtype=np.int64)
        for pt, c in values.items():
            v[self.index[self.normalize(pt)]] = c
        return not ((self.inc.astype(np.int64) @ v) % self.field.p).any()

    def tangent_free_rows(self, indicator: np.ndarray) -> np.ndarray:
        """indicator: sets as 0/1 rows over this plane's point order; True where
        the row's set has no tangent line (the empty set counts as tangent-free)."""
        counts = indicator.astype(np.float32) @ self.inc.T.astype(np.float32)
        return ~(counts == 1).any(axis=1)

    def conic_interior(self) -> list[tuple[int, int, int]]:
        """Points of the conic y^2 = xz's interior: off the conic and on no tangent."""
        f = self.field
        on = [i for i, (x, y, z) in enumerate(self.points)
              if f.add[f.mul[y, y], f.neg[int(f.mul[x, z])]] == 0]
        hits = self.inc[:, on].sum(axis=1)
        tangent_pts = self.inc[hits == 1].any(axis=0)
        return [v for i, v in enumerate(self.points) if not tangent_pts[i] and i not in on]

    def image(self, coords, mat) -> list[tuple[int, int, int]]:
        """Image of points under x -> Mx, M a row-major 3x3 matrix of codes."""
        f = self.field
        out = []
        for v in coords:
            w = []
            for r in range(3):
                acc = 0
                for c in range(3):
                    acc = int(f.add[acc, f.mul[mat[3 * r + c], v[c]]])
                w.append(acc)
            out.append(self.normalize(w))
        return out

    def det(self, m) -> int:
        f = self.field

        def mul(a, b):
            return int(f.mul[a, b])

        def sub(a, b):
            return int(f.add[a, f.neg[b]])

        a, b, c, d, e, g, h, i, j = m
        minors = (sub(mul(e, j), mul(g, i)), sub(mul(d, j), mul(g, h)), sub(mul(d, i), mul(e, h)))
        return int(f.add[sub(mul(a, minors[0]), mul(b, minors[1])), mul(c, minors[2])])

    def random_invertible(self, rng) -> tuple[int, ...]:
        while True:
            m = tuple(rng.randrange(self.q) for _ in range(9))
            if self.det(m):
                return m


# -- self-tests -----------------------------------------------------------------------------


def selftest() -> list[str]:
    """Each checker must accept a known-good input and reject a known-bad one,
    so a checker that accepts everything cannot pass."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(f"oracle self-test: {what}")

    pl3 = Plane(Field(3, 1, (0, 1)))
    two_lines = [v for v in pl3.points if v[0] == 0 or v[1] == 0]
    meet = (0, 0, 1)
    trivial = [v for v in two_lines if v != meet]
    expect(pl3.is_tangent_free(trivial), "two lines minus their meet is tangent-free")
    expect(not pl3.is_tangent_free(trivial[1:]), "a punctured trivial set has a tangent")
    expect(not pl3.is_tangent_free(two_lines), "two full lines have tangents through the meet")
    expect(not pl3.is_tangent_free([]), "the empty set is rejected")
    expect(pl3.count_tangent_free_subsets(6) == comb(13, 2), "PG(2,3) has C(13,2) tangent-free 6-sets")
    expect(pl3.quadrangles(trivial) == 9, "two triples on two lines hold 9 quadrangles")
    expect(pl3.quadrangles([v for v in pl3.points if v[0] == 0]) == 0, "a line holds no quadrangle")
    expect(pl3.tangent_free_rows(np.eye(pl3.n, dtype=np.int8)).sum() == 0, "a single point has tangents")
    signing = {v: 1 for v in two_lines if v[0] == 0 and v != meet}
    signing.update({v: 2 for v in two_lines if v[1] == 0 and v != meet})
    expect(pl3.is_dual_codeword(signing), "two lines signed +1/-1 form a dual codeword")
    expect(not pl3.is_dual_codeword({v: 1 for v in trivial}), "two lines all +1 are no dual codeword over F_3")
    expect(len(pl3.conic_interior()) == 3, "the conic of PG(2,3) has 3 interior points")
    gf4 = Field(2, 2, (1, 1, 1))
    pl4 = Plane(gf4)
    oval = [pl4.normalize((1, t, gf4.mul[t, t])) for t in range(4)] + [(0, 0, 1), (0, 1, 0)]
    expect(pl4.is_hyperoval(oval), "conic plus nucleus is a hyperoval of PG(2,4)")
    expect(not pl4.is_hyperoval(oval[:-1] + [(1, 0, 1)]), "a non-arc is no hyperoval")
    gf5 = Field(5, 1, (0, 1))
    expect(gf5.is_square(4) and not gf5.is_square(2) and not gf5.is_square(0), "quadratic character of GF(5)")
    expect(pl3.det((1, 0, 0, 0, 1, 0, 0, 0, 1)) == 1 and pl3.det((1, 1, 0, 1, 1, 0, 0, 0, 1)) == 0,
           "3x3 determinants over GF(3)")
    try:
        Field(3, 2, (2, 0, 1))
        problems.append("oracle self-test: t^2 - 1 accepted as irreducible over GF(3)")
    except ValueError:
        pass
    expect(len(irreducible_moduli(3, 2)) == 3, "GF(3) has 3 monic irreducible quadratics")
    expect(dual_code_dim(5, 1) == 15 and dual_code_dim(3, 2) == 54, "Hamada's formula")
    return problems
