"""The coding-theory layer: incidence matrix over F_p, dual-code membership,
codeword supports, and the peeling (iterative erasure) decoder whose fixpoints
are the stopping sets of the plane's LDPC code.

Convention: rows of the incidence matrix are lines, columns are points.  The
matrix is never stored: an elimination writes its byte rows (`linalg.rref`)
from the plane's line masks.
A codeword is a tuple of n ints in [0, p), entry i on point i; the checks read
any integer sequence of length n.

A codeword on a given support is a combination of the nullspace basis of the
lines-by-support submatrix.  Basis vector j is 1 at its own free column and 0
at the other free columns, so a combination with a zero coefficient vanishes at
a support point: a depth-first search fixes the coefficients in basis order,
each to a non-zero value, and cuts a value as soon as a column that no later
basis vector touches has become 0.  Its node count is the certificate of a
refutation.

Peeling reads its singleton lines off the plane's Singer cycle
(`Plane.singer`): the lines are the translates D + j of one perfect difference
set D mod n, so with one bit per slot, q + 1 shifts of a set's doubled mask
line up the slots of every line at once, and one sweep over them finds all
the lines that hold exactly one of its points, not n line-mask popcounts;
q + 1 shifts of those lines' mask give the slots that a round of peeling
drops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .gfq import field_for_order
from .linalg import nullspace
from .plane import Plane, PointSet, as_plane, check_index, mask_bits, mask_of, plane_for_order
from .tangency import is_tangent_free


# dual_codeword_on_support tries at most this many coefficient values; the
# whole tree of any nullspace with p**dim <= 10**7 fits (at most 349,525)
NODE_BUDGET = 10**6


class NotCodeword(ValueError):
    pass


class IncidenceCode:
    """Incidence matrix of PG(2,q) as a parity-check structure over F_p."""

    def __init__(self, plane: Plane):
        self.plane = plane
        self.p = plane.gf.p
        self._null_basis = None

    def _rows(self, cols) -> list[bytes]:
        """The incidence matrix on the given distinct point columns, one byte
        row per line, written from the line's points among the columns."""
        col = {c: j for j, c in enumerate(cols)}
        cols_mask, rows = mask_of(col), []
        for lm in self.plane.line_masks:
            row = bytearray(len(col))
            for pt in mask_bits(lm & cols_mask):
                row[col[pt]] = 1
            rows.append(bytes(row))
        return rows

    def _residues(self, v) -> list[int]:
        """The entries of v mod p; raises ValueError unless v has n entries."""
        if len(v) != self.plane.n:
            raise ValueError(f"vector length must be {self.plane.n}")
        return [int(x) % self.p for x in v]

    def is_dual_codeword(self, v) -> bool:
        """Every line sum must vanish mod p."""
        vals = self._residues(v)
        return all(sum(vals[i] for i in mask_bits(lm)) % self.p == 0 for lm in self.plane.line_masks)

    def support(self, v) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(self._residues(v)) if x)

    def support_tangency(self, v) -> bool:
        """Verdict of the tangency module on the support of a dual codeword."""
        if not self.is_dual_codeword(v):
            raise NotCodeword("line sums do not vanish")
        s = PointSet(self.plane, self.support(v))
        return is_tangent_free(s)

    def nullspace_basis(self) -> list[tuple[int, ...]]:
        """Basis of the dual code (right nullspace of the incidence matrix)."""
        if self._null_basis is None:
            gfp = field_for_order(self.p)
            rows = self._rows(range(self.plane.n))
            self._null_basis = [tuple(b) for b in nullspace(rows, gfp)]
        return self._null_basis

    def _combination(self, coeffs, basis, length: int) -> list[int]:
        """sum(c * b) over the coefficients c and basis vectors b, mod p, as a list."""
        p, w = self.p, [0] * length  # a local: in the comprehension, self.p is looked up per entry
        for c, b in zip(coeffs, basis):
            if c:
                w = [(x + c * y) % p for x, y in zip(w, b)]
        return w

    def random_dual_codewords(self, count: int, rng: random.Random) -> list[tuple[int, ...]]:
        basis = self.nullspace_basis()
        n = self.plane.n
        return [tuple(self._combination([rng.randrange(self.p) for _ in basis], basis, n)) for _ in range(count)]

    def dual_codeword_on_support(self, members) -> tuple[tuple[int, ...] | None, bool, int]:
        """A dual codeword with support exactly the given point set, if any.

        Works in the nullspace of the lines-by-members submatrix, by a
        depth-first search that fixes the basis coefficients in order.  Each
        takes a value in 1..p-1, since basis vector j alone is non-zero at
        free column j, and coefficient 0 takes only 1, since scaling keeps the
        support.  A value is cut as soon as a column whose last non-zero basis
        entry is at its depth has become 0.  Full assignments are met in
        lexicographic order and only subtrees without a codeword are cut, so
        the vector found is the first one `product(range(1, p), repeat=dim)`
        would give.  Moving a coefficient to its next value adds its basis
        vector once more (p times it is 0), so backtracking keeps no copies.

        `nodes` counts the coefficient values tried, and `exact` is False only
        when NODE_BUDGET of them did not settle the question.  A repeated
        member counts once; IndexError for a point off the plane.

        Returns (vector over all points or None, exact, nodes).
        """
        cols = sorted(set(members))
        n, p = self.plane.n, self.p
        check_index(n, *cols)
        basis = nullspace(self._rows(cols), field_for_order(p), ncols=len(cols))
        dim = len(basis)
        # steps[j]: the non-zero entries of basis vector j; closing[j]: the
        # columns no basis vector after j touches, final once j is fixed
        steps = [[(c, b) for c, b in enumerate(vec) if b] for vec in basis]
        last = {c: j for j, step in enumerate(steps) for c, _ in step}
        if dim == 0 or len(last) < len(cols):  # a column every codeword leaves at 0
            return None, True, 0
        closing = [[] for _ in basis]
        for c, j in last.items():
            closing[j].append(c)
        top = [1] + [p - 1] * (dim - 1)
        w, val = [0] * len(cols), [0] * dim
        nodes, j = 0, 0
        while True:
            if val[j] == top[j]:
                if j == 0:
                    return None, True, nodes
                for c, b in steps[j]:  # the p-th addition brings the column back
                    w[c] = (w[c] + b) % p
                val[j] = 0
                j -= 1
                continue
            if nodes == NODE_BUDGET:
                return None, False, nodes
            nodes += 1
            val[j] += 1
            for c, b in steps[j]:
                w[c] = (w[c] + b) % p
            if all(w[c] for c in closing[j]):
                if j == dim - 1:
                    entry = dict(zip(cols, w))
                    v = tuple(entry.get(i, 0) for i in range(n))
                    if not self.is_dual_codeword(v):
                        raise AssertionError("the codeword found fails the dual-code check")
                    return v, True, nodes
                j += 1


_code_of = lru_cache(maxsize=None)(IncidenceCode)  # one code per Plane


def incidence_code(plane: Plane | int) -> IncidenceCode:
    """The plane's incidence code (for an order q, that of the default PG(2,q))."""
    return _code_of(as_plane(plane))


def trivial_signing(q: int) -> tuple[int, ...]:
    """+1 on the first line minus the meet, -1 on the second: weight 2q."""
    plane = plane_for_order(q)
    v = [0] * plane.n
    for pt in mask_bits(plane.line_masks[0] ^ plane.line_masks[1]):
        v[pt] = 1 if plane.incident(pt, 0) else plane.gf.p - 1
    return tuple(v)


def hyperoval(q: int = 4) -> PointSet:
    """Conic plus nucleus over an even-order field: a (q+2)-arc."""
    plane = plane_for_order(q)
    if q % 2:
        raise ValueError("hyperovals exist only for even q")
    gf = plane.gf
    pts = [plane.index_of((1, t, gf.mul(t, t))) for t in range(q)]
    pts.append(plane.index_of((0, 0, 1)))
    pts.append(plane.index_of((0, 1, 0)))  # nucleus of y^2 = xz
    out = PointSet(plane, pts)
    if not (len(out) == q + 2 and max(out.per_line) <= 2):
        raise AssertionError(f"the hyperoval at q={q} is not a (q+2)-arc")
    return out


def peel_decode(plane: Plane | int, erased, rng: random.Random | None = None) -> PointSet:
    """Repeatedly delete an erased point lying on a line with exactly one
    erased point; the fixpoint is the unique maximal stopping subset.

    Peeling is confluent: every order of deletions reaches the same
    fixpoint.  So the points are deleted in rounds, every point on every
    line that is singleton at the start of the round at once
    (`batch_peel_fixpoint`), and no order is left to choose: `rng` is
    accepted and ignored.
    """
    return batch_peel_fixpoint(plane, erased)


def batch_peel_fixpoint(plane: Plane | int, erased) -> PointSet:
    """Recompute from scratch each round, removing every point on any
    currently singleton line simultaneously, until stable.

    A round is two Singer-cycle sweeps (`Plane.singer`): the singleton lines
    of the set, then the slots on them, which the set drops.  A set with no
    singleton line is returned after the first sweep.
    """
    plane = as_plane(plane)
    singer = plane.singer
    live = singer.slot_mask(erased)
    while singles := singer.singleton_lines(live):
        live &= ~singer.through(singles)
    return PointSet.from_mask(plane, singer.point_mask(live))


@dataclass(frozen=True)
class StoppingEquivalenceReport:
    q: int
    cases: int
    ok: bool


def stopping_equivalence_check(plane: Plane | int) -> StoppingEquivalenceReport:
    """Peeling makes no progress exactly on tangent-free (stopping) sets.

    Exhaustive over all 6-subsets for q=3; 300 random subsets, drawn from a
    generator seeded by q, at every q.
    """
    plane = as_plane(plane)
    rng = random.Random(plane.q * 7919)
    cases = 0
    ok = True

    def check(sub):
        nonlocal cases, ok
        cases += 1
        sub = PointSet(plane, sub)
        if (peel_decode(plane, sub) == sub) != is_tangent_free(sub):
            ok = False

    if plane.q == 3:
        for sub in combinations(range(plane.n), 6):
            check(sub)
    for _ in range(300):
        size = rng.randrange(1, plane.n)
        check(rng.sample(range(plane.n), size))
    return StoppingEquivalenceReport(plane.q, cases, ok)
