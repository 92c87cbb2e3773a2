"""Analysis of arbitrary point sets: intersection spectra, tangent-freeness,
determined directions, and completions of affine sets to sets without tangents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plane import PointSet, check_index, mask_bits, mask_of, plane_for


class PointsOnInfinity(ValueError):
    pass


class WrongSize(ValueError):
    pass


class SizeMismatch(ValueError):
    pass


class TooManyDirections(ValueError):
    def __init__(self, count, limit):
        super().__init__(f"{count} determined directions, need fewer than {limit}")
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class Spectrum:
    """x_i = number of lines meeting the set in exactly i points."""

    q: int
    size: int
    counts: tuple[int, ...]  # index i in [0, q+1]

    def __getitem__(self, i: int) -> int:
        return self.counts[i] if 0 <= i < len(self.counts) else 0

    def check_identities(self) -> bool:
        n_lines = self.q * self.q + self.q + 1
        s0 = sum(self.counts)
        s1 = sum(i * x for i, x in enumerate(self.counts))
        s2 = sum(i * (i - 1) * x for i, x in enumerate(self.counts))
        return (
            s0 == n_lines
            and s1 == self.size * (self.q + 1)
            and s2 == self.size * (self.size - 1)
        )

    def max_secant(self) -> int:
        return max((i for i, x in enumerate(self.counts) if x and i), default=0)

    def __str__(self) -> str:
        return " ".join(f"{i}:{x}" for i, x in enumerate(self.counts) if x)


def spectrum(s: PointSet) -> Spectrum:
    return Spectrum(s.plane.q, len(s), tuple(map(s.per_line.count, range(s.plane.q + 2))))


def is_tangent_free(s: PointSet) -> bool:
    """No line meets the set in exactly one point (the empty set passes
    vacuously; report non-emptiness separately)."""
    return 1 not in s.per_line


def spectrum_solutions(n: int, q: int, max_i: int) -> list[tuple[int, ...]]:
    """All non-negative integer vectors (x_0, x_2, ..., x_max_i) with x_1 = 0
    satisfying the three line-count identities for an n-point set in PG(2,q),
    in ascending order (`_spectra`)."""
    if max_i < 2:
        return [(q * q + q + 1,)] if n == 0 else []
    return sorted(_spectra(n, q, max_i, 0))


def spectrum_feasible(n: int, q: int, m: int) -> bool:
    """Whether some solution of `spectrum_solutions(n, q, m)` has x_m >= 1:
    the line-count identities allow an n-set of PG(2,q) with no tangent and
    largest line count m.  The search stops at its first solution."""
    return m >= 2 and next(_spectra(n, q, m, 1), None) is not None


def _spectra(n: int, q: int, max_i: int, least: int):
    """The solutions of `spectrum_solutions(n, q, max_i)` with x_max_i >=
    least, lazily, for max_i >= 2.

    `least` lines of max_i points are taken out, then x_max_i, ..., x_3 are
    chosen from the largest value down.  With t1 = sum i x_i and
    t2 = sum i(i-1) x_i still to be met by lines of 2..i points,
    t1 <= t2 <= (i-1) t1, which fixes the range of each x_i, and x_2 = t1/2.
    Those lines number at least t1^2 / (t1 + t2) (Cauchy-Schwarz), and with
    the lines already chosen they may not outnumber the lines of the plane.
    A state with no solution is kept with its line count, so it is not
    searched again with as many lines.
    """
    lines = q * q + q + 1
    failed: dict[tuple[int, int, int], int] = {}

    def rec(i, t1, t2, used, tail):
        if i == 2:
            if t1 % 2 == 0 and used + t1 // 2 <= lines:
                yield (lines - used - t1 // 2, t1 // 2) + tail
            return
        if failed.get((i, t1, t2), lines + 1) <= used or t1 and used - (-t1 * t1 // (t1 + t2)) > lines:
            return
        lo = max(0, -(((i - 2) * t1 - t2) // i))
        hi = min((t2 - t1) // (i * (i - 2)), t1 // i)
        found = False
        for x in range(hi, lo - 1, -1):
            for sol in rec(i - 1, t1 - i * x, t2 - i * (i - 1) * x, used + x, (x,) + tail):
                found = True
                yield sol
        if not found:
            failed[i, t1, t2] = used

    t1 = n * (q + 1) - least * max_i
    t2 = n * (n - 1) - least * max_i * (max_i - 1)
    if 0 <= t1 <= t2 <= (max_i - 1) * t1:
        for sol in rec(max_i, t1, t2, least, ()):
            yield sol[:-1] + (sol[-1] + least,)


@dataclass(frozen=True)
class DirectionSet:
    line_at_infinity: int
    determined: frozenset[int]
    non_determined: frozenset[int]


def determined_directions(affine: PointSet, linf: int) -> DirectionSet:
    """A point D on the infinite line is determined iff some line through D
    carries at least two points of the affine set."""
    plane = affine.plane
    check_index(plane.n, linf, kind="line")
    if affine.per_line[linf] > 0:
        raise PointsOnInfinity("affine set meets the chosen infinite line")
    secants = mask_of(l for l, c in enumerate(affine.per_line) if c >= 2)
    # the lines through d: incidence is symmetric, so they are the points on line d
    on_line = mask_bits(plane.line_masks[linf])
    det = frozenset(d for d in on_line if plane.line_masks[d] & secants)
    return DirectionSet(linf, det, frozenset(on_line) - det)


def redei_completion(affine: PointSet, linf: int) -> PointSet:
    """Affine q-set plus its non-determined directions; a set without tangents
    whenever fewer than (q+3)/2 directions are determined."""
    plane = affine.plane
    q = plane.q
    check_index(plane.n, linf, kind="line")
    if plane.gf.p == 2:
        raise WrongSize("completion requires odd characteristic")
    if len(affine) != q:
        raise WrongSize(f"affine part has {len(affine)} points, need q={q}")
    ds = determined_directions(affine, linf)
    limit = (q + 3) // 2
    if len(ds.determined) >= limit:
        raise TooManyDirections(len(ds.determined), limit)
    out = PointSet.from_mask(plane, affine.mask | mask_of(ds.non_determined))
    if not is_tangent_free(out):
        raise AssertionError("completion must be tangent-free")
    return out


def redei_converse_check(s: PointSet, linf: int) -> bool:
    """For a tangent-free set of size q+k with k points on the chosen line,
    those k points must be exactly the non-determined directions of the rest."""
    plane = s.plane
    check_index(plane.n, linf, kind="line")
    on_line = s.mask & plane.line_masks[linf]
    if len(s) != plane.q + on_line.bit_count():
        raise SizeMismatch(f"|S|={len(s)} but |S on line|={on_line.bit_count()}, need |S|=q+k")
    if not is_tangent_free(s):
        raise SizeMismatch("input set has a tangent")
    ds = determined_directions(PointSet.from_mask(plane, s.mask ^ on_line), linf)
    return on_line == mask_of(ds.non_determined)


def one_mod_p_check(affine: PointSet, linf: int) -> bool:
    """Every line meets the affine set together with its determined directions
    in 1 mod p points (holds when fewer than (q+3)/2 directions determined)."""
    plane = affine.plane
    p = plane.gf.p
    ds = determined_directions(affine, linf)
    full = PointSet.from_mask(plane, affine.mask | mask_of(ds.determined))
    return all(c % p == 1 for c in full.per_line)


@dataclass(frozen=True)
class SecantBoundReport:
    p: int
    sizes: tuple[int, ...]
    heavy_sets_found: int  # the sets found through the seeds, at least one per heavy class
    all_heavy_trivial: bool
    max_secant_by_size: dict
    nodes: int


def is_trivial_set(s: PointSet) -> bool:
    """Two full lines minus their intersection point."""
    plane = s.plane
    q = plane.q
    if len(s) != 2 * q:
        return False
    heavy = [l for l, c in enumerate(s.per_line) if c == q]
    return len(heavy) == 2 and s.mask == plane.line_masks[heavy[0]] ^ plane.line_masks[heavy[1]]


def secant_bound_check(p: int) -> SecantBoundReport:
    """Exhaustively confirm, for prime p, that every tangent-free set of size
    at most 2p having a line with >= |S|/2 - (p-1)/4 of its points is trivial.

    Such a set has largest line count m >= xmin, the least integer
    >= |S|/2 - (p-1)/4.
    Being trivial and the largest secant are invariant under PGL(3,p), and
    every class of tangent-free sets with largest line count m has a member
    through a seed of m (`search._seeds`), so each size collects the sets of
    the capped DFS from the seeds with m >= xmin (`search._seeded_sets`, in
    a fork pool after `search.POOL_AFTER_S`).  `heavy_sets_found` counts the
    sets found through those seeds, at least one per heavy class, and
    `nodes` the nodes of their searches.
    """
    from .search import _seeded_sets  # search imports this module for is_tangent_free and spectrum_feasible

    plane = plane_for(p, 1)
    heavy_found = 0
    all_trivial = True
    max_sec: dict[int, int] = {}
    nodes = 0
    sizes = tuple(range(p + 2, 2 * p + 1))

    for s_total in sizes:
        # smallest x with x >= s/2 - (p-1)/4
        xmin = -((-(2 * s_total - p + 1)) // 4)
        found, cnt = _seeded_sets(plane, s_total, xmin)
        nodes += cnt
        for members in found:
            ps = PointSet(plane, members)
            heavy_found += 1
            max_sec[s_total] = max(max_sec.get(s_total, 0), spectrum(ps).max_secant())
            if not is_trivial_set(ps):
                all_trivial = False
    return SecantBoundReport(p, sizes, heavy_found, all_trivial, max_sec, nodes)
