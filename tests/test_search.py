import random
import time
from functools import partial
from itertools import combinations, permutations, product
from math import comb
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg2q import search
from pg2q.codes import hyperoval
from pg2q.constructions import all_certificates, interior_points, trivial
from pg2q.conic import canonical_conic
from pg2q.linalg import mat_inverse, mat_vec
from pg2q.plane import PointSet, by_bytes, byte_tables, mask_bits, mask_of, plane_for_order
from pg2q.search import (
    CapTooSmall,
    Infeasible,
    OrbitRep,
    SearchTimeout,
    _exists,
    _frontier_jobs,
    _line_orbits,
    _line_seeds,
    _run_job,
    _run_jobs,
    _Searcher,
    _seeded_sets,
    _seeds,
    brute_force_min,
    classify_tangent_free,
    classify_up_to_pgl,
    enumerate_tangent_free,
    known_witnesses,
    lower_bound,
    min_tangent_free,
    pgl_group,
)
from pg2q.tangency import is_tangent_free, is_trivial_set, secant_bound_check, spectrum, spectrum_solutions

from output_manifest import CLASSIFY, PINNED, canonical_sha256, search_outputs


def test_lower_bound_values():
    assert lower_bound(3) == 6
    assert lower_bound(5) == 8
    assert lower_bound(7) == 10
    assert lower_bound(9) == 13
    assert lower_bound(11) == 15
    assert lower_bound(4) == 6  # even order: q+2, sharp via hyperovals


def test_u3_and_oracle():
    res = min_tangent_free(3, 8, workers=1)
    assert res.found and res.u == 6
    assert brute_force_min(3) == 6
    assert is_tangent_free(PointSet(plane_for_order(3), res.witness))


def test_u5():
    res = min_tangent_free(5, 12, workers=1)
    assert res.found and res.u == 10
    assert is_tangent_free(PointSet(plane_for_order(5), res.witness))


def test_cap_too_small():
    with pytest.raises(CapTooSmall):
        min_tangent_free(5, 7)


def test_not_found_below_minimum():
    res = min_tangent_free(5, 9, workers=1)
    assert not res.found and res.status == "not_found"
    assert res.exhausted_below == 10


def _search_from(pl, n, cap, members, ex_mask, deadline=None, searcher=_Searcher):
    """The DFS from `members` under line cap `cap` (None: no cap), avoiding
    `ex_mask`: the first tangent-free n-set it finds, sorted, or None, and
    its node count; raises SearchTimeout on the deadline."""
    s = searcher(pl, cap)
    s.deadline = deadline
    box = []
    s.run(n, ex_mask, lambda t: box.append(tuple(sorted(t))) or True, seed=members)
    return (box[0] if box else None), s.nodes


def _full_plane_sets(pl, n):
    """Reference enumeration: every tangent-free n-set by the DFS with no seed
    and no line cap, duplicate-free, as sorted tuples in ascending order, and
    the node count."""
    s = _Searcher(pl)
    out = []
    s.run(n, 0, lambda t: out.append(tuple(sorted(t))))
    sets = sorted(set(out))
    assert len(sets) == len(out), "duplicate generation"
    return sets, s.nodes


def _triple_seed_witness(pl, n):
    """Reference search over two seeds, one collinear triple and one
    triangle through points 0 and 1; together they are exhaustive, since the
    collineation group is transitive on each kind of triple."""
    l01 = pl.meet(0, 1)
    third_on = min(set(mask_bits(pl.line_masks[l01])) - {0, 1})
    third_off = next(p for p in range(pl.n) if not pl.incident(p, l01))
    for seed in ((0, 1, third_on), (0, 1, third_off)):
        witness = _search_from(pl, n, None, seed, 0)[0]
        if witness is not None:
            return witness
    return None


FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def _frame(pl):
    """The point indices of FRAME."""
    return tuple(pl.index_of(v) for v in FRAME)


def _frame_collineation(plane, quad) -> tuple[int, ...]:
    """The collineation that sends the ordered quadrangle `quad` to the
    points of `FRAME`, in order, as a point permutation (entry p is the image
    of point p).

    With B the matrix whose columns are the first three points and
    lambda = B^-1 v4, the matrix B diag(lambda) sends the frame to `quad`; its
    inverse is the map, unique since PGL(3,q) is sharply transitive on ordered
    frames.  Raises ZeroDivisionError when three of the points are collinear.
    """
    gf = plane.gf
    b = [plane.coords[p][i] for i in range(3) for p in quad[:3]]  # row i: coordinate i of each point
    lam = mat_vec(mat_inverse(b, gf), plane.coords[quad[3]], gf)
    to_quad = [gf.mul(b[i], lam[i % 3]) for i in range(9)]
    to_frame = mat_inverse(to_quad, gf)
    return tuple(plane.apply_matrix(to_frame, p) for p in range(plane.n))


def _frame_witness(pl, n):
    """Reference existence search: the repair DFS from the frame, with no line
    cap.  The frame seed is exhaustive: a non-empty tangent-free set lies on
    no line plus one point, so it holds a quadrangle, and PGL(3,q) maps any
    ordered quadrangle onto the frame."""
    return _search_from(pl, n, None, _frame(pl), 0)[0]


def test_frame_seed_agrees_with_triple_seeds():
    """The frame-seeded reference settles every level from the sqrt bound to
    u_q like the two-triple reference, and so does the heaviest-line search."""
    for q, u in [(3, 6), (4, 6), (5, 10), (7, 12)]:
        pl = plane_for_order(q)
        for n in range(lower_bound(q), u + 1):
            wf = _frame_witness(pl, n)
            wt = _triple_seed_witness(pl, n)
            wh = _exists(pl, n)[0]
            assert (wf is None) == (wt is None) == (wh is None) == (n < u)
            if wf is not None:
                assert set(_frame(pl)) <= set(wf)
                for w in (wf, wt, wh):
                    assert is_tangent_free(PointSet(pl, w)) and len(w) == n


# every level from the sqrt bound to u_q, and q=9 n=13
LEVELS = [(3, range(6, 7)), (4, range(6, 7)), (5, range(8, 11)), (7, range(10, 13)),
          (8, range(10, 11)), (9, range(13, 14))]
LEVEL_IDS = ["q3", "q4", "q5", "q7", "q8", "q9-n13"]


@pytest.mark.parametrize("q,levels", LEVELS + [(9, range(14, 16)), (16, range(18, 19))],
                         ids=LEVEL_IDS + ["q9-n14-15", "q16"])
def test_symmetry_skips_keep_verdict_and_witness(q, levels):
    """The search skips symmetry at its seeds: one m-subset of L0 per PGL(2,q)
    orbit, P0, and one point of the line P0 b.  That settles every level from
    the sqrt bound to u_q as the frame-seeded reference does, and a witness
    is a tangent-free set of exactly n points, the same at workers 1 and 2."""
    pl = plane_for_order(q)
    assert levels.start == lower_bound(q) or q == 9
    for n in levels:
        witness = _exists(pl, n)[0]
        assert (witness is None) == (_frame_witness(pl, n) is None)
        if witness is not None:
            assert is_tangent_free(PointSet(pl, witness)) and len(witness) == n
            assert _exists(pl, n, 2)[0] == witness


def _seeded_search(pl, n, searcher=_Searcher):
    """An existence level without the frontier: the DFS from each seed in
    order under its line cap.  Returns the witness or None and the nodes."""
    nodes = 0
    for m, seed, excluded in _seeds(pl, n):
        witness, cnt = _search_from(pl, n, m, seed, excluded, searcher=searcher)
        nodes += cnt
        if witness is not None:
            return witness, nodes
    return None, nodes


class _PreCoverSearcher(_Searcher):
    """The repair step without the cover bound: dead tangents, the greedy
    matching and the largest pencil prune, as before the cover was added."""

    def _branch(self, free, n_target):
        tangents = self.levels[1] & ~self.levels[2]
        used = k = 0
        best_avail, best_cnt = 0, self.plane.n + 1
        for l in mask_bits(tangents):
            avail = self.line_masks[l] & free
            if not avail:
                return 0
            if not avail & used:
                k += 1
                used |= avail
            if avail.bit_count() < best_cnt:
                best_avail, best_cnt = avail, avail.bit_count()
        max_pencil = max((tangents & self.line_masks[p]).bit_count() for p in self.partial)
        if len(self.partial) + max(k, max_pencil) > n_target:
            return 0
        return best_avail


@pytest.mark.parametrize("q,levels", LEVELS, ids=LEVEL_IDS)
def test_cover_bound_keeps_verdict_and_witness(q, levels):
    """The cover bound prunes only nodes without a completion, so every level
    is settled from the same seeds with the witness of the search without
    it, in no more nodes; the frontier keeps that witness."""
    pl = plane_for_order(q)
    for n in levels:
        pre_witness, pre_nodes = _seeded_search(pl, n, _PreCoverSearcher)
        witness, nodes = _seeded_search(pl, n)
        assert witness == pre_witness == _exists(pl, n)[0]
        assert witness is not None or nodes <= pre_nodes


@pytest.mark.parametrize("q,n", [(4, 11), (5, 10)])
def test_cover_bound_keeps_enumeration(q, n):
    """Enumeration with the cover bound lists the same sets in fewer nodes."""
    pl = plane_for_order(q)
    s = _PreCoverSearcher(pl)
    out = []
    s.run(n, 0, lambda t: out.append(tuple(sorted(t))))
    sets, nodes = _full_plane_sets(pl, n)
    assert sets == sorted(out)
    assert nodes < s.nodes


def test_cover_bound_alone_prunes():
    """The frame of PG(2,4) lies in one hyperoval, whose other two points are
    the points on none of the frame's six secants.  With one of them excluded
    and 2 points to add, the matching and pencil bounds keep the node (2
    tangents through each frame point, 8 in all), but the best 2 free points
    repair 4 + 2 < 8 tangents, so the cover prunes it."""
    pl = plane_for_order(4)
    frame = _frame(pl)
    secants = {pl.meet(a, b) for a in frame for b in frame if a < b}
    off = [x for x in range(pl.n) if x not in frame and not any(pl.incident(x, l) for l in secants)]
    assert len(off) == 2
    s = _Searcher(pl)
    for p in frame:
        s._add(p)
    free = s.all_points_mask & ~s.partial_mask & ~(1 << off[0])
    assert _reference_scan(pl, s.partial, free, 6, cover=False)[1]
    assert _reference_scan(pl, s.partial, free, 6)[1] == 0
    assert s._branch(free, 6) == 0
    assert s._branch(free | 1 << off[0], 6) != 0
    assert _search_from(pl, 6, None, frame, 1 << off[0])[0] is None
    assert _search_from(pl, 6, None, frame, 0)[0] == tuple(sorted(frame + tuple(off)))


def _frame_stabiliser_reference(pl):
    """Stab(frame) generated without frame maps: the six coordinate
    permutations, which fix <(1,1,1)>, and x -> (x - z, y - z, -z), which
    swaps <(0,0,1)> and <(1,1,1)>, closed under composition."""
    neg = pl.gf.neg(1)
    mats = [tuple(1 if c == sigma[r] else 0 for r in range(3) for c in range(3))
            for sigma in permutations(range(3))]
    mats.append((1, 0, neg, 0, 1, neg, 0, 0, neg))
    gens = [tuple(pl.apply_matrix(m, p) for p in range(pl.n)) for m in mats]
    group = set(gens)
    frontier = list(group)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(g[a[p]] for p in range(pl.n))
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return group


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_frame_collineation_orderings(q):
    """_frame_collineation sends each of the 24 orderings of the frame to the
    frame; the 24 maps are closed under composition and are the stabiliser
    generated from permutation matrices."""
    pl = plane_for_order(q)
    frame = _frame(pl)
    maps = []
    for quad in permutations(frame):
        g = _frame_collineation(pl, quad)
        assert sorted(g) == list(range(pl.n))
        assert tuple(g[p] for p in quad) == frame
        maps.append(g)
    group = set(maps)
    assert len(group) == 24
    assert all(tuple(a[b[p]] for p in range(pl.n)) in group for a in maps for b in maps)
    assert group == _frame_stabiliser_reference(pl)


@pytest.mark.parametrize("q", [7, 9])
def test_frame_collineation_inverts_a_random_collineation(q):
    """The image of the frame under a random collineation M goes back to the
    frame by M^-1, and three collinear points are refused."""
    import random

    from pg2q.linalg import random_invertible

    pl = plane_for_order(q)
    rng = random.Random(q)
    for _ in range(5):
        m = random_invertible(pl.gf, rng)
        g = _frame_collineation(pl, tuple(pl.apply_matrix(m, p) for p in _frame(pl)))
        assert all(g[pl.apply_matrix(m, p)] == p for p in range(pl.n))
    line = mask_bits(pl.line_masks[0])
    off = next(p for p in range(pl.n) if not pl.incident(p, 0))
    with pytest.raises(ZeroDivisionError):
        _frame_collineation(pl, (line[0], line[1], line[2], off))


def _line_group_reference(pl):
    """PGL(2,q) on L0 from every invertible 2x2 matrix M, acting as the
    block matrix diag(M, 1), as permutations of the points of L0."""
    gf, line = pl.gf, mask_bits(pl.line_masks[pl.index_of((0, 0, 1))])
    perms = set()
    for a, b, c, d in product(range(pl.q), repeat=4):
        if gf.sub(gf.mul(a, d), gf.mul(b, c)):
            perms.add(tuple(pl.apply_matrix((a, b, 0, c, d, 0, 0, 0, 1), p) for p in line))
    return line, perms


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25, 27])
def test_line_orbits(q):
    """The orbits on the m-subsets of L0 partition them, each headed by its
    least member: their sizes sum to C(q+1, m) and each divides
    |PGL(2,q)| = q(q^2 - 1).  PGL(2,q) is 3-transitive on the line, so m = 3
    gives one orbit.  Up to q = 9 the orbits are those of every invertible
    2x2 matrix acting on L0."""
    pl = plane_for_order(q)
    l0 = p0 = pl.index_of((0, 0, 1))
    assert pl.coords[l0] == pl.coords[p0] == (0, 0, 1)
    line = mask_bits(pl.line_masks[l0])
    assert all(pl.coords[p][2] == 0 for p in line)
    group = _line_group_reference(pl)[1] if q <= 9 else None
    for m in range(2, 5):
        orbits = list(_line_orbits(pl, m))
        assert sum(map(len, orbits)) == comb(q + 1, m)
        assert len({t for orbit in orbits for t in orbit}) == comb(q + 1, m)
        for orbit in orbits:
            assert q * (q * q - 1) % len(orbit) == 0
            assert orbit[0] == min(orbit) and all(set(t) <= set(line) for t in orbit)
        if m == 3:
            assert len(orbits) == 1
        if group is not None:
            where = {p: i for i, p in enumerate(line)}
            for orbit in orbits:
                t = orbit[0]
                image = {tuple(sorted(g[where[p]] for p in t)) for g in group}
                assert image == set(orbit)


def test_seeds_lie_on_the_heavy_line():
    """Each seed is its m-subset A of L0, P0 and (x, y, 1) for the first point
    b = (x, y, 0) of L0 outside A; the excluded points are L0 outside A, and
    no line meets the seed in more than m points.  m runs over the values
    from 2 to min(n - q, q + 1) that some spectrum of `spectrum_solutions`
    with no tangent and x_m >= 1 allows (at (11,17), 3 x_3 = 68 rules out
    m = 3), so a set of fewer than 4 points has no seed."""
    for q, n in [(4, 21), (5, 10), (7, 12), (9, 14), (11, 17)]:
        pl = plane_for_order(q)
        l0 = p0 = pl.index_of((0, 0, 1))
        line = mask_bits(pl.line_masks[l0])
        caps = []
        for m, seed, excluded in _seeds(pl, n):
            caps.append(m)
            a = seed[:m]
            assert set(a) <= set(line) and seed[m] == p0
            outside = [p for p in line if p not in a]
            assert excluded == sum(1 << p for p in outside)
            if outside:
                x, y, _ = pl.coords[outside[0]]
                assert pl.coords[seed[m + 1]] == (x, y, 1)
            assert max(PointSet(pl, seed).per_line) == m == PointSet(pl, seed).per_line[l0]
        feasible = [m for m in range(2, min(n - q, q + 1) + 1) if any(s[-1] for s in spectrum_solutions(n, q, m))]
        assert sorted(set(caps)) == feasible and caps == sorted(caps)
    assert list(_seeds(plane_for_order(3), 3)) == []


def _reference_scan(pl, partial, free, n_target, cover=True):
    """The per-line definition of `_Searcher._branch`: tangent lines from
    per-line counts, a pencil dict keyed by each tangent's member, a greedy
    matching over the tangents in sorted order, and, with `cover`, the cover
    bound from a count per free point of the tangents listing it.  Returns the
    tangent lines and the branch line's available points, 0 when the node is
    pruned."""
    pmask = sum(1 << p for p in partial)
    tangents = [l for l, lm in enumerate(pl.line_masks) if bin(lm & pmask).count("1") == 1]
    used = k = 0
    pencil: dict[int, int] = {}
    best = None
    for l in tangents:
        lm = pl.line_masks[l]
        avail = lm & free
        if avail == 0:
            return tangents, 0
        if avail & used == 0:
            k += 1
            used |= avail
        base = (lm & pmask).bit_length() - 1
        pencil[base] = pencil.get(base, 0) + 1
        cnt = bin(avail).count("1")
        if best is None or cnt < best[0]:
            best = (cnt, avail)
    if best is None:
        return tangents, None
    r = n_target - len(partial)
    if max(k, max(pencil.values())) > r:
        return tangents, 0
    if cover:
        on_tangents = {x: 0 for x in range(pl.n) if free >> x & 1}
        for l in tangents:
            for x in mask_bits(pl.line_masks[l]):
                if x in on_tangents:
                    on_tangents[x] += 1
        if sum(sorted(on_tangents.values(), reverse=True)[:r]) < len(tangents):
            return tangents, 0
    return tangents, best[1]


class _CheckedSearcher(_Searcher):
    """A searcher whose repair step is checked against the per-line
    definition at every node it reaches.  `cover_only` counts the nodes that
    only the cover prunes, `shared` those kept by the pencil bound with two
    or more tangents through one member."""

    cover_only = shared = 0

    def _branch(self, free, n_target):
        got = super()._branch(free, n_target)
        tangents, ref = _reference_scan(self.plane, self.partial, free, n_target)
        assert self.levels[1] & ~self.levels[2] == sum(1 << l for l in tangents)
        assert got == ref
        r = n_target - len(self.partial)
        pencils = [(self.levels[1] & ~self.levels[2] & self.line_masks[p]).bit_count() for p in self.partial]
        if 1 < max(pencils) <= r:
            self.shared += 1
        if not ref and _reference_scan(self.plane, self.partial, free, n_target, cover=False)[1]:
            self.cover_only += 1
        return got


def test_repair_step_matches_reference_at_every_node():
    """At every node of an existence level's searches from all its seeds, and
    of an enumeration, the repair step prunes and branches as the per-line
    definition does.  Both reach nodes with several tangents through one
    member, which the cover counts once per member, and nodes that only the
    cover prunes."""
    pl = plane_for_order(7)
    nodes = shared = cover_only = 0
    for m, seed, excluded in _seeds(pl, 11):
        s = _CheckedSearcher(pl, m)
        box = []
        s.run(11, excluded, lambda t: box.append(t) or True, seed=seed)
        assert not box
        nodes, shared, cover_only = nodes + s.nodes, shared + s.shared, cover_only + s.cover_only
    assert nodes == 25 and shared and cover_only
    s = _CheckedSearcher(plane_for_order(4))
    out = []
    s.run(8, 0, out.append)
    assert len(out) == 210 and s.nodes == 4497
    assert s.shared and s.cover_only


def _cap_state(pl, partial, cap):
    """The line-cap state from per-line counts: the mask of the lines with at
    least k members for k = 0 .. max(cap, 2), and the points on the lines
    with at least cap members (none without a cap)."""
    per_line = PointSet(pl, partial).per_line
    levels = [sum(1 << l for l, c in enumerate(per_line) if c >= k) for k in range(max(cap or 0, 2) + 1)]
    blocked = 0
    for l, c in enumerate(per_line):
        if cap and c >= cap:
            blocked |= pl.line_masks[l]
    return levels, blocked, max(per_line)


class _CapCheckedSearcher(_Searcher):
    """A searcher whose line counts and blocked points are checked against
    PointSet.per_line at every node it reaches."""

    checked = 0

    def _dfs(self, n_target, excluded_mask, collect):
        levels, blocked, top = _cap_state(self.plane, self.partial, self.cap)
        assert self.levels == levels and top <= self.cap
        free = self.all_points_mask & ~self.partial_mask & ~excluded_mask
        # the blocked points are exactly the free points on lines with m members
        assert self.blocked & free == blocked & free and self.blocked == blocked
        self.checked += 1
        return super()._dfs(n_target, excluded_mask, collect)


@pytest.mark.parametrize("q,n", [(5, 10), (5, 12), (7, 11), (7, 12)])
def test_line_cap_state_matches_line_counts(q, n):
    """At every node of the exhaustive exact-size DFS from every seed, the
    unary line counts and the blocked points are those of the per-line
    counts, no line holds more than m points, and the search lists the sets
    and nodes of `_seeded_sets`."""
    pl = plane_for_order(q)
    out = []
    checked = nodes = 0
    for m, seed, excluded in _seeds(pl, n):
        s = _CapCheckedSearcher(pl, m)
        s.run(n, excluded, lambda t: out.append(tuple(sorted(t))), seed=seed)
        checked += s.checked
        nodes += s.nodes
        assert not s.undo and s.blocked == 0 and s.levels == _cap_state(pl, (), m)[0]
    assert checked == nodes > 0
    assert (out, nodes) == _seeded_sets(pl, n)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([4, 5, 7, 9, 11]), data=st.data())
def test_kernel_masks_match_line_counts(q, data):
    """Over random add/remove sequences the bitmask state gives the line
    counts, the tangent lines and the blocked points of the partial set, and
    the same repair step as the per-line definition."""
    pl = plane_for_order(q)
    cap = data.draw(st.none() | st.integers(2, q + 1))
    s = _Searcher(pl, cap)
    ops = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, pl.n - 1)), max_size=40))
    excluded = data.draw(st.integers(0, (1 << pl.n) - 1))
    n_target = data.draw(st.integers(1, 2 * q + 2))
    for add, p in ops:
        if add and not (s.partial_mask >> p) & 1:
            s._add(p)
        elif not add and s.partial:
            s._remove()
        levels, blocked, _ = _cap_state(pl, s.partial, cap)
        assert s.levels == levels and s.blocked == blocked
        free = s.all_points_mask & ~s.partial_mask & ~excluded
        tangents, ref = _reference_scan(pl, s.partial, free, n_target)
        assert s.levels[1] & ~s.levels[2] == sum(1 << l for l in tangents)
        if ref is not None:
            assert s._branch(free, n_target) == ref
    while s.partial:
        s._remove()
    assert s.levels == _cap_state(pl, (), cap)[0] and s.blocked == s.partial_mask == 0 and not s.undo


def test_exact_node_counts():
    """The DFS makes the same decisions, so its node counts are fixed."""
    assert _exists(plane_for_order(7), 11) == (None, 25)
    assert _exists(plane_for_order(9), 13) == (None, 97)
    assert _exists(plane_for_order(9), 14) == (None, 7_756)
    assert _exists(plane_for_order(11), 15) == (None, 8_206)
    w, nodes = _exists(plane_for_order(8), 10)
    assert nodes == 11
    assert is_tangent_free(PointSet(plane_for_order(8), w)) and len(w) == 10
    sets, nodes = _full_plane_sets(plane_for_order(5), 10)
    assert len(sets) == 3565 and nodes == 84_511
    sets, nodes = _full_plane_sets(plane_for_order(4), 11)
    assert len(sets) == 8568 and nodes == 64_220
    sets, nodes = _seeded_sets(plane_for_order(5), 10)
    assert (nodes, len(sets)) == (103, 6)
    sets, nodes = _seeded_sets(plane_for_order(4), 11)
    assert (nodes, len(sets)) == (468, 78)
    sets, nodes = _seeded_sets(plane_for_order(7), 12)
    assert (nodes, len(sets)) == (824, 12)
    assert _exists(plane_for_order(9), 15) == (
        (0, 9, 18, 27, 36, 45, 55, 56, 64, 65, 73, 74, 82, 83, 90), 36_105)
    assert secant_bound_check(5).nodes == 34


def test_search_outputs_match_the_pinned_digests():
    """Every job-runner path gives its pinned output: the seeded sets in
    order with their nodes, the secant-bound reports, the exact u_q levels
    and the classes at (7,12) (`output_manifest.search_outputs`)."""
    for name, value in search_outputs().items():
        assert canonical_sha256(value) == PINNED[name], name


def _per_subset_secant_reference(p):
    """The secant-bound check by an uncapped enumeration: for each size s and
    each x from the heavy-line size to s, the DFS with no line cap from one
    x-subset of L0 per PGL(2,p) orbit, avoiding L0 outside it, so that S meets
    L0 in exactly that subset.  Returns (all_heavy_trivial,
    max_secant_by_size, nodes)."""
    pl = plane_for_order(p)
    line = mask_bits(pl.line_masks[pl.index_of((0, 0, 1))])
    all_trivial, max_sec, nodes = True, {}, 0
    for size in range(p + 2, 2 * p + 1):
        xmin = -((-(2 * size - p + 1)) // 4)
        for x in range(max(xmin, 2), min(p + 1, size) + 1):
            for orbit in _line_orbits(pl, x):
                s = _Searcher(pl)
                found = []
                s.run(size, sum(1 << pt for pt in line if pt not in orbit[0]), found.append, seed=orbit[0])
                nodes += s.nodes
                for members in found:
                    ps = PointSet(pl, members)
                    max_sec[size] = max(max_sec.get(size, 0), spectrum(ps).max_secant())
                    all_trivial = all_trivial and is_trivial_set(ps)
    return all_trivial, max_sec, nodes


@pytest.mark.parametrize("p,ref_nodes,nodes", [(3, 30, 5), (5, 500, 34), (7, 4_823, 187)], ids=["p3", "p5", "p7"])
def test_secant_bound_matches_uncapped_reference(p, ref_nodes, nodes):
    """The secant-bound check from the seeds with m at least the heavy-line
    size, under their line caps, gives the verdict and the largest secants
    of the uncapped enumeration from every x-subset orbit, in fewer nodes."""
    ref_trivial, ref_max_secant, ref_count = _per_subset_secant_reference(p)
    assert ref_count == ref_nodes
    rep = secant_bound_check(p)
    assert (rep.all_heavy_trivial, rep.max_secant_by_size) == (ref_trivial, ref_max_secant) == (True, {2 * p: p})
    assert rep.nodes == nodes and rep.heavy_sets_found >= 1


def _reference_frontier_jobs(pl, n, m, seed, ex_mask, min_jobs):
    """Frontier expansion node by node: each node's state is rebuilt from its
    members, the blocked points from the per-line counts, and the branch
    from the per-line definition."""
    jobs = []

    def expand(members, ex_mask, depth):
        blocked = _cap_state(pl, members, m)[1]
        free = (1 << pl.n) - 1 & ~sum(1 << p for p in members) & ~ex_mask & ~blocked
        tangents, avail = _reference_scan(pl, members, free, n)
        if depth == 0 or not tangents:
            jobs.append((members, ex_mask))
            return
        ex = ex_mask
        for a in mask_bits(avail):
            expand(members + (a,), ex, depth - 1)
            ex |= 1 << a

    depth = 1
    while True:
        jobs.clear()
        expand(seed, ex_mask, depth)
        if len(jobs) >= min_jobs or depth >= 6:
            return jobs
        depth += 1


@pytest.mark.parametrize("q,n,min_jobs", [(7, 11, 6), (9, 13, 6), (9, 14, 6), (16, 18, 6),
                                          (5, 10, 6), (7, 11, 60), (9, 13, 60), (7, 10, 60)])
def test_frontier_jobs_match_per_node_reference(monkeypatch, q, n, min_jobs):
    """The frontier walks one searcher with the DFS's repair step and line
    cap and splits each seed's subtree into the same jobs as the node-by-node
    expansion (a larger `JOBS_PER_SEED` reaches past the first level; at q=7
    n=10 the bound prunes frontier nodes).  At q = 16 the seeds of m <= 4 are
    checked."""
    monkeypatch.setattr(search, "JOBS_PER_SEED", min_jobs)
    pl = plane_for_order(q)
    for m, seed, ex_mask in _seeds(pl, n):
        if m > 4 and q == 16:
            break
        jobs = _frontier_jobs(pl, n, m, seed, ex_mask)[0]
        assert jobs == _reference_frontier_jobs(pl, n, m, seed, ex_mask, min_jobs)


def test_parallel_level_settled_by_first_witness():
    """A level with a witness returns the serial scan's witness.  It counts
    the frontier of every seed up to the witness's m and the jobs up to the
    one that found it, and runs none of the jobs after it."""
    pl = plane_for_order(9)
    batches: dict[int, list] = {}
    for m, seed, ex_mask in _seeds(pl, 15):
        if m > 6:
            break
        batches.setdefault(m, []).append(_frontier_jobs(pl, 15, m, seed, ex_mask))
    nodes = every = 0
    witness = None
    for m, cuts in batches.items():
        for jobs, cnt in cuts:
            nodes, every = nodes + cnt, every + cnt
            for members, ex_mask in jobs:
                sets, cnt, unfinished = _run_job((pl.gf.spec, 15, m, members, ex_mask, None, True))
                assert not unfinished and len(sets) <= 1
                every += cnt
                if witness is None:
                    nodes += cnt
                    witness = sets[0] if sets else None
        if witness is not None:
            break
    assert witness is not None and m == 6
    assert _exists(pl, 15) == _exists(pl, 15, 2) == (witness, nodes)
    assert nodes < every


@pytest.mark.parametrize("q", [9, 25, 27])
def test_frame_seed_over_extension_fields(q):
    """The frame and the heaviest-line seeds come from the plane's coordinate
    index.  A search from the frame restricted to the two lines z=0 and x=y
    (which carry the frame) finds exactly their union minus the meet, the
    only tangent-free subset; so does a search from the first seed of
    m = q under its line cap, restricted to L0 and the line P0 b."""
    pl = plane_for_order(q)
    frame = _frame(pl)
    assert [pl.coords[p] for p in frame] == list(FRAME)
    for i in range(4):
        for j in range(i + 1, 4):
            line = pl.meet(frame[i], frame[j])
            assert not any(pl.incident(frame[k], line) for k in range(4) if k not in (i, j))
    l1 = pl.meet(frame[0], frame[1])
    l2 = pl.meet(frame[2], frame[3])
    trivial_set = (set(mask_bits(pl.line_masks[l1])) | set(mask_bits(pl.line_masks[l2]))) - {pl.meet(l1, l2)}
    ex_mask = sum(1 << p for p in range(pl.n) if p not in trivial_set)
    assert _search_from(pl, 2 * q - 1, None, frame, ex_mask)[0] is None
    assert _search_from(pl, 2 * q, None, frame, ex_mask)[0] == tuple(sorted(trivial_set))
    l0 = p0 = pl.index_of((0, 0, 1))
    line = mask_bits(pl.line_masks[l0])
    a = next(_line_orbits(pl, q))[0]  # the first seed of m = q (see _seeds)
    b = next(p for p in line if p not in a)
    assert pl.coords[b] == (0, 1, 0)
    seed = a + (p0, pl.index_of((0, 1, 1)))
    excluded = 1 << b
    pb = pl.meet(p0, b)
    trivial_set = (set(mask_bits(pl.line_masks[l0])) | set(mask_bits(pl.line_masks[pb]))) - {b}
    ex_mask = excluded | sum(1 << p for p in range(pl.n) if p not in trivial_set)
    assert _search_from(pl, 2 * q - 1, q, seed, ex_mask)[0] is None
    assert _search_from(pl, 2 * q, q, seed, ex_mask)[0] == tuple(sorted(trivial_set))


@pytest.mark.parametrize("q,n", [(5, 9), (7, 11), (7, 12), (9, 13), (9, 15), (16, 18)])
def test_parallel_witness_equals_serial(q, n):
    """The frontier does not depend on the worker count and the jobs are
    settled in order, so workers=2 settles each level with the workers=1
    witness and node count, found or refuted."""
    pl = plane_for_order(q)
    assert _exists(pl, n, 2) == _exists(pl, n, 1)


def test_budget_cut_keeps_nodes():
    """A cut at the first deadline check in the DFS keeps the nodes of the
    search so far; a deadline that has passed before the first job stops the
    level with the frontier's nodes of its first m, which are not zero, at
    workers 1 and 2."""
    pl = plane_for_order(9)
    m, seed, excluded = next((m, seed, ex) for m, seed, ex in _seeds(pl, 14) if m == 3)
    with pytest.raises(SearchTimeout) as cut:
        _search_from(pl, 14, m, seed, excluded, time.monotonic())
    assert cut.value.nodes == 256
    first = next(_seeds(pl, 13))[0]
    frontier = sum(_frontier_jobs(pl, 13, m, seed, ex)[1]
                   for m, seed, ex in _seeds(pl, 13) if m == first)
    assert frontier > 0
    for workers in (1, 2):
        with pytest.raises(SearchTimeout) as cut:
            _exists(pl, 13, workers, time.monotonic())
        assert cut.value.nodes == frontier
        res = min_tangent_free(9, 18, workers=workers, budget_s=0.0)
        assert res.status == "budget_exceeded" and res.exhausted_below == 13
        assert res.nodes == frontier


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_exceeded_keeps_level_nodes(workers):
    """A search cut off mid-level still reports the nodes it expanded (q=11
    level 15, 8,206 nodes, takes about 0.07 CPU s, and level 16, 83,101
    nodes, about 0.9 s at workers=1 and 0.5 s wall at workers=2, so the cut
    lands in level 16)."""
    res = min_tangent_free(11, 22, workers=workers, budget_s=0.5)
    assert res.status == "budget_exceeded"
    assert res.exhausted_below >= lower_bound(11)
    assert res.nodes > 0


def test_pool_stops_without_terminate(monkeypatch):
    """A level settled early and a level cut by the budget stop the pool by
    its stop event, then close and join it: no worker is signalled, and none
    is left running.  Levels settled early with more workers than CPUs give
    the serial witness; a hang dumps the stacks and ends the run.  Every
    level hands its jobs to the pool at once."""
    import faulthandler
    import multiprocessing
    import multiprocessing.pool

    def refuse(self):
        raise AssertionError("Pool.terminate called")

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", refuse)
    monkeypatch.setattr(search, "POOL_AFTER_S", 0)
    faulthandler.dump_traceback_later(120, exit=True)
    try:
        witness = _exists(plane_for_order(9), 15, 2)[0]
        assert witness is not None and len(witness) == 15
        res = min_tangent_free(11, 22, workers=2, budget_s=1.0)
        assert res.status == "budget_exceeded" and res.nodes > 0
        for _ in range(3):
            for q, n in [(7, 12), (9, 15), (16, 18)]:
                pl = plane_for_order(q)
                assert _exists(pl, n, 4)[0] == _exists(pl, n, 1)[0] is not None
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("after", [0, 0.03, search.POOL_AFTER_S])
@pytest.mark.parametrize("q,n", [(7, 12), (9, 14), (9, 15), (11, 15)])
def test_handover_keeps_witness_and_nodes(monkeypatch, q, n, after):
    """The jobs settle in job order wherever the run hands them to the
    pool: from the first job on (a pool is forked), after 0.03 CPU s, which
    each of these runs passes after a few jobs here, or, at the default,
    not at all.  So workers=2 gives the workers=1 witness and node count,
    and in collect mode the workers=1 sets, in order, and node count."""
    import multiprocessing.pool

    forks = []
    init = multiprocessing.pool.Pool.__init__

    def counted(self, *args, **kwargs):
        forks.append(1)
        init(self, *args, **kwargs)

    pl = plane_for_order(q)
    serial = _exists(pl, n, 1)
    collected = _run_jobs(pl, n, False, 1)
    monkeypatch.setattr(search, "POOL_AFTER_S", after)
    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counted)
    assert _exists(pl, n, 2) == serial
    assert forks or after
    forks.clear()
    assert _run_jobs(pl, n, False, 2) == collected
    assert forks or after


def test_small_levels_fork_no_pool(monkeypatch):
    """u_9 is settled by levels 13 and 14 (97 and 7,756 nodes, well under
    `POOL_AFTER_S` each) and a construction, so workers=2 forks no pool; nor
    do the enumerations of the benchmark's classification cases and the
    secant-bound check at p = 7 (187 nodes), which collect with one worker
    per CPU."""
    import multiprocessing.pool

    def refuse(self, *args, **kwargs):
        raise AssertionError("a pool was forked")

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", refuse)
    res = min_tangent_free(9, 18, workers=2)
    assert (res.u, res.nodes) == (15, 7_853)
    for q, n in CLASSIFY:
        enumerate_tangent_free(q, n)
    assert secant_bound_check(7).nodes == 187


def test_enumerate_q3_size6_all_trivial():
    from pg2q.tangency import is_trivial_set

    sets = enumerate_tangent_free(3, 6)
    assert sets
    pl = plane_for_order(3)
    for s in sets:
        assert is_trivial_set(PointSet(pl, s))
    # one trivial set per pair of lines
    assert len(sets) == 13 * 12 // 2


def test_enumerate_q5_size9_empty():
    assert enumerate_tangent_free(5, 9) == []


# the benchmark's classification cases, (8,10) (the one field with h = 3 in
# reach) and three empty answers
@pytest.mark.parametrize("q,n", [(3, 6), (3, 8), (3, 9), (4, 6), (4, 8), (4, 9), (4, 10), (4, 11), (5, 10),
                                 (8, 10), (5, 9), (5, 11), (7, 10)])
def test_enumeration_matches_full_plane_dfs(q, n):
    """The heaviest-line enumeration closed under PGL(3,q) lists exactly the
    sets of the full-plane DFS, which has no seed and no line cap, and the
    classes read from the seeded sets are the classes of that full list."""
    pl = plane_for_order(q)
    full = _full_plane_sets(pl, n)[0]
    assert enumerate_tangent_free(q, n) == full
    classes = classify_up_to_pgl(q, full)
    assert all(r.member_count == r.class_size for r in classes)
    from_seeds = classify_up_to_pgl(q, _seeded_sets(pl, n)[0])
    assert ([(r.canonical, r.class_size, r.stabilizer_order) for r in from_seeds]
            == [(r.canonical, r.class_size, r.stabilizer_order) for r in classes])


def test_enumeration_edge_sizes():
    """A set of 1 to 3 points has a tangent; the whole plane has none."""
    for q in (3, 4, 5):
        for n in (1, 2, 3):
            assert enumerate_tangent_free(q, n) == []
    assert enumerate_tangent_free(3, 13) == [tuple(range(13))]
    for n in (0, 14):
        with pytest.raises(Infeasible):
            enumerate_tangent_free(3, n)


def test_enumerate_q5_size10():
    sets = enumerate_tangent_free(5, 10)
    pl = plane_for_order(5)
    assert len(sets) == 3565  # C(31,2) pairs of lines + 372000/120 conics
    allowed = {(4, 25, 0, 0, 2), (6, 15, 10, 0, 0)}
    for s in sets[:50] + sets[-50:]:
        sp = spectrum(PointSet(pl, s))
        assert (sp[0], sp[2], sp[3], sp[4], sp[5]) in allowed


def test_pgl_group_order_and_closure():
    """At q = 2, 3, 4 the two generators close, acting on the identity, to a
    group of order |PGL(3,q)|; at q = 5 `elements()` checks the order
    itself."""
    assert pgl_group(3).order == 27 * 26 * 8 == 5616
    assert pgl_group(5).order == 372000
    for q in (2, 3, 4):
        group = pgl_group(q)
        gens = group.generators()
        assert len(gens) == 2
        moves = [itemgetter(*g) for g in gens]  # sends t to t o g
        seen = {tuple(range(group.plane.n))}
        frontier = list(seen)
        while frontier:
            nxt = []
            for s in frontier:
                for move in moves:
                    img = move(s)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        assert len(seen) == group.order == q**3 * (q**3 - 1) * (q**2 - 1)


@pytest.mark.parametrize("q,shape", [(4, (60480, 21)), (5, (372000, 31))], ids=["q4", "q5"])
def test_pgl_full_enumeration(q, shape):
    els = np.asarray(pgl_group(q).elements())
    assert els.shape == shape and els.dtype == np.int32
    # rows are permutations
    sample = els[::50000]
    for row in sample:
        assert sorted(row.tolist()) == list(range(shape[1]))
    # rows ascend: at the first column where two neighbours differ, the later is larger
    differ = els[1:] != els[:-1]
    first = differ.argmax(axis=1)
    rows = np.arange(len(first))
    assert differ.any(axis=1).all() and (els[1:][rows, first] > els[:-1][rows, first]).all()


def test_orbit_of_trivial_set():
    g = pgl_group(5)
    orb = g.orbit(trivial(5).sorted_tuple())
    assert len(orb) == 465  # one per pair of lines
    assert 372000 % 465 == 0


def test_classification_pg25():
    sets = enumerate_tangent_free(5, 10)
    reps = classify_up_to_pgl(5, sets)
    assert len(reps) == 2
    sizes = sorted(r.class_size for r in reps)
    assert sizes == [465, 3100]
    for r in reps:
        assert r.class_size * r.stabilizer_order == 372000
        assert r.member_count == r.class_size
    # representatives match the two known constructions
    g = pgl_group(5)
    triv = trivial(5).sorted_tuple()
    intr = interior_points(canonical_conic(plane_for_order(5))).sorted_tuple()
    orbits = [set(g.orbit(r.canonical)) for r in reps]
    assert any(triv in o for o in orbits)
    assert any(intr in o for o in orbits)
    # the classes are separated by the presence of 5-secants
    pl = plane_for_order(5)
    for r in reps:
        sp = spectrum(PointSet(pl, r.canonical))
        if r.class_size == 465:
            assert sp[5] == 2
        else:
            assert sp.max_secant() == 3


@pytest.mark.parametrize("q,n,stabilisers", [(5, 10, [120, 800]), (4, 11, None)])
def test_stabiliser_by_quadrangle_maps(q, n, stabilisers):
    """|Stab(S)| counted without the generator BFS.  The map of an ordered
    quadrangle of S onto the frame sends S to a set through the frame, and two
    such maps give the same image exactly when they differ by an element of
    Stab(S), so the ordered quadrangles of S number |Stab(S)| times their
    distinct images."""
    pl = plane_for_order(q)

    def collinear(a, b, c):
        return c in mask_bits(pl.line_masks[pl.meet(a, b)])

    reps = classify_up_to_pgl(q, _seeded_sets(pl, n)[0])
    for r in reps:
        quads = [quad for four in combinations(r.canonical, 4)
                 if not any(collinear(*three) for three in combinations(four, 3))
                 for quad in permutations(four)]
        images = set()
        for quad in quads:
            g = _frame_collineation(pl, quad)
            images.add(tuple(sorted(g[p] for p in r.canonical)))
        assert len(quads) == len(images) * r.stabilizer_order
    if stabilisers is not None:
        assert sorted(r.stabilizer_order for r in reps) == stabilisers


def test_known_witnesses_sizes():
    """The construction witnesses up to 2q, each the first set of its size in
    the construction list except the 18-point conic-plus-exterior union at
    q = 11, and each a tangent-free set of that size."""
    sizes = {3: [6], 4: [8], 5: [10], 7: [12, 14], 8: [16], 9: [15, 16, 18], 11: [18, 20, 22],
             13: [24, 26], 16: [32], 25: [45, 48, 50], 27: [42, 45, 52, 54]}
    for q, want in sizes.items():
        pl = plane_for_order(q)
        found = known_witnesses(q)
        assert sorted(m for m in found if m <= 2 * q) == want
        first: dict[int, tuple[int, ...]] = {}
        for c in all_certificates(q):
            first.setdefault(len(c.points), c.points.sorted_tuple())
        for m, w in found.items():
            assert len(w) == m and is_tangent_free(PointSet(pl, w))
            assert (q, m) == (11, 18) or w == first[m]


def test_witness_checks_raise(monkeypatch):
    """A construction or a search result that is not a tangent-free set of
    its size is refused with an error, not returned as a verified witness."""
    import pg2q.constructions
    import pg2q.search
    from pg2q.constructions import Construction

    bad = Construction("three_points", PointSet(plane_for_order(5), (0, 1, 2)), 3)
    with monkeypatch.context() as patch:
        patch.setattr(pg2q.constructions, "all_certificates", lambda q: [bad])
        with pytest.raises(AssertionError, match="three_points at q=5 is not a tangent-free set"):
            known_witnesses(5)
        with pytest.raises(AssertionError, match="three_points"):
            min_tangent_free(5, 12, workers=1)
    with monkeypatch.context() as patch:
        patch.setattr(pg2q.search, "_exists", lambda plane, n, workers, deadline: ((0, 1, 2), 1))
        with pytest.raises(AssertionError, match="the witness of size 8 at q=5 is not"):
            min_tangent_free(5, 12, workers=1)


def test_witness_checks_survive_python_O():
    """Under python -O, which strips assert statements, the witness checks
    still refuse a construction and a search result with tangents."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "import pg2q.constructions, pg2q.search\n"
        "from pg2q.constructions import Construction\n"
        "from pg2q.plane import PointSet, plane_for_order\n"
        "assert False, 'asserts are not stripped'\n"
        "bad = Construction('three_points', PointSet(plane_for_order(5), (0, 1, 2)), 3)\n"
        "good = pg2q.constructions.all_certificates\n"
        "pg2q.constructions.all_certificates = lambda q: [bad]\n"
        "for call in (lambda: pg2q.search.known_witnesses(5), lambda: pg2q.search.min_tangent_free(5, 12, workers=1)):\n"
        "    try:\n"
        "        call()\n"
        "        sys.exit('a construction with tangents was returned')\n"
        "    except AssertionError as e:\n"
        "        if 'three_points' not in str(e):\n"
        "            sys.exit(str(e))\n"
        "pg2q.constructions.all_certificates = good\n"
        "pg2q.search._exists = lambda plane, n, workers, deadline: ((0, 1, 2), 1)\n"
        "try:\n"
        "    pg2q.search.min_tangent_free(5, 12, workers=1)\n"
        "    sys.exit('a search witness with tangents was returned')\n"
        "except AssertionError as e:\n"
        "    if 'the witness of size 8' not in str(e):\n"
        "        sys.exit(str(e))\n"
        "print('refused')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    r = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["refused"]


def test_worker_count_independence():
    r1 = min_tangent_free(7, 14, workers=1)
    r2 = min_tangent_free(7, 14, workers=2)
    assert r1.u == r2.u == 12
    assert r1.witness == r2.witness


def test_even_order_minimum_is_hyperoval_size():
    res = min_tangent_free(4, 8, workers=1)
    assert res.found and res.u == 6  # q+2, met by hyperovals
    ps = PointSet(plane_for_order(4), res.witness)
    assert is_tangent_free(ps)
    assert all(c <= 2 for c in ps.per_line)  # the witness is an arc


def test_bl_bound_never_violated():
    """No search or construction ever produced a set below the sqrt bound."""
    for q in (3, 5, 7):
        res = min_tangent_free(q, 2 * q, workers=1)
        assert res.u >= lower_bound(q)


def test_orbit_matches_elements():
    """The generator-BFS orbit is the orbit read off the full element table."""
    cases = [
        trivial(3),
        trivial(4),
        hyperoval(4),
        trivial(5),
        interior_points(canonical_conic(plane_for_order(5))),
    ]
    assert len(pgl_group(3).orbit(trivial(3).sorted_tuple())) == 13 * 12 // 2  # one per pair of lines
    for s in cases:
        g = pgl_group(s.plane.q)
        members = s.sorted_tuple()
        table = np.unique(np.sort(np.asarray(g.elements())[:, list(members)], axis=1), axis=0)
        assert g.orbit(members) == [tuple(row) for row in table.tolist()]


def _reference_bfs(start, perms):
    """The orbit of a sorted index tuple by a BFS on tuples: each permutation
    sends a tuple to its sorted image."""
    seen, reached = {start}, [start]
    for t in reached:
        for g in perms:
            img = tuple(sorted(g[p] for p in t))
            if img not in seen:
                seen.add(img)
                reached.append(img)
    return reached


def _generator_matrices(gf):
    """Four elementary matrices that generate GL(3,q): the transvections
    I + E01 and I + E10, the 3-cycle of the coordinates and diag(g,1,1), g the
    field's primitive element.  A second generating set, beside the Singer
    cycle and I + E01 of `PGLGroup.generators`."""
    g = gf.generator
    return [(1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 0, 0, 0, 1, 0), (g, 0, 0, 0, 1, 0, 0, 0, 1)]


def _reference_orbit(plane, members):
    """`PGLGroup.orbit` by the tuple BFS over the four `_generator_matrices`,
    without masks or the Singer cycle."""
    perms = [[plane.apply_matrix(mat, p) for p in range(plane.n)] for mat in _generator_matrices(plane.gf)]
    return sorted(_reference_bfs(tuple(sorted(set(members))), perms))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_mask_orbit_matches_tuple_reference(q):
    """The mask BFS gives the orbit of the tuple BFS over a second generating
    set, the four elementary matrices.  The Singer move shifts each point one
    slot along `singer.point_of` and the transvection move is I + E01 applied
    point by point, and `points_of` reads a mask's points, on the empty mask,
    the full mask and random masks.  The random sets have small orbits above
    q = 4: 1, 2, n - 2 and n - 1 points, a line less a point and a line plus a
    point; at q <= 4 one more has any size."""
    rng = random.Random(q)
    group = pgl_group(q)
    pl = group.plane
    n = pl.n
    point_of, slot = pl.singer.point_of, pl.singer.slot
    masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
    singer_move, transvection_move = group.mask_moves
    for mask in masks:
        assert singer_move(mask) == mask_of(point_of[(slot[p] + 1) % n] for p in mask_bits(mask))
        assert transvection_move(mask) == mask_of(pl.apply_matrix((1, 1, 0, 0, 1, 0, 0, 0, 1), p) for p in mask_bits(mask))
    assert all(group.points_of(mask) == tuple(mask_bits(mask)) for mask in masks)
    sizes = [1, 2, n - 2, n - 1] + ([rng.randrange(3, n - 2)] if q <= 4 else [])
    sets = [rng.sample(range(n), k) for k in sizes]
    for _ in range(2):
        line = mask_bits(pl.line_masks[rng.randrange(n)])
        sets.append(line[:-1])
        sets.append(line + [rng.choice([p for p in range(n) if p not in line])])
    for members in sets:
        assert group.orbit(members) == _reference_orbit(pl, members)


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13, 16])
def test_two_generators_beyond_the_element_table(q):
    """Where `elements()` is not built: the Singer cycle sends every line to a
    line, and the two-generator orbits of a point pair, a line less a point
    and a line plus a point have the sizes PGL(3,q) gives them and are closed
    under each of the four elementary moves, which generate PGL(3,q).  Covers
    q = 1 (mod 3) (7, 13, 16), even q (8, 16) and p = 3 (9)."""
    group = pgl_group(q)
    pl = group.plane
    n = pl.n
    singer = group.generators()[0]
    lines = set(pl.line_masks)
    assert {mask_of(singer[p] for p in mask_bits(lm)) for lm in pl.line_masks} == lines
    line = mask_bits(pl.line_masks[0])
    off = next(p for p in range(n) if p not in line)
    cases = [((0, 1), n * (n - 1) // 2), (line[:-1], n * (q + 1)), ((*line, off), n * (n - q - 1))]
    moves = [partial(by_bytes, byte_tables([1 << pl.apply_matrix(mat, p) for p in range(n)]))
             for mat in _generator_matrices(pl.gf)]
    for members, size in cases:
        [orbit] = search.pgl_orbits(q, [mask_of(members)])
        assert len(orbit) == size
        reached = set(orbit)
        for move in moves:
            assert reached.issuperset(map(move, orbit))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11])
def test_line_orbits_match_tuple_reference(q):
    """`_line_orbits` on L0 masks lists the orbits of the tuple BFS, in the
    same order and each in BFS order, so `_line_seeds` seeds from the same
    least members, for every m."""
    pl = plane_for_order(q)
    l0 = mask_bits(pl.line_masks[pl.index_of((0, 0, 1))])
    g = pl.gf.generator
    perms = [{p: pl.apply_matrix(mat, p) for p in l0}
             for mat in ((1, 1, 0, 0, 1, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0, 0, 0, 1), (g, 0, 0, 0, 1, 0, 0, 0, 1))]
    for m in range(q + 2):
        want, seen = [], set()
        for t in combinations(l0, m):
            if t not in seen:
                want.append(_reference_bfs(t, perms))
                seen.update(want[-1])
        assert list(_line_orbits(pl, m)) == want
        assert [seed[:m] for seed, _ in _line_seeds(pl, m)] == [orbit[0] for orbit in want]


def test_orbit_layer_rejects_points_off_the_plane():
    """A point outside [0, n) raises IndexError in `orbit` and in
    `classify_up_to_pgl`, and a repeated point counts once."""
    group = pgl_group(3)
    for bad in [(0, 1, 2, -1), (0, 1, 2, 13)]:
        with pytest.raises(IndexError):
            group.orbit(bad)
        with pytest.raises(IndexError):
            classify_up_to_pgl(3, [bad])
    assert group.orbit((0, 0, 1, 2)) == group.orbit((0, 1, 2))
    assert classify_up_to_pgl(3, [(0, 0, 1, 2)]) == classify_up_to_pgl(3, [(2, 1, 0)])
    assert classify_up_to_pgl(3, [(0, 1, 2)]) == [OrbitRep((0, 1, 2), 52, 108, 1)]  # 4 per line


@pytest.mark.parametrize("q,n,canonical,size,stabiliser,seeded", [
    (7, 12, (0, 1, 2, 7, 8, 9, 17, 20, 31, 34, 45, 48), 78_204, 72, 12),
    (9, 15, (0, 1, 2, 3, 4, 5, 9, 10, 11, 21, 22, 23, 84, 85, 86), 98_280, 432, 1),
])
def test_one_class_at_the_larger_orders(q, n, canonical, size, stabiliser, seeded):
    """The tangent-free 12-sets of PG(2,7) and 15-sets of PG(2,9) form one
    class each, met by `seeded` of the sets found from the seeds; the
    enumeration lists that class, least member first."""
    assert classify_tangent_free(q, n) == [OrbitRep(canonical, size, stabiliser, seeded)]
    sets = enumerate_tangent_free(q, n)
    assert len(sets) == size and sets[0] == canonical
