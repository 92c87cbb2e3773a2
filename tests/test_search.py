import time
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg2q.codes import hyperoval
from pg2q.constructions import constructions_at, interior_points, trivial
from pg2q.conic import canonical_conic
from pg2q.plane import PointSet, mask_bits, plane_for_order
from pg2q.search import (
    FRAME,
    CapTooSmall,
    Infeasible,
    OrbitRep,
    SearchTimeout,
    _enumerate_with_state,
    _exists,
    _exists_from,
    _frame_sets,
    _frontier_jobs,
    _Searcher,
    brute_force_min,
    classify_up_to_pgl,
    enumerate_tangent_free,
    frame_collineation,
    frame_seed,
    frame_symmetries,
    known_witnesses,
    lower_bound,
    min_tangent_free,
    pgl_group,
)
from pg2q.tangency import is_tangent_free, secant_bound_check, spectrum


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


def _triple_seed_witness(pl, n):
    """Reference search over two seeds, one collinear triple and one
    triangle through points 0 and 1; together they are exhaustive, since the
    collineation group is transitive on each kind of triple."""
    l01 = pl.line_through(0, 1)
    third_on = min(set(pl.points_on_line[l01]) - {0, 1})
    third_off = next(p for p in range(pl.n) if not pl.incident(p, l01))
    for seed in ((0, 1, third_on), (0, 1, third_off)):
        box = []
        _Searcher(pl).run(n, 0, False, lambda t: box.append(t) or True, seed=seed)
        if box:
            return box[0]
    return None


def test_frame_seed_agrees_with_triple_seeds():
    """The frame seed settles every level from the sqrt bound to u_q like the
    two-triple reference."""
    for q, u in [(3, 6), (4, 6), (5, 10), (7, 12)]:
        pl = plane_for_order(q)
        for n in range(lower_bound(q), u + 1):
            wf = _exists(pl, n)[0]
            wt = _triple_seed_witness(pl, n)
            assert (wf is None) == (wt is None) == (n < u)
            if wf is not None:
                assert set(frame_seed(pl)) <= set(wf)
                assert is_tangent_free(PointSet(pl, wf)) and len(wf) == n
                assert is_tangent_free(PointSet(pl, wt)) and len(wt) == n


def _unpruned_witness(pl, n):
    """Reference existence search from the frame seed that skips no
    symmetric sibling."""
    s = _Searcher(pl)
    s.symmetries = ()
    box = []
    s.run(n, 0, False, lambda t: box.append(tuple(sorted(t))) or True, seed=frame_seed(pl))
    return box[0] if box else None


# every level from the sqrt bound to u_q, and q=9 n=13
LEVELS = pytest.mark.parametrize(
    "q,levels", [(3, range(6, 7)), (4, range(6, 7)), (5, range(8, 11)), (7, range(10, 13)),
                 (8, range(10, 11)), (9, range(13, 14))],
    ids=["q3", "q4", "q5", "q7", "q8", "q9-n13"])


@LEVELS
def test_symmetry_skips_keep_verdict_and_witness(q, levels):
    """Skipping symmetric siblings settles every level from the sqrt bound to
    u_q (and q=9 n=13) as the search without skips does, with the same
    witness."""
    pl = plane_for_order(q)
    assert levels.start == lower_bound(q)
    for n in levels:
        assert _exists(pl, n)[0] == _unpruned_witness(pl, n)


class _PreCoverSearcher(_Searcher):
    """The repair step without the cover bound: dead tangents, the greedy
    matching and the largest pencil prune, as before the cover was added."""

    def _branch(self, free, n_target):
        tangents = self.once & ~self.twice
        used = k = 0
        best_avail, best_cnt = 0, self.plane.n + 1
        for l in mask_bits(tangents):
            avail = self.line_masks[l] & free
            if not avail:
                return 0, 0
            if not avail & used:
                k += 1
                used |= avail
            if avail.bit_count() < best_cnt:
                best_avail, best_cnt = avail, avail.bit_count()
        max_pencil = max((tangents & self.line_masks[p]).bit_count() for p in self.partial)
        if len(self.partial) + max(k, max_pencil) > n_target:
            return 0, 0
        if not self.symmetries:
            return best_avail, best_avail
        skip = self._symmetric_siblings(best_avail, free)
        self.skips += skip.bit_count()
        return best_avail, best_avail & ~skip


@LEVELS
def test_cover_bound_keeps_verdict_and_witness(q, levels):
    """The cover bound prunes only nodes without a completion, so every level
    is settled with the witness of the search without it, in no more nodes."""
    pl = plane_for_order(q)
    for n in levels:
        s = _PreCoverSearcher(pl)
        s.symmetries = frame_symmetries(pl)
        box = []
        s.run(n, 0, False, lambda t: box.append(tuple(sorted(t))) or True, seed=frame_seed(pl))
        witness, nodes, _ = _exists(pl, n)
        assert witness == (box[0] if box else None)
        assert witness is not None or nodes <= s.nodes


@pytest.mark.parametrize("q,n", [(4, 11), (5, 10)])
def test_cover_bound_keeps_enumeration(q, n):
    """Enumeration with the cover bound lists the same sets in fewer nodes."""
    pl = plane_for_order(q)
    s = _PreCoverSearcher(pl)
    out = []
    s.run(n, 0, True, lambda t: out.append(tuple(sorted(t))))
    sets, nodes = _enumerate_with_state(pl, n)
    assert sets == sorted(out)
    assert nodes < s.nodes


def test_cover_bound_alone_prunes():
    """The frame of PG(2,4) lies in one hyperoval, whose other two points are
    the points on none of the frame's six secants.  With one of them excluded
    and 2 points to add, the matching and pencil bounds keep the node (2
    tangents through each frame point, 8 in all), but the best 2 free points
    repair 4 + 2 < 8 tangents, so the cover prunes it."""
    pl = plane_for_order(4)
    frame = frame_seed(pl)
    secants = {pl.line_through(a, b) for a in frame for b in frame if a < b}
    off = [x for x in range(pl.n) if x not in frame and not any(pl.incident(x, l) for l in secants)]
    assert len(off) == 2
    s = _Searcher(pl)
    for p in frame:
        s._add(p)
    free = s.all_points_mask & ~s.partial_mask & ~(1 << off[0])
    assert _reference_scan(pl, s.partial, free, 6, cover=False)[1]
    assert _reference_scan(pl, s.partial, free, 6)[1] == 0
    assert s._branch(free, 6) == (0, 0)
    assert s._branch(free | 1 << off[0], 6) != (0, 0)
    assert _exists_from(pl, 6, frame, 1 << off[0], None)[0] is None
    assert _exists_from(pl, 6, frame, 0, None)[0] == tuple(sorted(frame + tuple(off)))


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
    """frame_collineation sends each of the 24 orderings of the frame to the
    frame; the 24 maps are closed under composition and are the stabiliser
    generated from permutation matrices, and frame_symmetries is that group
    less the identity."""
    pl = plane_for_order(q)
    frame = frame_seed(pl)
    maps = []
    for quad in permutations(frame):
        g = frame_collineation(pl, quad)
        assert sorted(g) == list(range(pl.n))
        assert tuple(g[p] for p in quad) == frame
        maps.append(g)
    group = set(maps)
    assert len(group) == 24
    assert all(tuple(a[b[p]] for p in range(pl.n)) in group for a in maps for b in maps)
    assert group == _frame_stabiliser_reference(pl)
    assert set(frame_symmetries(pl)) == group - {tuple(range(pl.n))}


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
        g = frame_collineation(pl, tuple(pl.apply_matrix(m, p) for p in frame_seed(pl)))
        assert all(g[pl.apply_matrix(m, p)] == p for p in range(pl.n))
    line = pl.points_on_line[0]
    off = next(p for p in range(pl.n) if not pl.incident(p, 0))
    with pytest.raises(ZeroDivisionError):
        frame_collineation(pl, (line[0], line[1], line[2], off))


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
            for x in pl.points_on_line[l]:
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
        assert self.once & ~self.twice == sum(1 << l for l in tangents)
        assert got[0] == ref and (ref or got == (0, 0))
        r = n_target - len(self.partial)
        pencils = [(self.once & ~self.twice & self.line_masks[p]).bit_count() for p in self.partial]
        if 1 < max(pencils) <= r:
            self.shared += 1
        if not ref and _reference_scan(self.plane, self.partial, free, n_target, cover=False)[1]:
            self.cover_only += 1
        return got


def test_repair_step_matches_reference_at_every_node():
    """At every node of a frame-seeded existence level with symmetric
    sibling skips, and of an enumeration, the repair step prunes and
    branches as the per-line definition does.  Both searches reach nodes
    with several tangents through one member, which the cover counts once
    per member, and nodes that only the cover prunes."""
    pl = plane_for_order(7)
    s = _CheckedSearcher(pl)
    s.symmetries = frame_symmetries(pl)
    box = []
    s.run(11, 0, False, lambda t: box.append(t) or True, seed=frame_seed(pl))
    assert not box and (s.nodes, s.skips) == (702, 3)
    assert s.shared and s.cover_only
    s = _CheckedSearcher(plane_for_order(4))
    out = []
    s.run(8, 0, True, out.append)
    assert len(out) == 210 and s.nodes == 4497
    assert s.shared and s.cover_only


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([4, 5, 7, 9, 11]), data=st.data())
def test_kernel_masks_match_line_counts(q, data):
    """Over random add/remove sequences the bitmask state gives the tangent
    lines of the partial set and the same repair step as the per-line
    definition."""
    pl = plane_for_order(q)
    s = _Searcher(pl)
    ops = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, pl.n - 1)), max_size=40))
    excluded = data.draw(st.integers(0, (1 << pl.n) - 1))
    n_target = data.draw(st.integers(1, 2 * q + 2))
    for add, p in ops:
        if add and not (s.partial_mask >> p) & 1:
            s._add(p)
        elif not add and s.partial:
            s._remove()
        free = s.all_points_mask & ~s.partial_mask & ~excluded
        tangents, ref = _reference_scan(pl, s.partial, free, n_target)
        assert s.once & ~s.twice == sum(1 << l for l in tangents)
        assert (s.once == s.twice) == (not tangents)
        if ref is not None:
            assert s._branch(free, n_target) == (ref, ref)
    while s.partial:
        s._remove()
    assert s.once == s.twice == s.partial_mask == 0 and not s.undo


def test_exact_node_counts():
    """The DFS makes the same decisions, so its node and skip counts are
    fixed."""
    assert _exists(plane_for_order(7), 11) == (None, 702, 3)
    assert _exists(plane_for_order(9), 13) == (None, 2_680, 10)
    assert _exists(plane_for_order(9), 14) == (None, 30_022, 10)
    assert _exists(plane_for_order(11), 15) == (None, 64_064, 6)
    w, nodes, _ = _exists(plane_for_order(8), 10)
    assert nodes == 26
    assert is_tangent_free(PointSet(plane_for_order(8), w)) and len(w) == 10
    sets, nodes = _enumerate_with_state(plane_for_order(5), 10)
    assert len(sets) == 3565 and nodes == 84_511
    sets, nodes = _enumerate_with_state(plane_for_order(4), 11)
    assert len(sets) == 8568 and nodes == 64_220
    sets, nodes, skips = _frame_sets(plane_for_order(5), 10)
    assert (nodes, len(sets), skips) == (554, 21, 2)
    sets, nodes, skips = _frame_sets(plane_for_order(4), 11)
    assert (nodes, len(sets), skips) == (1_972, 316, 2)
    assert secant_bound_check(5).nodes == 6_892


def _reference_frontier_jobs(pl, n, min_jobs, seed):
    """Frontier expansion node by node: each node's state is rebuilt from its
    members, the branch comes from the per-line definition, and the node's
    symmetries are the elements of the reference Stab(frame) that fix its
    members and its excluded points as sets."""
    stab = _frame_stabiliser_reference(pl)
    jobs = []

    def expand(members, ex_mask, depth):
        free = (1 << pl.n) - 1 & ~sum(1 << p for p in members) & ~ex_mask
        tangents, avail = _reference_scan(pl, members, free, n)
        if depth == 0 or not tangents:
            jobs.append((members, ex_mask))
            return
        excluded = {p for p in range(pl.n) if ex_mask >> p & 1}
        group = [g for g in stab if {g[p] for p in members} == set(members)
                 and {g[e] for e in excluded} == excluded]
        branch = [p for p in range(pl.n) if avail >> p & 1]
        ex = ex_mask
        for j, a in enumerate(branch):
            if not any(g[b] == a for g in group for b in branch[:j]):
                expand(members + (a,), ex, depth - 1)
            ex |= 1 << a

    depth = 1
    while True:
        jobs.clear()
        expand(seed, 0, depth)
        if len(jobs) >= min_jobs or depth >= 6:
            return jobs
        depth += 1


@pytest.mark.parametrize("q,n,min_jobs", [(7, 11, 6), (9, 13, 6), (9, 14, 6), (16, 18, 6),
                                          (5, 10, 6), (7, 11, 60), (9, 13, 60), (7, 10, 60)])
def test_frontier_jobs_match_per_node_reference(q, n, min_jobs):
    """The frontier walks one searcher with the DFS's repair step and splits
    the root into the same jobs as the node-by-node expansion, symmetric
    siblings skipped (a larger min_jobs reaches past the first level; at q=7
    n=10 the bound prunes frontier nodes)."""
    pl = plane_for_order(q)
    assert _frontier_jobs(pl, n, min_jobs)[0] == _reference_frontier_jobs(pl, n, min_jobs, frame_seed(pl))


def test_parallel_level_settled_by_first_witness():
    """A level with a witness returns the serial scan's witness without
    running the frontier jobs after the one that found it."""
    pl = plane_for_order(9)
    ws = _exists(pl, 15)[0]
    wp, nodes, _ = _exists(pl, 15, 2)
    assert ws is not None and wp == ws
    assert nodes < 10_000  # running every job to its end spends 125,108


@pytest.mark.parametrize("q", [9, 25, 27])
def test_frame_seed_over_extension_fields(q):
    """The frame comes from the plane's coordinate index, and a frame-seeded
    search restricted to the two lines z=0 and x=y (which carry the frame)
    finds exactly their union minus the meet, the only tangent-free subset."""
    pl = plane_for_order(q)
    seed = frame_seed(pl)
    assert [pl.coords[p] for p in seed] == list(FRAME)
    for i in range(4):
        for j in range(i + 1, 4):
            line = pl.line_through(seed[i], seed[j])
            assert not any(pl.incident(seed[k], line) for k in range(4) if k not in (i, j))
    l1 = pl.line_through(seed[0], seed[1])
    l2 = pl.line_through(seed[2], seed[3])
    trivial_set = (set(pl.points_on_line[l1]) | set(pl.points_on_line[l2])) - {pl.meet(l1, l2)}
    ex_mask = sum(1 << p for p in range(pl.n) if p not in trivial_set)
    assert _exists_from(pl, 2 * q - 1, seed, ex_mask, None)[0] is None
    assert _exists_from(pl, 2 * q, seed, ex_mask, None)[0] == tuple(sorted(trivial_set))


@pytest.mark.parametrize("q,n", [(5, 9), (7, 11), (7, 12), (9, 13), (9, 15), (16, 18)])
def test_parallel_witness_equals_serial(q, n):
    """The workers skip symmetric siblings at their job roots as the serial
    DFS does at the same nodes, so workers=2 settles each level with the
    workers=1 witness, and a refuted level (the frontier's nodes and skips
    included) has the serial node and skip counts."""
    pl = plane_for_order(q)
    wp, nodes_p, skips_p = _exists(pl, n, 2)
    ws, nodes_s, skips_s = _exists(pl, n, 1)
    assert wp == ws
    assert ws is not None or (nodes_p, skips_p) == (nodes_s, skips_s)


def test_budget_cut_keeps_symmetry_skips():
    """A cut at the first deadline check in the DFS keeps the nodes and skips
    of the search so far; a deadline that has passed before the first job
    stops the level with the frontier's nodes and skips."""
    pl = plane_for_order(9)
    with pytest.raises(SearchTimeout) as cut:
        _exists_from(pl, 14, frame_seed(pl), 0, time.monotonic())
    assert (cut.value.nodes, cut.value.skips) == (4096, 7)
    with pytest.raises(SearchTimeout) as cut:
        _exists(pl, 14, 1, time.monotonic())
    assert (cut.value.nodes, cut.value.skips) == (3, 7)
    res = min_tangent_free(9, 18, workers=1, budget_s=0.0)
    assert res.status == "budget_exceeded" and res.exhausted_below == 13
    assert (res.nodes, res.symmetry_skips) == (3, 7)


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_exceeded_keeps_level_nodes(workers):
    """A search cut off mid-level still reports the nodes it expanded (q=11
    level 15, 64,064 nodes, takes about 1.3 CPU s at workers=1, so the cut
    lands in level 16, whose 919,015 nodes take far longer than the budget)."""
    res = min_tangent_free(11, 22, workers=workers, budget_s=2.0)
    assert res.status == "budget_exceeded"
    assert res.exhausted_below >= lower_bound(11)
    assert res.nodes > 0


def test_pool_stops_without_terminate(monkeypatch):
    """A level settled early and a level cut by the budget stop the pool by
    its stop event, then close and join it: no worker is signalled, and none
    is left running.  Levels settled early with more workers than CPUs give
    the serial witness; a hang dumps the stacks and ends the run."""
    import faulthandler
    import multiprocessing
    import multiprocessing.pool

    def refuse(self):
        raise AssertionError("Pool.terminate called")

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", refuse)
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
    """The frame-seeded enumeration closed under PGL(3,q) lists exactly the
    sets of the full-plane DFS, which skips no symmetry, and the classes read
    from the frame sets are the classes of that full list."""
    pl = plane_for_order(q)
    full = _enumerate_with_state(pl, n)[0]
    assert enumerate_tangent_free(q, n) == full
    classes = classify_up_to_pgl(q, full)
    assert all(r.member_count == r.class_size for r in classes)
    from_frame = classify_up_to_pgl(q, _frame_sets(pl, n)[0])
    assert ([(r.canonical, r.class_size, r.stabilizer_order) for r in from_frame]
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
    g3 = pgl_group(3)
    assert g3.order == 27 * 26 * 8 == 5616
    # generator closure reproduces the full group order
    gens = g3.generators()
    seen = {tuple(range(g3.plane.n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                img = tuple(g[s[i]] for i in range(len(s)))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    assert len(seen) == 5616
    assert pgl_group(5).order == 372000


@pytest.mark.parametrize("q,shape", [(4, (60480, 21)), (5, (372000, 31))], ids=["q4", "q5"])
def test_pgl_full_enumeration(q, shape):
    g = pgl_group(q)
    els = g.elements()
    assert els.shape == shape
    # rows are permutations
    sample = els[::50000]
    for row in sample:
        assert sorted(row.tolist()) == list(range(shape[1]))


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
        return c in pl.points_on_line[pl.line_through(a, b)]

    reps = classify_up_to_pgl(q, _frame_sets(pl, n)[0])
    for r in reps:
        quads = [quad for four in combinations(r.canonical, 4)
                 if not any(collinear(*three) for three in combinations(four, 3))
                 for quad in permutations(four)]
        images = set()
        for quad in quads:
            g = frame_collineation(pl, quad)
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
        for c in constructions_at(q):
            first.setdefault(len(c.points), c.points.sorted_tuple())
        for m, w in found.items():
            assert len(w) == m and is_tangent_free(PointSet(pl, w))
            assert (q, m) == (11, 18) or w == first[m]


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
        table = np.unique(np.sort(g.elements()[:, list(members)], axis=1), axis=0)
        assert g.orbit(members) == [tuple(row) for row in table.tolist()]
