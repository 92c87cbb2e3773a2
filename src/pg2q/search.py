"""Exact searches for minimum tangent-free sets, exhaustive enumeration at a
fixed size, and classification up to PGL(3,q).

The core is a repair DFS: while the partial set has a tangent line, every
completion must pick up another point of that line, so we branch over its
available points (accumulating exclusions across siblings, which makes the
enumeration duplicate-free).  One repair step, `_Searcher._branch`, picks the
branch line and prunes by three bounds on the r points still to add, cheapest
per node first: the largest tangent pencil; the cover, the r points repairing
at most the sum of the r largest tangent counts through a free point, counted
from one mask per member (the points on its tangents); and, only at the nodes
those two keep, a greedy matching of tangent lines with pairwise disjoint
candidate pools, in the one pass over the tangents that also picks the branch
line.  Iterative deepening starts at the sqrt lower bound on u_q.

Every search is seeded at a heaviest line.  Let S be tangent-free with
largest line count m; then 2 <= m <= |S| - 2, since a set on one line plus at
most one point has a tangent.  PGL(3,q) is transitive on lines, so an
m-secant can be taken to be L0: z = 0.  The stabiliser of L0 acts on it as
PGL(2,q), so S and L0 can be taken to meet in one representative A of each
orbit of m-subsets of L0 (`_line_orbits`).  The collineations that fix L0
pointwise are transitive off L0, so S can be taken to contain P0 = (0,0,1).
For b = (x, y, 0) the first point of L0 outside A, the line P0 b meets S in a
point off L0, and a homology with centre P0 and axis L0 moves it to
(x, y, 1).  So every class of tangent-free sets with largest line count m has
a member that contains A, P0 and (x, y, 1), avoids L0 outside A, and meets
every line in at most m points: `_seeds` lists these seeds, m going up from
2, and each search from one keeps the line cap m (`_Searcher.blocked`).  It
lists only the m that an n-set can have: m <= n - q, and the line-count
identities have a solution with no tangent and x_m >= 1
(`tangency.spectrum_feasible`).  The seeds of each m are built once per
plane (`_line_seeds`).

An existence level has one path, `_exists`.  The frontier is the same DFS cut
at a size below each seed: each node it reaches there (or a tangent-free node
above it) is recorded as a (partial, excluded) job instead of being searched.
The jobs run in order of m, then seed, then DFS, and the first job that finds
a witness settles the level.  They run in this process until the level has
used `POOL_AFTER_S` of CPU time; with more than one worker, the jobs left
after that run in a fork pool, so a small level forks none.  A pool is
stopped without a signal: the level sets a stop event that the jobs read, so
the later jobs return at once, and the pool is closed and joined.  The
frontier does not depend on the worker count and its nodes are counted with
the jobs', so a level has the same witness and node count at every worker
count and wherever it hands its jobs to the pool.

Every search is exact-size: it looks for sets of exactly n points, and an
existence level stops at its first one, which is safe because the sizes below
n are refuted first.  Enumeration (`enumerate_tangent_free`) and the
secant-bound check run the same DFS from the same seeds: every class has a
member through one of them.  Enumeration and classification share one orbit
pass, `pgl_orbits`, which closes each PGL(3,q) class that its input meets by
one generator BFS, `_closure`, on point masks.  Each generator is a mask move
(`PGLGroup.mask_moves`): one table lookup per byte of the mask
(`plane.byte_tables`), so a BFS step costs ceil(n/8) lookups and an int hash,
not a sort and a tuple hash.  A mask is read back as a sorted tuple
(`PGLGroup.points_of`) only where one is returned.  `_line_orbits` runs the
same BFS on masks over the points of L0.
"""

from __future__ import annotations

import os
import signal
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations, groupby
from operator import itemgetter

from .plane import Plane, PointSet, by_bytes, byte_tables, checked_mask, mask_of, plane_for, plane_for_order
from .tangency import is_tangent_free, spectrum_feasible


class CapTooSmall(ValueError):
    pass


class Infeasible(ValueError):
    pass


class TooLarge(ValueError):
    """The input is beyond the size an exhaustive search is run at."""


class GroupTooLarge(ValueError):
    pass


class SearchTimeout(TimeoutError):
    """The deadline passed mid-level; `nodes` are the nodes expanded in that
    level."""

    def __init__(self, nodes: int):
        super().__init__(nodes)
        self.nodes = nodes


def lower_bound(q: int) -> int:
    """Proven floor on the size of a non-empty tangent-free set: q+2 for even
    q (sharp, hyperovals), else the smallest integer m >= q + sqrt(2q)/4 + 2
    (integer-exact comparison, no floating point)."""
    if q % 2 == 0:
        return q + 2
    m = q + 2
    while not 16 * (m - q - 2) ** 2 >= 2 * q:
        m += 1
    return m


# -- repair DFS ------------------------------------------------------------------


class _Searcher:
    """One DFS instance over a fixed plane; reusable across targets.

    The per-node state is a unary count of the members on each line: level k
    of `levels` is the mask of the line indices that meet the partial set in
    at least k points, for k = 0 .. max(cap, 2), so level 0 holds every line
    and the tangent lines are `levels[1] & ~levels[2]`.  With a `cap` m no
    line may hold more than m points of the set: when a line reaches m
    members its points go into `blocked`, which leaves `free`.  `_add`
    pushes the previous levels and `blocked` on an undo stack and `_remove`
    pops them.

    The DFS checks every 4096 nodes whether the `deadline` has passed or the
    `stop` event is set, and raises SearchTimeout if so.

    With a `cut` size set, the DFS records every node of that size, and every
    tangent-free node, as a (partial, excluded) job in `jobs`, uncounted and
    unsearched: this is the frontier of `_frontier_jobs`.
    """

    def __init__(self, plane: Plane, cap: int | None = None):
        self.plane = plane
        # by self-duality the mask of the lines through point p is line_masks[p]
        self.line_masks = plane.line_masks
        self.all_points_mask = (1 << plane.n) - 1
        self.cap = cap
        self.levels = [self.all_points_mask] + [0] * max(cap or 0, 2)
        self.blocked = 0
        self.undo: list[tuple[list[int], int]] = []
        self.partial: list[int] = []
        self.partial_mask = 0
        self.nodes = 0
        self.deadline = None
        self.stop = None
        self.cut: int | None = None
        self.jobs: list[tuple[tuple[int, ...], int]] = []

    def _add(self, p):
        self.partial.append(p)
        self.partial_mask |= 1 << p
        levels = self.levels
        self.undo.append((levels, self.blocked))
        pencil = self.line_masks[p]
        rest = iter(levels)
        below = next(rest)
        self.levels = new = [below]
        for level in rest:
            new.append(level | (below & pencil))
            below = level
        if self.cap:
            full = new[-1] & ~below
            while full:
                low = full & -full
                full ^= low
                self.blocked |= self.line_masks[low.bit_length() - 1]

    def _remove(self):
        p = self.partial.pop()
        self.partial_mask &= ~(1 << p)
        self.levels, self.blocked = self.undo.pop()

    def _branch(self, free, n_target):
        """The repair step: the available points of the tangent line to branch
        over, or 0 when the node is pruned.  Every branch point is excluded
        from the subtrees of the later ones.

        With r = n_target - |P| points still to add, the node is pruned when a
        tangent is dead (no available point) or one of three bounds says r
        points cannot repair every tangent, cheapest per node first:

        1. The pencil: a new point repairs at most one tangent through a given
           member, so no member may lie on more than r tangents.
        2. The cover: a free point x repairs c(x) tangents, those through it,
           so r points repair at most the sum of the r largest c(x), and the
           node is pruned when that sum is less than the number of tangents.
           Every tangent holds exactly one member, and two lines through a
           member p meet only in p, so with A_p the points on the tangents
           through p, c(x) = #{p : x in A_p}.  The |P| masks A_p & free are
           counted into levels, level v holding the points with c(x) > v, and
           the sum of the r largest c(x) is the sum of min(r, |level|).
        3. At the nodes the first two keep, one pass over the tangents, lowest
           index first, finds a dead tangent or a greedy matching of
           avail-disjoint tangents that needs more than r points, and picks
           the branch line: the fewest available points, ties to the smallest
           index.
        """
        line_masks = self.line_masks
        tangents = self.levels[1] & ~self.levels[2]
        r = n_target - len(self.partial)
        pencils = []
        for p in self.partial:
            through = tangents & line_masks[p]
            if through:
                if through.bit_count() > r:
                    return 0
                pencils.append(through)
        levels: list[int] = []
        for through in pencils:
            reach = 0
            while through:
                low = through & -through
                through ^= low
                reach |= line_masks[low.bit_length() - 1]
            reach &= free
            for i, level in enumerate(levels):
                levels[i] = level | reach
                reach &= level
                if not reach:
                    break
            else:
                levels.append(reach)
        cover = 0
        for level in levels:
            size = level.bit_count()
            cover += size if size < r else r
        if cover < tangents.bit_count():
            return 0
        rest = tangents
        used = 0
        k = 0
        best_avail = 0
        best_cnt = self.plane.n + 1
        while rest:
            low = rest & -rest
            rest ^= low
            avail = line_masks[low.bit_length() - 1] & free
            if not avail:
                return 0
            if not avail & used:
                k += 1
                if k > r:
                    return 0
                used |= avail
            cnt = avail.bit_count()
            if cnt < best_cnt:
                best_cnt = cnt
                best_avail = avail
        return best_avail

    def run(self, n_target: int, excluded_mask: int, collect, seed=()):
        """DFS the tangent-free supersets of the seed of size exactly n_target
        that avoid the excluded points, passing each to `collect`; a truthy
        return from `collect` stops the search, and `run` then returns True.
        """
        for p in seed:
            self._add(p)
        try:
            return self._dfs(n_target, excluded_mask, collect)
        finally:
            for _ in seed:
                self._remove()

    def _dfs(self, n_target, excluded_mask, collect):
        size = len(self.partial)
        tangent_free = self.levels[1] == self.levels[2]
        if self.cut is not None and (size == self.cut or tangent_free):
            self.jobs.append((tuple(self.partial), excluded_mask))
            return False
        self.nodes += 1
        if self.nodes % 4096 == 0 and (
                (self.deadline is not None and time.monotonic() > self.deadline)
                or (self.stop is not None and self.stop.is_set())):
            raise SearchTimeout(self.nodes)
        free = self.all_points_mask & ~self.partial_mask & ~excluded_mask & ~self.blocked
        if size + free.bit_count() < n_target:
            return False
        if tangent_free:
            if size == n_target:
                return bool(collect(tuple(self.partial)))
            branch = free  # grow: branch over every remaining point
        else:
            branch = self._branch(free, n_target)
        rest = branch
        while rest:
            bit = rest & -rest
            rest ^= bit
            self._add(bit.bit_length() - 1)
            stop = self._dfs(n_target, excluded_mask | (branch & (bit - 1)), collect)
            self._remove()
            if stop:
                return True
        return False


# -- heaviest-line seeds ---------------------------------------------------------


def _line_orbits(plane, m: int):
    """The orbits of PGL(2,q) on the m-subsets of L0, lazily, each a list of
    sorted index tuples headed by its least member; `_line_seeds` keeps one
    seed per orbit.

    PGL(2,q) acts through I + E01, the swap of x and y and diag(g,1,1), which
    fix L0 and P0 and act on L0 as the 2x2 matrices [[1,1],[0,1]], [[0,1],
    [1,0]] and diag(g,1); by the argument of `PGLGroup.generators` these
    generate GL(2,q), which acts on L0 as PGL(2,q).  A subset is a mask over
    the q + 1 points of L0, bit i for its i-th point, and each matrix a mask
    move built as in `PGLGroup.mask_moves`.  The m-subsets are taken in `combinations`
    order, and each one not yet reached starts one generator BFS
    (`_closure`), run only when the orbits before it are used.
    """
    l0 = plane.points_on_line[plane.index_of((0, 0, 1))]
    where = {p: i for i, p in enumerate(l0)}
    g = plane.gf.generator
    moves = [partial(by_bytes, byte_tables([1 << where[plane.apply_matrix(mat, p)] for p in l0]))
             for mat in ((1, 1, 0, 0, 1, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0, 0, 0, 1), (g, 0, 0, 0, 1, 0, 0, 0, 1))]
    points = byte_tables([(p,) for p in l0], ())
    seen: set[int] = set()
    for start in map(sum, combinations([1 << i for i in range(len(l0))], m)):
        if start not in seen:
            yield [by_bytes(points, a, ()) for a in _closure(start, moves, seen)]


@lru_cache(maxsize=None)
def _line_seeds(plane, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(seed, excluded) for one m-subset A of L0 per `_line_orbits` orbit,
    built once per plane and m: the seed is A, P0 and, when A is not all of
    L0, the point (x, y, 1) for the first point b = (x, y, 0) of L0 outside
    A; `excluded` is the mask of L0 outside A."""
    # the line z = 0 and the point (0,0,1) share a triple, so one index
    p0 = plane.index_of((0, 0, 1))
    line = plane.points_on_line[p0]
    out = []
    for orbit in _line_orbits(plane, m):
        a = orbit[0]
        outside = [p for p in line if p not in a]
        seed = a + (p0,)
        if outside:
            x, y, _ = plane.coords[outside[0]]
            seed += (plane.index_of((x, y, 1)),)
        out.append((seed, mask_of(outside)))
    return tuple(out)


def _seeds(plane, n, least=2):
    """(m, seed, excluded) for each m from `least` up that a tangent-free
    n-set can have as its largest line count, and each seed of `_line_seeds`
    for that m.  A search from a seed keeps every line to at most m points
    (module docstring).

    Such an m is at most q + 1 and at most n - q, since the q further lines
    through a point of the m-secant each hold another point of the set; and
    `spectrum_feasible(n, q, m)` holds: some spectrum with no tangent and
    largest line count m meets the line-count identities."""
    q = plane.q
    for m in range(least, min(n - q, q + 1) + 1):
        if spectrum_feasible(n, q, m):
            for seed, excluded in _line_seeds(plane, m):
                yield m, seed, excluded


def _seeded_sets(plane: Plane, n: int, least: int = 2):
    """Tangent-free n-sets, at least one per PGL(3,q) class with largest line
    count at least `least`: the DFS from every seed of `_seeds`, under its
    line cap.  Returns (sets, nodes), the sets as sorted tuples in the order
    found.

    Raises Infeasible unless 1 <= n <= the number of points.  A set of 1 to
    3 points has a tangent, so those sizes give no seeds, sets or nodes.
    """
    if n < 1:
        raise Infeasible("need n >= 1")
    if n > plane.n:
        raise Infeasible(f"n={n} exceeds the number of points")
    out: list[tuple[int, ...]] = []
    nodes = 0
    for m, seed, excluded in _seeds(plane, n, least):
        s = _Searcher(plane, m)
        s.run(n, excluded, lambda t: out.append(tuple(sorted(t))), seed=seed)
        nodes += s.nodes
    return out, nodes


def enumerate_tangent_free(q: int, n: int) -> list[tuple[int, ...]]:
    """Complete duplicate-free list of tangent-free n-sets in PG(2,q), as
    sorted tuples in ascending order: the PGL(3,q) orbits of the sets
    `_seeded_sets` finds, which meet every class."""
    sets = _seeded_sets(plane_for_order(q), n)[0]
    points_of = pgl_group(q).points_of
    return sorted(points_of(x) for orbit in pgl_orbits(q, map(mask_of, sets)) for x in orbit)


# -- existence levels ------------------------------------------------------------


# the frontier cuts each seed's subtree into at least this many jobs where
# its depth allows, whatever the worker count, so that a level's node count
# does not depend on it: 3 per worker on 2 CPUs
JOBS_PER_SEED = 6

# a level runs its jobs in this process until it has used this many CPU
# seconds (of this thread, `time.thread_time`), and only then forks a pool for
# the jobs left, so that a level too small to pay for the fork runs without one
POOL_AFTER_S = 0.5


def _frontier_jobs(plane, n, m, seed, ex_mask, min_jobs):
    """Split one seed's subtree into independent (partial, excluded) jobs: the
    DFS under line cap m cut at 1..6 points past the seed, at the first depth
    that gives min_jobs of them, so the frontier branches and prunes by the
    DFS's own repair step.  Returns the jobs, in DFS order, and the nodes
    expanded above them."""
    for depth in range(1, 7):
        st = _Searcher(plane, m)
        st.cut = len(seed) + depth
        st.run(n, ex_mask, None, seed=seed)
        if len(st.jobs) >= min_jobs:
            break
    return st.jobs, st.nodes


_stop = None  # a pool worker's stop event, set by `_start_worker`


def _start_worker(stop):
    """Pool initializer.  A worker ignores SIGINT, so an interrupt reaches only
    the level, which then stops its jobs through `stop`; a worker killed
    mid-job would leave its result missing and the pool's join waiting."""
    global _stop
    _stop = stop
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_job(args):
    """One frontier subtree: (witness or None, nodes, unfinished).  A job
    returns unfinished when the deadline passes or, in a pool worker, once
    the level has set the stop event."""
    spec, n, m, members, ex_mask, deadline = args
    if (deadline is not None and time.monotonic() > deadline) or (_stop is not None and _stop.is_set()):
        return None, 0, True
    # a forked worker inherits the parent's plane cache
    s = _Searcher(plane_for(spec.p, spec.h, spec.modulus), m)
    s.deadline = deadline
    s.stop = _stop
    box = []
    try:
        s.run(n, ex_mask, lambda t: box.append(tuple(sorted(t))) or True, seed=members)
    except SearchTimeout as e:
        return None, e.nodes, True
    return (box[0] if box else None), s.nodes, False


def _exists(plane, n, workers=1, deadline=None):
    """Tangent-free set of size n, or None, and the node count; raises
    SearchTimeout on the deadline.

    The seeds are taken one m at a time, in `_seeds` order, and the frontier
    splits each seed's subtree into jobs.  The jobs run in order, in this
    process until the level has used `POOL_AFTER_S` of CPU time and, with
    more than one worker, in a fork pool for the jobs left after that (and
    for every later m); the first job that finds a witness or runs out of
    time settles the level, as in the serial DFS, and the later jobs stay
    uncounted.  So a level settled under `POOL_AFTER_S` forks no pool, and a
    level has the same witness and node count at every handover point.  The
    pool is never terminated, since a worker signalled while it sends a
    result can leave the result queue locked: the level sets the stop event
    the workers inherit, so every job still queued or running returns within
    4096 nodes, and the pool is closed and joined.
    """
    import multiprocessing as mp

    nodes = 0
    pool = stop = None
    start = time.thread_time()

    def results(args):
        # the jobs' results, in job order
        nonlocal pool, stop
        for i, job in enumerate(args):
            if pool is None and (workers == 1 or time.thread_time() - start < POOL_AFTER_S):
                yield _run_job(job)
                continue
            if pool is None:
                ctx = mp.get_context("fork")
                stop = ctx.Event()
                pool = ctx.Pool(workers, initializer=_start_worker, initargs=(stop,))
            yield from pool.imap(_run_job, args[i:])
            return

    try:
        for m, seeds in groupby(_seeds(plane, n), key=itemgetter(0)):
            jobs = []
            for _, seed, ex_mask in seeds:
                cut, cnt = _frontier_jobs(plane, n, m, seed, ex_mask, JOBS_PER_SEED)
                jobs += cut
                nodes += cnt
            args = [(plane.gf.spec, n, m, members, ex_mask, deadline) for members, ex_mask in jobs]
            for witness, cnt, timed_out in results(args):
                nodes += cnt
                if timed_out:
                    raise SearchTimeout(nodes)
                if witness is not None:
                    return witness, nodes
        return None, nodes
    finally:
        if pool is not None:
            stop.set()
            pool.close()
            pool.join()


@dataclass
class SearchResult:
    q: int
    cap: int
    found: bool
    u: int | None
    witness: tuple[int, ...] | None
    nodes: int
    exhausted_below: int  # all sizes < this value are refuted
    wall_time: float
    status: str = "ok"  # ok | not_found | budget_exceeded
    witness_source: str = ""


def known_witnesses(q: int) -> dict[int, tuple[int, ...]]:
    """Verified tangent-free sets by size: the first set of each size in the
    construction list, then a conic plus a no-3-collinear exterior clique."""
    from .constructions import all_certificates

    out: dict[int, tuple[int, ...]] = {}
    for c in all_certificates(q):
        if not (c.actual_size > 0 and c.tangent_free):
            raise AssertionError(f"construction {c.name} at q={q} is not a tangent-free set")
        out.setdefault(len(c.points), c.points.sorted_tuple())
    if q % 4 == 3 and 7 <= q <= 13:
        # conic plus a no-3-collinear exterior clique, when one exists
        from .conic import canonical_conic
        from .exterior import exterior_clique_search

        plane = plane_for_order(q)
        con = canonical_conic(plane)
        for clique in exterior_clique_search(q, no_three_collinear=True):
            union = PointSet(plane, set(con.points) | set(clique.members))
            if is_tangent_free(union):
                out.setdefault(len(union), union.sorted_tuple())
                break
    return out


def min_tangent_free(q: int, size_cap: int | None = None, workers: int | None = None,
                     budget_s: float | None = None) -> SearchResult:
    """Exact minimum size of a non-empty tangent-free set in PG(2,q).

    Iterative deepening from the sqrt lower bound: each size is exhausted by
    the repair DFS before moving up, so on success every smaller size carries
    a computational refutation.  Construction witnesses short-circuit the
    final level; they are re-verified before being trusted.
    """
    t0 = time.monotonic()
    if size_cap is None:
        size_cap = 2 * q
    if workers is None:
        workers = os.cpu_count() or 1
    plane = plane_for_order(q)
    bound = lower_bound(q)
    if size_cap < bound:
        raise CapTooSmall(f"cap {size_cap} below the proven lower bound {bound}")
    witnesses = known_witnesses(q)
    nodes = 0
    deadline = None if budget_s is None else t0 + budget_s

    def best_witness():
        best = min((m for m in witnesses if m <= size_cap), default=None)
        return witnesses[best] if best is not None else None

    def checked(w, n):
        ps = PointSet(plane, w)
        if not (len(ps) == n and is_tangent_free(ps)):
            raise AssertionError(f"the witness of size {n} at q={q} is not a tangent-free {n}-set")
        return w

    for n in range(bound, size_cap + 1):
        if n in witnesses:
            return SearchResult(q, size_cap, True, n, checked(witnesses[n], n), nodes, n,
                                time.monotonic() - t0, "ok", "construction")
        try:
            wit, cnt = _exists(plane, n, workers, deadline)
        except SearchTimeout as e:
            return SearchResult(q, size_cap, False, None, best_witness(),
                                nodes + e.nodes, n, time.monotonic() - t0, "budget_exceeded")
        nodes += cnt
        if wit is not None:
            return SearchResult(q, size_cap, True, n, checked(wit, n), nodes, n,
                                time.monotonic() - t0, "ok", "search")
        if deadline is not None and time.monotonic() > deadline:
            return SearchResult(q, size_cap, False, None, best_witness(),
                                nodes, n + 1, time.monotonic() - t0, "budget_exceeded")
    return SearchResult(q, size_cap, False, None, None, nodes, size_cap + 1,
                        time.monotonic() - t0, "not_found")


def u_extended(q: int, budget_s: float = 3600.0, workers: int | None = None) -> SearchResult:
    """Long-running exact u_q for q in {9, 11}; reports the verified bound and
    the best witness found if the time budget runs out."""
    if q not in (9, 11):
        raise ValueError("extended search is intended for q in {9, 11}")
    return min_tangent_free(q, size_cap=2 * q, workers=workers, budget_s=budget_s)


def brute_force_min(q: int) -> int:
    """Independent oracle: direct subset enumeration, feasible only for q=3."""
    if q != 3:
        raise TooLarge("brute force enumeration is only run for q=3")
    plane = plane_for_order(q)
    for n in range(1, plane.n + 1):
        for comb in combinations(range(plane.n), n):
            if is_tangent_free(PointSet(plane, comb)):
                return n
    raise AssertionError("unreachable")


# -- PGL(3,q) --------------------------------------------------------------------


class PGLGroup:
    """The projective linear group acting as permutations of point indices."""

    def __init__(self, plane: Plane):
        self.plane = plane
        q = plane.q
        self.q = q
        self.order = q**3 * (q**3 - 1) * (q**2 - 1)
        self._elements = None

    def generators(self) -> list[tuple[int, ...]]:
        """Four point permutations that generate PGL(3,q) at every q: the
        transvections I + E01 and I + E10, the 3-cycle of the coordinates and
        D = diag(g,1,1), g the field's primitive element.

        D^k (I + E01) D^-k = I + g^k E01, and a product of such matrices adds
        their off-diagonal entries.  The powers of g span GF(q) over GF(p),
        since g lies in no proper subfield, so these products give I + a E01
        for every a; likewise I + a E10 from the powers g^-k.  Conjugating by
        the 3-cycle moves the entry to every other off-diagonal place, so
        every elementary transvection is reached, and these generate
        SL(3,q).  det D = g generates GF(q)*, so with D the group is
        GL(3,q), which acts on the points as PGL(3,q).  `elements` checks the
        order for q <= 5; `enumerate_tangent_free` relies on it at every q.
        """
        g = self.plane.gf.generator
        mats = [
            (1, 1, 0, 0, 1, 0, 0, 0, 1),
            (1, 0, 0, 1, 1, 0, 0, 0, 1),
            (0, 0, 1, 1, 0, 0, 0, 1, 0),
            (g, 0, 0, 0, 1, 0, 0, 0, 1),
        ]
        perms = []
        for m in mats:
            perms.append(tuple(self.plane.apply_matrix(m, p) for p in range(self.plane.n)))
        return perms

    def elements(self) -> memoryview:
        """Every group element as a point permutation, one row per element of
        a 2-D int32 memoryview (row g lists g(0), ..., g(n-1)), rows ascending.

        The rows are the closure of `generators()` acting on the identity, so
        reaching the group order checks the argument of `generators` for
        q <= 5.  The table holds order x n entries (372000 x 31 at q = 5), so
        it is built only for q <= 5.
        """
        if self.q > 5:
            raise GroupTooLarge(f"full enumeration not supported for q={self.q}")
        if self._elements is None:
            # itemgetter(*g) sends a permutation t to t o g
            perms = _closure(tuple(range(self.plane.n)), [itemgetter(*g) for g in self.generators()], set())
            if len(perms) != self.order:
                raise AssertionError(f"generator closure has {len(perms)} != {self.order} elements")
            n = self.plane.n
            perms.sort()
            table = array("i", [0]) * (len(perms) * n)  # preallocated: no copy as it grows
            for i, row in enumerate(perms):
                table[i * n:(i + 1) * n] = array("i", row)
            self._elements = memoryview(table).cast("B").cast("i", (len(perms), n))
        return self._elements

    @cached_property
    def mask_moves(self) -> list[partial]:
        """One move per generator, sending a point mask to the mask of its
        image: one `byte_tables` lookup per byte of the mask."""
        return [partial(by_bytes, byte_tables([1 << p for p in g])) for g in self.generators()]

    @cached_property
    def points_of(self) -> partial:
        """Sends a point mask to its points as a sorted index tuple."""
        return partial(by_bytes, byte_tables([(p,) for p in range(self.plane.n)], ()), empty=())

    def orbit(self, members) -> list[tuple[int, ...]]:
        """PGL orbit of a point set (a repeated point counts once), as sorted
        index tuples in ascending order: the closure of its mask under
        `mask_moves`, the moves of `generators()`, which generate PGL(3,q) at
        every q.  IndexError for a point outside [0, n)."""
        return sorted(map(self.points_of, _closure(checked_mask(members, self.plane.n), self.mask_moves, set())))


def _closure(start, moves, seen: set) -> list:
    """Everything reached from `start` by repeated moves, breadth first, in
    the order reached; each is added to `seen`, which holds none of them yet.
    The orbit algorithm, on point masks and on permutation tuples."""
    seen.add(start)
    reached = [start]
    for t in reached:  # the list grows behind the loop: a BFS queue
        for move in moves:
            img = move(t)
            if img not in seen:
                seen.add(img)
                reached.append(img)
    return reached


@lru_cache(maxsize=None)
def pgl_group(q: int) -> PGLGroup:
    """PGL(3,q) on the default PG(2,q), one per order."""
    return PGLGroup(plane_for_order(q))


def pgl_orbits(q: int, masks) -> list[list[int]]:
    """The PGL(3,q) orbits that the point masks `masks` meet, one generator
    BFS each, in the order of their first member in `masks`."""
    moves = pgl_group(q).mask_moves
    seen: set[int] = set()
    return [_closure(x, moves, seen) for x in masks if x not in seen]


@dataclass(frozen=True)
class OrbitRep:
    canonical: tuple[int, ...]
    class_size: int
    stabilizer_order: int
    member_count: int  # how many of the classified input sets fall here


def classify_up_to_pgl(q: int, sets) -> list[OrbitRep]:
    """Partition the given point-index sets into PGL(3,q) orbits, in
    ascending order of their least member; a set given twice counts twice,
    and a point repeated within a set counts once.  IndexError for a point
    outside [0, n).

    PGL(3,q) is transitive on points, so the least member of a non-empty
    orbit contains point 0, and only those members are read as tuples."""
    group = pgl_group(q)
    counts = Counter(checked_mask(s, group.plane.n) for s in sets)
    reps = []
    for orbit in pgl_orbits(q, counts):
        if group.order % len(orbit):
            raise AssertionError("orbit size does not divide the group order")
        least = min((group.points_of(x) for x in orbit if x & 1), default=())
        reps.append(OrbitRep(least, len(orbit), group.order // len(orbit), sum(map(counts.__getitem__, orbit))))
    return sorted(reps, key=lambda r: r.canonical)


def classify_tangent_free(q: int, n: int) -> list[OrbitRep]:
    """The PGL(3,q) classes of the tangent-free n-sets of PG(2,q), classified
    from the `_seeded_sets` sets alone: they meet every class, and the orbit
    pass closes each class it meets, so each class has its full size."""
    return classify_up_to_pgl(q, _seeded_sets(plane_for_order(q), n)[0])
