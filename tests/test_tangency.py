import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg2q.conic import canonical_conic
from pg2q.constructions import interior_points, trivial
from pg2q.plane import PointSet, mask_bits, plane_for_order
from pg2q.tangency import (
    PointsOnInfinity,
    SizeMismatch,
    TooManyDirections,
    WrongSize,
    determined_directions,
    is_tangent_free,
    is_trivial_set,
    one_mod_p_check,
    redei_completion,
    redei_converse_check,
    secant_bound_check,
    spectrum,
    spectrum_feasible,
    spectrum_solutions,
)


def test_spectrum_trivial_q5():
    sp = spectrum(trivial(5))
    assert sp[0] == 4 and sp[2] == 25 and sp[5] == 2 and sp[1] == sp[3] == sp[4] == 0
    assert sp.check_identities()
    assert str(sp) == "0:4 2:25 5:2"


def test_spectrum_interior_q5():
    sp = spectrum(interior_points(canonical_conic(plane_for_order(5))))
    assert (sp[0], sp[2], sp[3], sp[4]) == (6, 15, 10, 0)


def test_spectrum_empty():
    pl = plane_for_order(5)
    sp = spectrum(PointSet(pl))
    assert sp[0] == 31 and sp.check_identities()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_spectrum_identities_random(data):
    q = data.draw(st.sampled_from([3, 5, 7]))
    pl = plane_for_order(q)
    members = data.draw(st.sets(st.integers(0, pl.n - 1), max_size=pl.n))
    sp = spectrum(PointSet(pl, members))
    assert sp.check_identities()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tangent_free_iff_no_unit_line(data):
    q = data.draw(st.sampled_from([3, 5]))
    pl = plane_for_order(q)
    members = data.draw(st.sets(st.integers(0, pl.n - 1), max_size=12))
    ps = PointSet(pl, members)
    # independent scan over the raw incidence lists
    scan = all(
        sum(1 for p in mask_bits(pl.line_masks[l]) if p in members) != 1 for l in range(pl.n)
    )
    assert is_tangent_free(ps) == scan == (spectrum(ps)[1] == 0)


def test_tangent_free_examples():
    assert is_tangent_free(trivial(5))
    assert is_tangent_free(trivial(9))
    pl = plane_for_order(5)
    assert not is_tangent_free(PointSet(pl, [3]))
    assert is_tangent_free(interior_points(canonical_conic(pl)))


def test_spectrum_solutions_paper_instance():
    assert spectrum_solutions(10, 5, 4) == [(5, 21, 2, 3), (6, 15, 10, 0)]


def test_spectrum_solutions_small():
    sols = spectrum_solutions(6, 3, 3)
    sp = spectrum(trivial(3))
    assert (sp[0], sp[2], sp[3]) in sols
    assert sols == [(2, 9, 2)]


def test_spectrum_solutions_hyperoval():
    q = 4
    sols = spectrum_solutions(q + 2, q, 2)
    assert sols == [(q * q + q + 1 - (q + 2) * (q + 1) // 2, (q + 2) * (q + 1) // 2)]


def _reference_spectra(n, q, max_i):
    """The line-count identities solved by a sweep of x_max_i, ..., x_4, each
    over every value the sums left allow, with x_3 and x_2 eliminated: the
    solutions (x_0, x_2, ..., x_max_i) with x_1 = 0, in ascending order."""
    n_lines, s1, s2 = q * q + q + 1, n * (q + 1), n * (n - 1)
    if max_i < 2:
        return [(n_lines,)] if n == 0 else []
    out = []

    def sweep(i, tail, t1, t2):
        if i == 3:
            x3, r3 = divmod((s2 - t2) - (s1 - t1), 3)
            x2, r2 = divmod(s1 - t1 - 3 * x3, 2)
            x0 = n_lines - x2 - x3 - sum(tail)
            if min(x0, x2, x3) >= 0 and not r3 and not r2 and (max_i > 2 or x3 == 0):
                out.append(((x0, x2, x3) + tail)[:max_i])
            return
        for x in range(min((s1 - t1) // i, (s2 - t2) // (i * (i - 1))) + 1):
            sweep(i - 1, (x,) + tail, t1 + i * x, t2 + i * (i - 1) * x)

    sweep(max(max_i, 3), (), 0, 0)
    return sorted(out)


def test_spectra_match_full_sweep():
    """The pruned solver and the feasibility test, which stops at its first
    spectrum, agree with the full sweep at every q <= 9, n <= 2q and m, and
    over every n at q <= 3, where the lines meeting the set can number all
    the lines of the plane."""
    cases = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(2 * q + 1)]
    cases += [(q, n) for q in (2, 3) for n in range(2 * q + 1, q * q + q + 2)]
    for q, n in cases:
        for m in range(q + 2):
            want = _reference_spectra(n, q, m)
            assert spectrum_solutions(n, q, m) == want, (q, n, m)
            assert spectrum_feasible(n, q, m) == (m >= 2 and any(s[-1] for s in want)), (q, n, m)
    assert not spectrum_feasible(17, 11, 3)  # 3 x_3 = 68


def test_spectrum_feasible_stops_at_first_spectrum():
    """spectrum_solutions(32, 16, 17) lists 116,460 spectra (7.6 s by the
    full sweep, about 0.4 s pruned); the feasibility test at the same input
    stops at its first."""
    t0 = time.perf_counter()
    assert spectrum_feasible(32, 16, 17)
    assert time.perf_counter() - t0 < 0.05


def slope_directions(affine: PointSet, linf: int) -> frozenset[int]:
    """Reference: directions as joins of affine pairs met with the line."""
    plane = affine.plane
    pts = sorted(affine.members)
    return frozenset(plane.meet(plane.meet(a, b), linf) for i, a in enumerate(pts) for b in pts[i + 1 :])


def test_determined_directions_frobenius_graph():
    q = 9
    pl = plane_for_order(q)
    gf = pl.gf
    linf = pl.index_of((1, 0, 0))  # the line x = 0
    affine = PointSet(pl, (pl.index_of((1, x, gf.frobenius(x))) for x in range(q)))
    ds = determined_directions(affine, linf)
    assert len(ds.determined) == (q - 1) // (gf.p - 1) == 4
    # oracle: full pair enumeration
    assert slope_directions(affine, linf) == ds.determined


def test_determined_directions_edge_cases():
    pl = plane_for_order(5)
    linf = pl.index_of((0, 0, 1))  # z = 0
    two = PointSet(pl, [pl.index_of((1, 0, 1)), pl.index_of((1, 1, 1))])
    ds = determined_directions(two, linf)
    assert len(ds.determined) == 1
    # every direction determined by the full affine plane
    full = PointSet(pl, [p for p in range(pl.n) if not pl.incident(p, linf)])
    ds_full = determined_directions(full, linf)
    assert len(ds_full.determined) == 6
    with pytest.raises(PointsOnInfinity):
        determined_directions(PointSet(pl, [pl.index_of((0, 1, 0))]), linf)


def test_slope_formula_cross_check_z0():
    """Against the quotient formula when the infinite line is z = 0."""
    q = 5
    pl = plane_for_order(q)
    gf = pl.gf
    linf = pl.index_of((0, 0, 1))
    rng = random.Random(7)
    for _ in range(20):
        pts = rng.sample([(x, y) for x in range(q) for y in range(q)], q)
        affine = PointSet(pl, (pl.index_of((x, y, 1)) for x, y in pts))
        ds = determined_directions(affine, linf)
        slopes = set()
        for i, (xi, yi) in enumerate(pts):
            for xj, yj in pts[i + 1 :]:
                if xi == xj:
                    slopes.add(pl.index_of((0, 1, 0)))
                else:
                    d = gf.div(gf.sub(yi, yj), gf.sub(xi, xj))
                    slopes.add(pl.index_of((1, d, 0)))
        assert slopes == set(ds.determined)


def test_redei_completion_trace():
    q = 9
    pl = plane_for_order(q)
    gf = pl.gf
    linf = pl.index_of((1, 0, 0))
    affine = PointSet(pl, (pl.index_of((1, x, gf.trace(x))) for x in range(q)))
    done = redei_completion(affine, linf)
    assert len(done) == 2 * q - q // gf.p == 15
    assert is_tangent_free(done)


def test_redei_completion_rejects_parabola():
    q = 5
    pl = plane_for_order(q)
    gf = pl.gf
    linf = pl.index_of((1, 0, 0))
    affine = PointSet(pl, (pl.index_of((1, x, gf.mul(x, x))) for x in range(q)))
    with pytest.raises(TooManyDirections):
        redei_completion(affine, linf)


def test_redei_completion_wrong_size():
    pl = plane_for_order(5)
    linf = pl.index_of((1, 0, 0))
    with pytest.raises(WrongSize):
        redei_completion(PointSet(pl, [pl.index_of((1, 1, 1))]), linf)


@pytest.mark.parametrize("q", [9, 25, 27])
def test_redei_forward_random(q):
    """Random affine q-sets with few directions complete tangent-freely."""
    pl = plane_for_order(q)
    linf = pl.index_of((1, 0, 0))
    affine_pool = [p for p in range(pl.n) if not pl.incident(p, linf)]
    rng = random.Random(q)
    for _ in range(200):
        a = PointSet(pl, rng.sample(affine_pool, q))
        ds = determined_directions(a, linf)
        if len(ds.determined) < (q + 3) // 2:
            assert is_tangent_free(redei_completion(a, linf))
    # random q-sets rarely qualify; the graph ones always do
    gf = pl.gf
    graph = PointSet(pl, (pl.index_of((1, x, gf.frobenius(x))) for x in range(q)))
    assert is_tangent_free(redei_completion(graph, linf))


def test_redei_converse():
    q = 5
    pl = plane_for_order(q)
    t = trivial(q)
    # the two construction lines are the only q-secants
    heavy = [l for l, c in enumerate(t.per_line) if c == q]
    assert len(heavy) == 2
    assert redei_converse_check(t, heavy[0])
    assert redei_converse_check(t, heavy[1])
    with pytest.raises(SizeMismatch):
        redei_converse_check(t, 2 if 2 not in heavy else 3)


def test_redei_converse_on_graph_completion():
    q = 9
    pl = plane_for_order(q)
    gf = pl.gf
    linf = pl.index_of((1, 0, 0))
    affine = PointSet(pl, (pl.index_of((1, x, gf.frobenius(x))) for x in range(q)))
    done = redei_completion(affine, linf)
    assert redei_converse_check(done, linf)


@pytest.mark.parametrize("q", [9, 27])
def test_one_mod_p(q):
    pl = plane_for_order(q)
    gf = pl.gf
    linf = pl.index_of((1, 0, 0))
    for value in (gf.frobenius, gf.trace):
        affine = PointSet(pl, (pl.index_of((1, x, value(x))) for x in range(q)))
        assert one_mod_p_check(affine, linf)


def test_is_trivial_set():
    assert is_trivial_set(trivial(5))
    assert not is_trivial_set(interior_points(canonical_conic(plane_for_order(5))))


def test_secant_bound_p3():
    rep = secant_bound_check(3)
    assert rep.all_heavy_trivial
    assert rep.heavy_sets_found > 0  # the trivial sets show up


def test_secant_bound_p5():
    rep = secant_bound_check(5)
    assert rep.all_heavy_trivial
    # only size-10 sets exist; the heavy ones are trivial with 5-secants
    assert rep.max_secant_by_size.get(10) == 5


def test_secant_bound_p11():
    rep = secant_bound_check(11)
    assert rep.all_heavy_trivial
    assert rep.max_secant_by_size == {22: 11}
