"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured numbers.  Criterion 2's long budgets are opt-in via
PG2Q_LONG=1; without it the same criterion runs with smaller budgets, and a
run they cut must report the verified lower bound and best witness.
"""

import os
import random
import time

from pg2q.conic import canonical_conic
from pg2q.constructions import all_certificates, interior_points, trivial
from pg2q.plane import PointSet, plane_for_order
from pg2q.search import (
    brute_force_min,
    classify_up_to_pgl,
    enumerate_tangent_free,
    lower_bound,
    min_tangent_free,
    pgl_group,
    u_extended,
)
from pg2q.tangency import is_tangent_free, spectrum, spectrum_solutions

LONG = os.environ.get("PG2Q_LONG") == "1"


def _report(k, detail):
    print(f"\nCRITERION {k}: PASS ({detail})")


def test_criterion_1_small_u_values():
    t0 = time.monotonic()
    r3 = min_tangent_free(3, 8)
    t3 = time.monotonic() - t0
    assert r3.found and r3.u == 6
    assert t3 < 1.0

    t0 = time.monotonic()
    r5 = min_tangent_free(5, 12)
    t5 = time.monotonic() - t0
    assert r5.found and r5.u == 10
    assert t5 < 10.0

    t0 = time.monotonic()
    r7 = min_tangent_free(7, 14)
    t7 = time.monotonic() - t0
    assert r7.found and r7.u == 12
    assert t7 < 30 * 60
    for r, q in ((r3, 3), (r5, 5), (r7, 7)):
        assert is_tangent_free(PointSet(plane_for_order(q), r.witness))
    _report(1, f"u_3=6 in {t3:.2f}s, u_5=10 in {t5:.2f}s, u_7=12 in {t7:.2f}s")


def test_criterion_2_long_mode_u_values():
    budget_9 = 3600.0 if LONG else 600.0
    budget_11 = 4 * 3600.0 if LONG else 240.0
    r9 = u_extended(9, budget_s=budget_9, workers=2)
    if r9.status == "budget_exceeded":
        assert r9.exhausted_below >= 13
        assert r9.witness is not None and is_tangent_free(PointSet(plane_for_order(9), r9.witness))
        d9 = f"u_9 >= {r9.exhausted_below} (budget), witness {len(r9.witness)}"
    else:
        assert r9.u == 15
        d9 = f"u_9 = 15 ({r9.nodes} nodes)"

    r11 = u_extended(11, budget_s=budget_11, workers=2)
    if r11.status == "budget_exceeded":
        assert r11.exhausted_below >= 16
        assert r11.witness is not None
        ps = PointSet(plane_for_order(11), r11.witness)
        assert is_tangent_free(ps) and len(ps) == 18
        d11 = f"u_11 >= {r11.exhausted_below} (budget), witness {len(r11.witness)}"
    else:
        assert r11.u == 18
        d11 = f"u_11 = 18 ({r11.nodes} nodes)"
    _report(2, f"{d9}; {d11}" + ("" if LONG else " [small budget; PG2Q_LONG=1 for the full run]"))


def test_criterion_3_pg25_classification():
    t0 = time.monotonic()
    sets = enumerate_tangent_free(5, 10)
    reps = classify_up_to_pgl(5, sets)
    dt = time.monotonic() - t0
    assert dt < 15 * 60
    assert pgl_group(5).order == 372000
    assert len(reps) == 2
    by_size = {r.class_size: r for r in reps}
    assert set(by_size) == {465, 3100}
    pl = plane_for_order(5)
    g = pgl_group(5)
    triv_orbit = set(g.orbit(trivial(5).sorted_tuple()))
    intr_orbit = set(g.orbit(interior_points(canonical_conic(pl)).sorted_tuple()))
    assert by_size[465].canonical in triv_orbit
    assert by_size[3100].canonical in intr_orbit
    sp_t = spectrum(PointSet(pl, by_size[465].canonical))
    sp_i = spectrum(PointSet(pl, by_size[3100].canonical))
    assert sp_t[5] == 2  # the x_5-bearing class
    assert (sp_i[0], sp_i[2], sp_i[3], sp_i[4]) == (6, 15, 10, 0)
    _report(3, f"{len(sets)} ten-sets, 2 classes (465 trivial / 3100 interior) in {dt:.1f}s")


def test_criterion_4_extension_dichotomy():
    from pg2q.exterior import check_extension_dichotomy

    times = {}
    for q in [5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]:
        t0 = time.monotonic()
        rep = check_extension_dichotomy(q)
        times[q] = time.monotonic() - t0
        assert rep.ok, f"dichotomy fails at q={q}"
        assert rep.off_line_count == (1 if q % 4 == 1 else 0)
        assert rep.predicted_point_hit
        assert times[q] < 5.0, f"q={q} took {times[q]:.1f}s"
    worst = max(times.values())
    _report(4, f"q=5..29, off-line extender <(1,0,-a)> exactly when q=1 mod 4; worst {worst:.2f}s")


def test_criterion_5_construction_certificates():
    flagged = 0
    checked = 0
    for q in [5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31]:
        for cert in all_certificates(q):
            checked += 1
            assert cert.tangent_free, f"{cert.name} at q={q} has a tangent"
            if cert.name == "frobenius_graph":
                assert cert.status == "FLAGGED", "size discrepancy must be flagged"
                flagged += 1
            else:
                assert cert.status == "VALID", f"{cert.name} q={q}: {cert.to_json()}"
    # the flagged family appears exactly at the extension fields
    assert flagged == 3  # q in {9, 25, 27}
    _report(5, f"{checked} certificates VALID (frobenius_graph FLAGGED at q=9,25,27 as required)")


def test_criterion_6_exterior_constructions():
    from pg2q.exterior import conic_union_check, exterior_clique_search

    details = []
    for q in (7, 11):
        wits = exterior_clique_search(q, no_three_collinear=True)
        assert wits, f"no no-3-collinear exterior set at q={q}"
        pl = plane_for_order(q)
        con = canonical_conic(pl)
        unions = [
            PointSet(pl, set(con.points) | set(w.members))
            for w in wits
            if conic_union_check(con, w.members)
        ]
        assert unions
        want = q + 1 + (q + 1) // 2
        assert all(len(u) == want and is_tangent_free(u) for u in unions)
        details.append(f"q={q}: {len(unions)} tangent-free {want}-sets")
    for q in (5, 9, 13):
        exterior_clique_search(q)  # raises if any half-line set is non-collinear
        details.append(f"q={q} all collinear")
    _report(6, "; ".join(details))


def test_criterion_7_spectrum_system():
    sols = spectrum_solutions(10, 5, 4)
    assert sols == [(5, 21, 2, 3), (6, 15, 10, 0)]
    _report(7, "solutions exactly {(5,21,2,3), (6,15,10,0)}")


def test_criterion_8_codes():
    from pg2q.codes import (
        batch_peel_fixpoint,
        hyperoval,
        incidence_code,
        peel_decode,
        trivial_signing,
    )

    code5 = incidence_code(5)
    v = trivial_signing(5)
    assert code5.is_dual_codeword(v) and len(code5.support(v)) == 10

    h = hyperoval(4)
    vh = [1 if p in h.members else 0 for p in range(21)]
    assert incidence_code(4).is_dual_codeword(vh) and len(h) == 6

    sampled = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        code = incidence_code(q)
        rng = random.Random(1000 + q)
        for w in code.random_dual_codewords(100, rng):
            if any(w):
                assert code.support_tangency(w)
                sampled += 1

    rng = random.Random(8)
    patterns = 0
    for q in (3, 4, 5):
        pl = plane_for_order(q)
        for i in range(1000):
            erased = rng.sample(range(pl.n), rng.randrange(1, pl.n))
            residual = peel_decode(q, erased)
            assert residual == batch_peel_fixpoint(q, erased)
            if residual:
                assert is_tangent_free(PointSet(pl, residual))
            if i % 100 == 0:
                for _ in range(50):
                    assert peel_decode(q, erased, rng=random.Random(rng.random())) == residual
            patterns += 1
    _report(8, f"signings + hyperoval ok; {sampled} sampled codewords tangent-free; {patterns} erasure patterns, residual = maximal stopping subset, confluent")


def test_criterion_9_property_suites():
    # field axioms exhaustive to q = 81 and plane axioms to q = 11 run in
    # test_gfq / test_plane; here the census sweep, the sqrt bound and the
    # oracle equivalence are pinned.
    for q in [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31]:
        c = canonical_conic(plane_for_order(q))
        want = (q + 1, q * (q + 1) // 2, q * (q - 1) // 2)
        assert c.line_census() == want and c.point_census() == want
    for q in (3, 5, 7):
        res = min_tangent_free(q, 2 * q)
        assert res.u >= lower_bound(q)
    assert min_tangent_free(3, 8).u == brute_force_min(3) == 6
    _report(9, "censuses odd q<=31; sqrt bound respected; search = brute force at q=3")


def test_long_secant_bound_p7():
    from pg2q.tangency import secant_bound_check

    rep = secant_bound_check(7)
    assert rep.all_heavy_trivial
    print(f"\nLONG: secant bound p=7, {rep.heavy_sets_found} heavy sets all trivial")
