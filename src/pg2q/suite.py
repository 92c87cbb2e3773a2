"""Composed verification runs at three scales.

quick: seconds (q <= 7) -- censuses, constructions, u_3/u_5, extension
dichotomy for q in {5,7}, spectrum system, codes basics, and three results
of the paper (costs on 2 CPUs, Python 3.11): the converse of the Redei
completion and the 1 mod p property of determined directions for the
Frobenius and trace graphs at q in {9, 25, 27} (0.01 s); the Desargues
configuration of the PG(2,5) interior (0.0002 s); the external-line formula
and the point discriminant behind the q mod 4 dichotomy, exhaustively for
odd q <= 11 (0.08 s).
full: minutes -- adds u_7, the classifications of the tangent-free sets of
PG(2,5) of size 10 and PG(2,7) of size 12, clique searches up to q=11,
dichotomy to q=13, construction certificates to q=31.
long: minutes, mostly u_11 -- u_9, u_11, dichotomy to q=29, clique q=13, the
prime secant-bound searches for p=7 and p=11, the classification for PG(2,9)
at size 15.
"""

from __future__ import annotations

import time
from itertools import product

from . import codes, conic, constructions, exterior, search, tangency
from .gfq import QuadChar
from .plane import PointSet, plane_for_order


def _check_censuses(qs):
    for q in qs:
        c = conic.canonical_conic(plane_for_order(q))
        if c.line_census() != (q + 1, q * (q + 1) // 2, q * (q - 1) // 2):
            return False, f"line census off at q={q}"
        if c.point_census() != (q + 1, q * (q + 1) // 2, q * (q - 1) // 2):
            return False, f"point census off at q={q}"
    return True, f"censuses match closed forms for q in {list(qs)}"


def _check_constructions(qs):
    bad = []
    for q in qs:
        for cert in constructions.all_certificates(q):
            if cert.status == "INVALID":
                bad.append((q, cert.name))
            if cert.status == "FLAGGED" and not cert.name.startswith("frobenius"):
                bad.append((q, cert.name, "unexpected flag"))
    return not bad, f"certificates for q in {list(qs)}" + (f"; failures {bad}" if bad else "")


def _check_u(q, expected):
    res = search.min_tangent_free(q, 2 * q)
    ok = res.found and res.u == expected
    return ok, f"u_{q} = {res.u} (nodes {res.nodes})"


def _check_u_oracle():
    a = search.min_tangent_free(3, 8).u
    b = search.brute_force_min(3)
    return a == b == 6, f"search {a} vs brute force {b}"


def _check_dichotomy(qs):
    for q in qs:
        rep = exterior.check_extension_dichotomy(q)
        if not rep.ok:
            return False, f"dichotomy fails at q={q}"
    return True, f"extension dichotomy holds for q in {list(qs)}"


def _check_spectrum_system():
    sols = tangency.spectrum_solutions(10, 5, 4)
    return sols == [(5, 21, 2, 3), (6, 15, 10, 0)], f"solutions {sols}"


def _check_ten_set():
    ps = exterior.pg25_ten_set()
    return len(ps) == 10, "conic + 3 exterior points + concurrency point"


def _check_redei_directions(qs):
    """The Frobenius and trace graphs completed on the line x = 0: the
    completion's points there are the non-determined directions of the rest
    (the converse of the Redei completion), and the graph with its determined
    directions meets every line in 1 mod p points."""
    bad = []
    for q in qs:
        plane = plane_for_order(q)
        linf = plane.index_of((1, 0, 0))  # the line x = 0 of the graph completions
        for graph in (constructions.frobenius_graph, constructions.trace_graph):
            s = graph(q)
            affine = PointSet.from_mask(plane, s.mask & ~plane.line_masks[linf])
            if not (tangency.redei_converse_check(s, linf) and tangency.one_mod_p_check(affine, linf)):
                bad.append((q, graph.__name__))
    return not bad, f"converse and 1 mod p for the Frobenius and trace graphs, q in {list(qs)}" + (
        f"; failures {bad}" if bad else "")


def _check_pg25_desargues():
    ok = constructions.verify_desargues(constructions.interior_points(conic.canonical_conic(plane_for_order(5))))
    return ok, "the 10 interior points of a conic in PG(2,5) and their 10 3-secants"


def _check_external_line_formula(qs):
    """Exhaustively over the pairs <(1,alpha,lam)>, <(1,xi,a)> of distinct
    points: the join is external to y^2 = xz exactly when the discriminant
    formula is a non-square; and on the external line z = ax the sign of
    xi^2 - a classifies <(1,xi,a)>."""
    for q in qs:
        plane = plane_for_order(q)
        gf = plane.gf
        con, _, ext_a = exterior.canonical_external_line(plane)
        for alpha, lam, xi, a in product(range(q), repeat=4):
            if (alpha, lam) != (xi, a) and (
                con.classify_line(plane.index_of(exterior.join_line_coords(gf, alpha, lam, xi, a)))
                is conic.LineClass.EXTERNAL
            ) != (exterior.external_line_test_formula(gf, alpha, lam, xi, a) is QuadChar.NONSQUARE):
                return False, f"the formula misclassifies the join of <(1,{alpha},{lam})> and <(1,{xi},{a})> at q={q}"
        for xi in range(q):
            if con.classify_point(plane.index_of((1, xi, ext_a))) is not conic.discriminant_point_class(ext_a, xi, gf):
                return False, f"the discriminant misclassifies <(1,{xi},{ext_a})> at q={q}"
    return True, f"external-line formula and point discriminant hold for q in {list(qs)}"


def _check_codes_quick():
    code5 = codes.incidence_code(5)
    v = codes.trivial_signing(5)
    if not (code5.is_dual_codeword(v) and len(code5.support(v)) == 10):
        return False, "trivial signing is not a weight-10 dual codeword"
    h = codes.hyperoval(4)
    vh = [1 if p in h else 0 for p in range(21)]
    if not codes.incidence_code(4).is_dual_codeword(vh):
        return False, "hyperoval is not a dual codeword"
    return True, "trivial signing weight 10; hyperoval weight 6"


def _check_classification(q, n, expected):
    reps = search.classify_tangent_free(q, n)
    got = sorted((r.class_size, r.stabilizer_order) for r in reps)
    total = sum(size for size, _ in got)
    return got == expected, f"({q},{n}): {total} sets in {len(got)} classes (size, |Stab|) {got}"


def _check_cliques(qs):
    msgs = []
    for q in qs:
        if q % 4 == 1:
            exterior.exterior_clique_search(q)  # asserts collinearity internally
            msgs.append(f"q={q} all collinear")
        else:
            wits = exterior.exterior_clique_search(q, no_three_collinear=True)
            con = conic.canonical_conic(plane_for_order(q))
            good = [w for w in wits if exterior.conic_union_check(con, w)]
            if not good:
                return False, f"no tangent-free union at q={q}"
            msgs.append(f"q={q}: {len(good)} tangent-free unions of size {q + 1 + (q + 1) // 2}")
    return True, "; ".join(msgs)


def _check_stopping(qs):
    for q in qs:
        rep = codes.stopping_equivalence_check(q)
        if not rep.ok:
            return False, f"stopping-set equivalence fails at q={q}"
    return True, f"peeling fixpoints = tangent-free sets for q in {list(qs)}"


def _check_secant_bound(ps):
    for p in ps:
        rep = tangency.secant_bound_check(p)
        if not rep.all_heavy_trivial:
            return False, f"non-trivial heavy-line set at p={p}"
    return True, f"heavy-secant sets are trivial for p in {list(ps)}"


def run_suite(level: str, note=print):
    checks = [
        ("censuses_q<=13", lambda: _check_censuses([3, 5, 7, 9, 11, 13])),
        ("constructions_q<=7", lambda: _check_constructions([5, 7])),
        ("u3_oracle", _check_u_oracle),
        ("u5", lambda: _check_u(5, 10)),
        ("dichotomy_5_7", lambda: _check_dichotomy([5, 7])),
        ("spectrum_system", _check_spectrum_system),
        ("pg25_ten_set", _check_ten_set),
        ("redei_directions", lambda: _check_redei_directions([9, 25, 27])),
        ("pg25_desargues", _check_pg25_desargues),
        ("external_line_formula", lambda: _check_external_line_formula([3, 5, 7, 9, 11])),
        ("codes_quick", _check_codes_quick),
        ("secant_bound_p<=5", lambda: _check_secant_bound([3, 5])),
    ]
    if level in ("full", "long"):
        checks += [
            ("censuses_q<=31", lambda: _check_censuses([17, 19, 23, 25, 27, 29, 31])),
            ("constructions_q<=31", lambda: _check_constructions([9, 11, 13, 17, 19, 23, 25, 27, 29, 31])),
            ("u7", lambda: _check_u(7, 12)),
            ("classification_pg25", lambda: _check_classification(5, 10, [(465, 800), (3100, 120)])),
            ("classification_pg27", lambda: _check_classification(7, 12, [(78_204, 72)])),
            ("dichotomy_q<=13", lambda: _check_dichotomy([9, 11, 13])),
            ("cliques_5_7_11", lambda: _check_cliques([5, 7, 11])),
            ("stopping_equivalence", lambda: _check_stopping([3, 4, 5])),
        ]
    if level == "long":
        checks += [
            ("dichotomy_q<=29", lambda: _check_dichotomy([17, 19, 23, 25, 27, 29])),
            ("cliques_q13", lambda: _check_cliques([13])),
            ("u9", lambda: _check_u(9, 15)),
            ("u11", lambda: _check_u(11, 18)),
            ("secant_bound_p7", lambda: _check_secant_bound([7])),
            ("secant_bound_p11", lambda: _check_secant_bound([11])),
            ("classification_pg29", lambda: _check_classification(9, 15, [(98_280, 432)])),
        ]
    summary = {}
    all_ok = True
    for name, fn in checks:
        t0 = time.monotonic()
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"{type(e).__name__}: {e}"
        dt = time.monotonic() - t0
        note(f"[{'ok' if ok else 'FAIL'}] {name}: {detail} ({dt:.1f}s)")
        summary[name] = {"ok": ok, "detail": detail, "seconds": round(dt, 1)}
        all_ok = all_ok and ok
    return summary, all_ok
