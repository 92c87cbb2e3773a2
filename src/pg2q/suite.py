"""Composed verification runs at three scales.

quick: seconds (q <= 7) -- censuses, constructions, u_3/u_5, extension
dichotomy for q in {5,7}, spectrum system, codes basics.
full: minutes -- adds u_7, the classifications of the tangent-free sets of
PG(2,5) of size 10 and PG(2,7) of size 12, clique searches up to q=11,
dichotomy to q=13, construction certificates to q=31.
long: minutes, mostly u_11 -- u_9, u_11, dichotomy to q=29, clique q=13, the
prime secant-bound searches for p=7 and p=11, the classification for PG(2,9)
at size 15.
"""

from __future__ import annotations

import time


def _check_censuses(qs):
    from .conic import canonical_conic
    from .plane import plane_for_order

    for q in qs:
        c = canonical_conic(plane_for_order(q))
        if c.line_census() != (q + 1, q * (q + 1) // 2, q * (q - 1) // 2):
            return False, f"line census off at q={q}"
        if c.point_census() != (q + 1, q * (q + 1) // 2, q * (q - 1) // 2):
            return False, f"point census off at q={q}"
    return True, f"censuses match closed forms for q in {list(qs)}"


def _check_constructions(qs):
    from .constructions import all_certificates

    bad = []
    for q in qs:
        for cert in all_certificates(q):
            if cert.status == "INVALID":
                bad.append((q, cert.name))
            if cert.status == "FLAGGED" and not cert.name.startswith("frobenius"):
                bad.append((q, cert.name, "unexpected flag"))
    return not bad, f"certificates for q in {list(qs)}" + (f"; failures {bad}" if bad else "")


def _check_u(q, expected, workers):
    from .search import min_tangent_free

    res = min_tangent_free(q, 2 * q, workers=workers)
    ok = res.found and res.u == expected
    return ok, f"u_{q} = {res.u} (nodes {res.nodes})"


def _check_u_oracle():
    from .search import brute_force_min, min_tangent_free

    a = min_tangent_free(3, 8).u
    b = brute_force_min(3)
    return a == b == 6, f"search {a} vs brute force {b}"


def _check_dichotomy(qs):
    from .exterior import check_extension_dichotomy

    for q in qs:
        rep = check_extension_dichotomy(q)
        if not rep.ok:
            return False, f"dichotomy fails at q={q}"
    return True, f"extension dichotomy holds for q in {list(qs)}"


def _check_spectrum_system():
    from .tangency import spectrum_solutions

    sols = spectrum_solutions(10, 5, 4)
    return sols == [(5, 21, 2, 3), (6, 15, 10, 0)], f"solutions {sols}"


def _check_ten_set():
    from .exterior import pg25_ten_set

    ps = pg25_ten_set()
    return len(ps) == 10, "conic + 3 exterior points + concurrency point"


def _check_codes_quick():
    from .codes import hyperoval, incidence_code, trivial_signing

    code5 = incidence_code(5)
    v = trivial_signing(5)
    if not (code5.is_dual_codeword(v) and len(code5.support(v)) == 10):
        return False, "trivial signing is not a weight-10 dual codeword"
    h = hyperoval(4)
    vh = [1 if p in h.members else 0 for p in range(21)]
    if not incidence_code(4).is_dual_codeword(vh):
        return False, "hyperoval is not a dual codeword"
    return True, "trivial signing weight 10; hyperoval weight 6"


def _check_classification(q, n, expected):
    from .search import classify_tangent_free

    reps = classify_tangent_free(q, n)
    got = sorted((r.class_size, r.stabilizer_order) for r in reps)
    total = sum(size for size, _ in got)
    return got == expected, f"({q},{n}): {total} sets in {len(got)} classes (size, |Stab|) {got}"


def _check_cliques(qs):
    from .conic import canonical_conic
    from .exterior import conic_union_check, exterior_clique_search
    from .plane import plane_for_order

    msgs = []
    for q in qs:
        if q % 4 == 1:
            exterior_clique_search(q)  # asserts collinearity internally
            msgs.append(f"q={q} all collinear")
        else:
            wits = exterior_clique_search(q, no_three_collinear=True)
            conic = canonical_conic(plane_for_order(q))
            good = [w for w in wits if conic_union_check(conic, w.members)]
            if not good:
                return False, f"no tangent-free union at q={q}"
            msgs.append(f"q={q}: {len(good)} tangent-free unions of size {q + 1 + (q + 1) // 2}")
    return True, "; ".join(msgs)


def _check_stopping(qs):
    from .codes import stopping_equivalence_check

    for q in qs:
        rep = stopping_equivalence_check(q)
        if not rep.ok:
            return False, f"stopping-set equivalence fails at q={q}"
    return True, f"peeling fixpoints = tangent-free sets for q in {list(qs)}"


def _check_secant_bound(ps):
    from .tangency import secant_bound_check

    for p in ps:
        rep = secant_bound_check(p)
        if not rep.all_heavy_trivial:
            return False, f"non-trivial heavy-line set at p={p}"
    return True, f"heavy-secant sets are trivial for p in {list(ps)}"


def run_suite(level: str, workers: int | None = None, note=print):
    import os

    workers = workers or os.cpu_count() or 1
    checks = [
        ("censuses_q<=13", lambda: _check_censuses([3, 5, 7, 9, 11, 13])),
        ("constructions_q<=7", lambda: _check_constructions([5, 7])),
        ("u3_oracle", _check_u_oracle),
        ("u5", lambda: _check_u(5, 10, workers)),
        ("dichotomy_5_7", lambda: _check_dichotomy([5, 7])),
        ("spectrum_system", _check_spectrum_system),
        ("pg25_ten_set", _check_ten_set),
        ("codes_quick", _check_codes_quick),
        ("secant_bound_p<=5", lambda: _check_secant_bound([3, 5])),
    ]
    if level in ("full", "long"):
        checks += [
            ("censuses_q<=31", lambda: _check_censuses([17, 19, 23, 25, 27, 29, 31])),
            ("constructions_q<=31", lambda: _check_constructions([9, 11, 13, 17, 19, 23, 25, 27, 29, 31])),
            ("u7", lambda: _check_u(7, 12, workers)),
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
            ("u9", lambda: _check_u(9, 15, workers)),
            ("u11", lambda: _check_u(11, 18, workers)),
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
