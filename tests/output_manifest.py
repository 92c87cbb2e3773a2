"""Pinned outputs: the sha256 of the canonical JSON (sorted keys, lists, no
spaces) of named outputs of pg2q.  A change that alters one of them fails
its test; a change that means to alter one re-pins its digest here and names
the reason in CHANGES.md."""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import asdict

from pg2q.cli import dispatch
from pg2q.conic import canonical_conic
from pg2q.exterior import check_extension_dichotomy
from pg2q.gfq import GF, prime_factors
from pg2q.linalg import random_invertible
from pg2q.plane import plane_for_order
from pg2q.search import _seeded_sets, classify_tangent_free, min_tangent_free
from pg2q.tangency import secant_bound_check

ODD_Q = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31]

PINNED = {
    "field_tables": "58e78a33a9be96eac945cbbd0a2daa7d7a08f04a5abacf8647c4598e973d2bad",
    "seeded_sets": "150a29062e2129a44ce50ea5116eff8e7092385d0678b00538b788e0137500fb",
    "secant_bound_check": "7cf50a4df307979e76fcd51e202358ff14d56653ef6039098315a0e028af15f0",
    "min_tangent_free": "040ade37d1004e5fbc522a5ec44b5de6a79779c7ff5e8135817c784a4d6f8461",
    "classify_tangent_free_7_12": "fffe51681a66a0013d474a2aa97d92dd1fb5c47504e3ddddb5c97e73129dc03b",
    "extension_dichotomy": "f42439f6ddf7f3b22cc9956e0e526f87cfc7a98d06d57b6cf44a22124dfb59dd",
    "chained_transforms": "f487380a3eadff042e8936374913189d29fc9c228c76cee54430d2ef62a28fd8",
    "cli_reports": "41fab6a292bee8f608aa977b50fd6bf133f49f23b8f08bf10dcefcb1dec97469",
}


def canonical_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def field_tables(limit: int = 512, tabulated: int = 64) -> dict:
    """For every prime power q <= limit, the auto modulus, the generator and
    the exp and log tables of GF(q), and up to q = tabulated also its add and
    mul tables.  Built by GF itself, not field_new, so no field stays cached."""
    out = {}
    for q in range(2, limit + 1):
        factors = prime_factors(q)
        if len(factors) != 1:
            continue
        p, h = factors[0], 1
        while p**h < q:
            h += 1
        gf = GF(p, h)
        entry = {"modulus": list(gf.modulus), "generator": gf.generator, "exp": gf._exp, "log": gf._log}
        if q <= tabulated:
            entry["add"], entry["mul"] = gf.add_table, gf.mul_table
        out[str(q)] = entry
    return out


# the benchmark's classification cases (CLASSIFY of perfbench/stages.py)
CLASSIFY = [(3, 6), (3, 8), (3, 9), (4, 6), (4, 8), (4, 9), (4, 10), (4, 11), (5, 10)]
SEEDED_CASES = CLASSIFY + [(5, 12), (7, 12), (9, 15)]


def search_outputs() -> dict:
    """The outputs of the search layer, each one job-runner path: the sets,
    in order, and the nodes of `_seeded_sets` at `SEEDED_CASES`; the reports
    of `secant_bound_check` at p = 3, 5, 7; u, witness, nodes, the refuted
    sizes and the status of `min_tangent_free` at one worker for q = 3, 4,
    5, 7, 8, 9; and the classes of `classify_tangent_free(7, 12)`."""
    seeded = {f"{q},{n}": _seeded_sets(plane_for_order(q), n) for q, n in SEEDED_CASES}
    secant = {str(p): asdict(secant_bound_check(p)) for p in (3, 5, 7)}
    exact = {}
    for q in (3, 4, 5, 7, 8, 9):
        r = min_tangent_free(q, workers=1)
        exact[str(q)] = [r.u, r.witness, r.nodes, r.exhausted_below, r.status]
    classes = [asdict(r) for r in classify_tangent_free(7, 12)]
    return {"seeded_sets": seeded, "secant_bound_check": secant, "min_tangent_free": exact,
            "classify_tangent_free_7_12": classes}


def geometry_outputs() -> dict:
    """The images of the canonical conic at every odd q <= 31: the report of
    `check_extension_dichotomy(q, all_lines=True)` with rng Random(q), and the
    coefficients after each of 10 chained `Conic.transform`s by
    `random_invertible` matrices drawn from Random(q)."""
    dichotomy = {str(q): asdict(check_extension_dichotomy(q, all_lines=True, rng=random.Random(q)))
                 for q in ODD_Q}
    chained = {}
    for q in ODD_Q:
        pl = plane_for_order(q)
        rng = random.Random(q)
        c = canonical_conic(pl)
        coeffs = []
        for _ in range(10):
            c = c.transform(random_invertible(pl.gf, rng))
            coeffs.append(c.coeffs)
        chained[str(q)] = coeffs
    return {"extension_dichotomy": dichotomy, "chained_transforms": chained}


CLI_REPORTS = [
    ("search-min", "--q", "5", "--cap", "12", "--workers", "1"),
    ("search-min", "--q", "9", "--workers", "2"),
    ("classify", "--q", "5", "--n", "10"),
    ("enumerate", "--q", "4", "--n", "6"),
    ("theoremsuite", "--level", "quick"),
]


def cli_outputs() -> dict:
    """The exit code and the report, without "wall_time", of each command of
    `CLI_REPORTS`, keyed by its command line; the suite's checks also drop
    their "seconds"."""
    out = {}
    for argv in CLI_REPORTS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(list(argv))
        report = json.loads(stdout.getvalue())
        del report["wall_time"]
        if argv[0] == "theoremsuite":
            for entry in report["results"].values():
                del entry["seconds"]
        out[" ".join(argv)] = [code, report]
    return {"cli_reports": out}
