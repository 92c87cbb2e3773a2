"""Pinned outputs: the sha256 of the canonical JSON (sorted keys, lists, no
spaces) of named outputs of pg2q.  A change that alters one of them fails
its test; a change that means to alter one re-pins its digest here and names
the reason in CHANGES.md.

    PYTHONPATH=src python tests/output_manifest.py

prints each entry's computed digest beside its pinned one and exits 1 on any
mismatch; run from another checkout, it takes that tree's digests."""

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import asdict

from pg2q.cli import dispatch
from pg2q.codes import batch_peel_fixpoint, peel_decode
from pg2q.conic import canonical_conic
from pg2q.exterior import check_extension_dichotomy
from pg2q.gfq import GF, ReducibleModulus, prime_factors
from pg2q.linalg import random_invertible
from pg2q.plane import Plane, plane_for, plane_for_order
from pg2q.search import _seeded_sets, classify_tangent_free, min_tangent_free
from pg2q.tangency import secant_bound_check

ODD_Q = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31]
ODD_Q_64 = ODD_Q + [37, 41, 43, 47, 49, 53, 59, 61]

PINNED = {
    "field_tables": "58e78a33a9be96eac945cbbd0a2daa7d7a08f04a5abacf8647c4598e973d2bad",
    "plane_outputs": "1215e0fbc3f384206f95c0487f6cf867cbc43982e829b0f36e24438c453aa559",
    "seeded_sets": "150a29062e2129a44ce50ea5116eff8e7092385d0678b00538b788e0137500fb",
    "secant_bound_check": "7cf50a4df307979e76fcd51e202358ff14d56653ef6039098315a0e028af15f0",
    "min_tangent_free": "040ade37d1004e5fbc522a5ec44b5de6a79779c7ff5e8135817c784a4d6f8461",
    "classify_tangent_free_7_12": "fffe51681a66a0013d474a2aa97d92dd1fb5c47504e3ddddb5c97e73129dc03b",
    "extension_dichotomy": "f42439f6ddf7f3b22cc9956e0e526f87cfc7a98d06d57b6cf44a22124dfb59dd",
    "chained_transforms": "f487380a3eadff042e8936374913189d29fc9c228c76cee54430d2ef62a28fd8",
    "cli_reports": "ea3500480386f7d4c637e805ac3ba3c96357fbc7e9459daa75b4abc612c0dc97",
    "peel_outputs": "9951b2c323b8a083aeaf7222fce4e9a8a1fec0a79802b87ba81bfa7b2385163a",
    "conic_points": "e61827b86734430962133349a043fda82be1cac83fb8ea0db72cfff702047c2b",
}


def canonical_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def prime_powers(limit: int) -> list[tuple[int, int]]:
    """(p, h) for every prime power p^h <= limit, in increasing order."""
    out = []
    for q in range(2, limit + 1):
        factors = prime_factors(q)
        if len(factors) != 1:
            continue
        p, h = factors[0], 1
        while p**h < q:
            h += 1
        out.append((p, h))
    return out


def field_tables(limit: int = 512, tabulated: int = 64) -> dict:
    """For every prime power q <= limit, the auto modulus, the generator and
    the exp and log tables of GF(q), and up to q = tabulated also its add and
    mul tables.  Built by GF itself, not field_new, so no field stays cached."""
    out = {}
    for p, h in prime_powers(limit):
        gf = GF(p, h)
        q = gf.q
        entry = {"modulus": list(gf.modulus), "generator": gf.generator, "exp": gf._exp, "log": gf._log}
        if q <= tabulated:
            entry["add"], entry["mul"] = gf.add_table, gf.mul_table
        out[str(q)] = entry
    return out


def plane_fields() -> list[GF]:
    """The default field of every prime power q <= 64, then the field of
    every other monic irreducible modulus at q = 9, 25 and 27."""
    out = [GF(p, h) for p, h in prime_powers(64)]
    for p, h in ((3, 2), (5, 2), (3, 3)):
        for code in range(p**h):
            modulus = [code // p**i % p for i in range(h)] + [1]
            try:
                gf = GF(p, h, modulus)
            except ReducibleModulus:
                continue
            if gf not in out:
                out.append(gf)
    return out


def plane_outputs() -> dict:
    """The line masks of PG(2,q) over each of `plane_fields`, as hex strings
    (`str` of a 4,161-bit int is quadratic), keyed by q and modulus.  Built
    by Plane itself, not plane_for, so no plane stays cached."""
    masks = {f"{gf.q}:{list(gf.modulus)}": [f"{m:x}" for m in Plane(gf).line_masks] for gf in plane_fields()}
    return {"plane_outputs": masks}


def peel_outputs(count: int = 40) -> dict:
    """Both peelers' answers, as sorted index lists, in PG(2,q) for q = 3,
    4, 5, 9 and 31 over the default moduli and for GF(9) over x^2 + x + 2:
    on [], on the whole plane and on `count` erasures of every density drawn
    from Random(n), each answer of `peel_decode` and `batch_peel_fixpoint`,
    then `peel_decode` of the answer, a set with no singleton line, which
    takes the path that peels nothing.  Keyed by q and modulus."""
    planes = [plane_for_order(q) for q in (3, 4, 5, 9, 31)] + [plane_for(3, 2, (2, 1, 1))]
    out = {}
    for pl in planes:
        n, rng = pl.n, random.Random(pl.n)
        cases = [[], list(range(n))] + [rng.sample(range(n), rng.randrange(n + 1)) for _ in range(count)]
        answers = []
        for erased in cases:
            residual = peel_decode(pl, erased)
            answers.append([sorted(residual), sorted(batch_peel_fixpoint(pl, erased)),
                            sorted(peel_decode(pl, residual))])
        out[f"{pl.q}:{list(pl.gf.modulus)}"] = answers
    return {"peel_outputs": out}


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


def conic_outputs(images: int = 10) -> dict:
    """The points of the canonical conic and of `images` images of it, each
    by a `random_invertible` matrix drawn from Random(q), at every odd q <= 64."""
    out = {}
    for q in ODD_Q_64:
        pl = plane_for_order(q)
        rng = random.Random(q)
        c = canonical_conic(pl)
        out[str(q)] = [c.points] + [c.transform(random_invertible(pl.gf, rng)).points for _ in range(images)]
    return {"conic_points": out}


CLI_REPORTS = [
    ("search-min", "--q", "5", "--cap", "12", "--workers", "1"),
    ("search-min", "--q", "9", "--workers", "1"),
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


def main() -> int:
    """Compute every entry, print its digest beside the pinned one, and
    return 1 if any differs."""
    computed = {"field_tables": canonical_sha256(field_tables())}
    for outputs in (plane_outputs, peel_outputs, search_outputs, geometry_outputs, conic_outputs, cli_outputs):
        computed.update((name, canonical_sha256(value)) for name, value in outputs().items())
    bad = 0
    for name, digest in computed.items():
        pinned = PINNED.get(name)
        bad += digest != pinned
        print(f"{name:28} {digest}  pinned {pinned}  {'ok' if digest == pinned else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
