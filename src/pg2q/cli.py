"""Command-line front end: reproducible experiment drivers with JSON output.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success and all
assertions hold, 1 a verification failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from functools import lru_cache

from .conic import canonical_conic
from .gfq import QuadChar, field_new
from .plane import PointSet, plane_for_order
from .tangency import is_tangent_free, spectrum


def _load_set(args) -> PointSet:
    """The point set that --set names: a JSON file, or - for stdin.  A command
    with --q (peel) also reads a bare JSON list of point indices in PG(2, --q),
    and refuses a point set that lies in another plane."""
    if args.set == "-":
        obj = json.load(sys.stdin)
    else:
        with open(args.set) as f:
            obj = json.load(f)
    q = getattr(args, "q", None)
    if isinstance(obj, dict) or not hasattr(args, "q"):
        ps = PointSet.from_json(obj)
        if q is not None and ps.plane.q != q:
            raise ValueError(f"the set lies in PG(2,{ps.plane.q}), not in PG(2,{q}) as --q says")
        return ps
    if q is None:
        raise ValueError("a list of point indices needs --q")
    plane = plane_for_order(q)
    if not isinstance(obj, list) or not all(type(i) is int and 0 <= i < plane.n for i in obj):
        raise ValueError(f"--set must be a point set or a list of point indices in [0, {plane.n})")
    return PointSet(plane, obj)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# Each command returns (field spec or None, report body, exit code); dispatch
# adds "command", "field" and "wall_time" and prints the report.  A command
# imports the layers above tangency that it uses when it runs: importing
# search, exterior, codes, constructions and suite up front would add about
# 30 ms to the start of every command run without a bytecode cache.


def cmd_field_info(args):
    modulus = [int(c) for c in args.modulus.split(",")] if args.modulus else None
    gf = field_new(args.p, args.h, modulus)
    squares = sum(1 for x in range(1, gf.q) if gf.quad_char(x) is QuadChar.SQUARE)
    results = {
        "q": gf.q,
        "generator": gf.generator,
        "nonzero_squares": squares,
        "nonzero_nonsquares": gf.q - 1 - squares if gf.q % 2 else 0,
    }
    return gf.spec, {"results": results}, 0


def cmd_construct(args):
    from . import constructions as cons

    opts = cons.options_for(args.name, args.q, args.r, args.a)
    c = cons.build(args.name, args.q, **opts)
    if args.out:
        with open(args.out, "w") as f:
            f.write(c.points.dump())
    body = {
        "parameters": {"name": args.name, "q": args.q, **opts},
        "results": {"point_set": c.points.to_json(), "certificate": c.to_json()},
        "verdicts": {"tangent_free": c.tangent_free, "status": c.status},
    }
    return c.points.plane.gf.spec, body, 0 if c.tangent_free else 1


def cmd_verify(args):
    ps = _load_set(args)
    sp = spectrum(ps)
    tangent_free = is_tangent_free(ps)
    ok = tangent_free and len(ps) > 0 and sp.check_identities()
    body = {
        "results": {
            "size": len(ps),
            "tangent_free": tangent_free,
            "non_empty": len(ps) > 0,
            "spectrum": str(sp),
            "verdict": "VALID" if ok else "INVALID",
        },
        "verdicts": {"valid": ok},
    }
    return ps.plane.gf.spec, body, 0 if ok else 1


def cmd_spectrum(args):
    ps = _load_set(args)
    sp = spectrum(ps)
    identities = sp.check_identities()
    body = {"results": {"size": len(ps), "spectrum": str(sp), "identities": identities}}
    return ps.plane.gf.spec, body, 0 if identities else 1


def cmd_search_min(args):
    from .search import lower_bound, min_tangent_free

    if args.budget is not None and not (math.isfinite(args.budget) and args.budget >= 0):
        raise ValueError(f"--budget must be a finite number of seconds >= 0, got {args.budget}")
    cpus = os.cpu_count() or 1
    if args.workers is not None and not 1 <= args.workers <= cpus:
        raise ValueError(f"--workers must be between 1 and {cpus} (the CPU count), got {args.workers}")
    workers = args.workers or cpus
    res = min_tangent_free(args.q, args.cap, workers=workers, budget_s=args.budget)
    plane = plane_for_order(args.q)
    verified = res.witness is not None and is_tangent_free(PointSet(plane, res.witness))
    body = {
        "parameters": {"q": args.q, "cap": res.cap, "workers": workers},
        "results": {
            "u": res.u,
            "witness": [list(plane.coords[p]) for p in res.witness] if res.witness else None,
            "nodes_expanded": res.nodes,
            "status": res.status,
            "sizes_refuted_below": res.exhausted_below,
            "witness_source": res.witness_source,
            "sqrt_lower_bound": lower_bound(args.q),
            "gap_over_bound": None if res.u is None else res.u - lower_bound(args.q),
        },
        "verdicts": {"witness_tangent_free": verified},
    }
    return plane.gf.spec, body, 0 if (res.found and verified) or res.status == "budget_exceeded" else 1


def cmd_enumerate(args):
    from .search import enumerate_tangent_free

    sets = enumerate_tangent_free(args.q, args.n)
    plane = plane_for_order(args.q)
    spectra = Counter(str(spectrum(PointSet(plane, s))) for s in sets)
    if args.out:
        with open(args.out, "w") as f:
            f.write(json.dumps([list(s) for s in sets]))
    body = {
        "parameters": {"q": args.q, "n": args.n},
        "results": {"count": len(sets), "spectra": dict(sorted(spectra.items()))},
    }
    return plane.gf.spec, body, 0


def cmd_classify(args):
    from .search import classify_tangent_free, pgl_group

    plane = plane_for_order(args.q)
    reps = classify_tangent_free(args.q, args.n)
    group = pgl_group(args.q)
    body = {
        "parameters": {"q": args.q, "n": args.n},
        "results": {
            "group_order": group.order,
            "total_sets": sum(r.class_size for r in reps),
            "classes": [
                {
                    "representative": [list(plane.coords[p]) for p in r.canonical],
                    "class_size": r.class_size,
                    "stabilizer_order": r.stabilizer_order,
                    "spectrum": str(spectrum(PointSet(plane, r.canonical))),
                }
                for r in reps
            ],
        },
    }
    return plane.gf.spec, body, 0


def cmd_exterior_extend(args):
    from .exterior import canonical_external_line, check_extension_dichotomy, find_extenders

    rep = check_extension_dichotomy(args.q, all_lines=args.all_lines)
    plane = plane_for_order(args.q)
    conic, line, a = canonical_external_line(plane)
    full = find_extenders(conic, line)
    body = {
        "parameters": {"q": args.q, "all_lines": args.all_lines},
        "results": {
            "canonical_a": a,
            "report": full.to_json(plane),
            "off_line_extenders": rep.off_line_count,
            "expected_off_line": rep.expected_off,
            "dichotomy_holds": rep.ok,
        },
        "verdicts": {"dichotomy": rep.ok},
    }
    return plane.gf.spec, body, 0 if rep.ok else 1


def cmd_exterior_clique(args):
    from .exterior import exterior_clique_search, conic_union_check

    cliques = exterior_clique_search(args.q, no_three_collinear=args.no3col)
    plane = plane_for_order(args.q)
    conic = canonical_conic(plane)
    unions = [conic_union_check(conic, c) for c in cliques]
    body = {
        "parameters": {"q": args.q, "no3col": args.no3col},
        "results": {
            "clique_size": (args.q + 1) // 2,
            "count": len(cliques),
            "tangent_free_unions": sum(unions),
            "witness": [list(plane.coords[p]) for p in cliques[0]] if cliques else None,
        },
    }
    return plane.gf.spec, body, 0


def cmd_dual_codeword(args):
    from .codes import incidence_code

    ps = _load_set(args)
    code = incidence_code(ps.plane)
    v, exact, nodes = code.dual_codeword_on_support(ps.members)
    if v is None:
        _note("NONE")
    body = {
        "results": {
            "found": v is not None,
            "exact": exact,
            "nodes": nodes,
            "coefficients": None if v is None else list(v),
            "weight": None if v is None else sum(1 for x in v if x),
        },
    }
    return ps.plane.gf.spec, body, 0


def cmd_peel(args):
    from .codes import peel_decode

    ps = _load_set(args)
    plane = ps.plane
    residual = peel_decode(plane, ps)
    # read off the line masks, not the Singer sweep that peeling uses
    stopping = residual <= ps and 1 not in residual.per_line
    body = {
        "parameters": {"q": plane.q},
        "results": {
            "erased": len(ps),
            "residual": residual.to_json(),
            "residual_size": len(residual),
        },
        "verdicts": {"stopping_set": stopping},
    }
    return plane.gf.spec, body, 0 if stopping else 1


def cmd_theoremsuite(args):
    from .suite import run_suite

    summary, ok = run_suite(args.level, note=_note)
    return None, {"parameters": {"level": args.level}, "results": summary}, 0 if ok else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: each parse
    returns a fresh namespace, so no option of one command reaches another."""
    ap = argparse.ArgumentParser(prog="pg2q", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field-info", help="field parameters and square counts")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--modulus", type=str, default=None, help="comma-separated, ascending degree")
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("construct", help="build a named set without tangents")
    p.add_argument("--name", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, default=None, help="external lines removed (punctured_interior only)")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="tangent-freeness and spectrum of a point set")
    p.add_argument("--set", required=True, help="JSON file, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="line-intersection spectrum of a point set")
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("search-min", help="exact minimum tangent-free set size")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--budget", type=float, default=None, help="time bound in seconds (default: none)")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_search_min)

    p = sub.add_parser("enumerate", help="all tangent-free sets of a given size")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify tangent-free n-sets up to PGL(3,q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("exterior-extend", help="extension dichotomy for exterior points on a line")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--all-lines", dest="all_lines", action="store_true")
    p.set_defaults(func=cmd_exterior_extend)

    p = sub.add_parser("exterior-clique", help="half-line exterior sets via clique search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--no3col", action="store_true")
    p.set_defaults(func=cmd_exterior_clique)

    p = sub.add_parser("dual-codeword", help="dual codeword supported on a point set")
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_dual_codeword)

    p = sub.add_parser("peel", help="peeling decoder residual of an erasure set")
    p.add_argument("--set", required=True, help="JSON point set or list of point indices, or - for stdin")
    p.add_argument("--q", type=int, default=None, help="plane order; needed for a list of point indices")
    p.set_defaults(func=cmd_peel)

    p = sub.add_parser("theoremsuite", help="run the verification suite")
    p.add_argument("--level", choices=["quick", "full", "long"], default="quick")
    p.set_defaults(func=cmd_theoremsuite)

    return ap


def dispatch(argv) -> int:
    """Run one command and print its report, the only output on stdout: one
    JSON line with the command's body, "command", "field" (for a command in
    a declared field) and "wall_time"."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    t0 = time.monotonic()
    try:
        field, body, code = args.func(args)
    except (ValueError, KeyError, OSError) as e:
        _note(f"error: {type(e).__name__}: {e}")
        return 2
    except AssertionError as e:
        _note(f"assertion failed: {e}")
        return 1
    report = {"command": args.cmd, **body, "wall_time": round(time.monotonic() - t0, 3)}
    if field is not None:
        report["field"] = field.to_json()
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
