"""One round of a workload: set-up, then the workload's stages, each timed and then checked.

An untraced round runs the stages its workload is named for, on their full
inputs.  A traced round also runs every other stage, on a small input, so
that every per-layer metric exists in every traced run.  Times are CPU
seconds (spans.cpu_s).  A round runs in a fresh interpreter, so pg2q's
per-process caches start empty, as for a `pg2q` command.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import oracle
from spans import cpu_s

ODD = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31]
CLASSIFY = [(3, 6), (3, 8), (3, 9), (4, 6), (4, 8), (4, 9), (4, 10), (4, 11), (5, 10)]
# stage -> (full input, small input for a traced round of the other workload)
INPUTS = {
    "exact_u": ([3, 4, 5, 7, 8, 16, 9], [3, 4, 5, 7, 8, 16]),
    "refute_w1": ((9, 13), (9, 13)),
    "classify": (CLASSIFY, CLASSIFY),
    "certify": (ODD + [49], ODD),
    "dichotomy": (ODD, ODD[:6]),
    # (orders, erasure patterns per order)
    "peel": (([9, 31], 1000), ([9, 17], 400)),
    "dual_code": ([5, 7, 9, 11, 13], [5, 7, 9, 11]),
    # (p, h, images per default modulus, non-default moduli, images per non-default modulus)
    "cli": ([(3, 2, 4, 2, 4), (5, 2, 0, 2, 2), (3, 3, 0, 2, 2)], [(3, 2, 1, 0, 0)]),
}
# the workers=2 search runs first, while the process is small: every fork
# makes the parent fault on its next write to each page, which would slow
# whatever runs next by a varying amount
STAGES = ("exact_u", "refute_w1", "classify", "certify", "dichotomy", "peel", "dual_code", "cli")
FULL = {
    "exact_u": {"exact_u", "refute_w1", "classify"},
    "geometry": {"certify", "dichotomy", "peel", "dual_code", "cli"},
}
WORKLOADS = tuple(FULL)

U = {3: 6, 4: 6, 5: 10, 7: 12, 8: 10, 9: 15, 16: 18}
SET_COUNTS = {(3, 6): comb(13, 2), (4, 6): 168, (4, 8): comb(21, 2), (5, 10): comb(31, 2) + 5**5 - 5**2}
BRUTE_FORCE_SUBSETS = 250_000  # count by brute force where there are at most this many n-subsets
# The CLI images use this fixed seed, not --seed: some of them are misjudged
# every time (see README), and their number must not change with the seed.
CLI_SEED = 7
FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


class Round:
    def __init__(self, workload: str, seed: int, tracer):
        self.workload = workload
        self.seed = seed
        self.tr = tracer
        self.stages = [s for s in STAGES if tracer.enabled or s in FULL[workload]]
        self.times: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.results: dict = {}
        self._oplanes: dict = {}

    def inputs(self, stage):
        full, small = INPUTS[stage]
        return full if stage in FULL[self.workload] else small

    def expect(self, cond, what):
        if not cond:
            self.problems.append(what)

    def _oplane(self, spec):
        """The oracle's plane over a pg2q FieldSpec."""
        key = (spec.p, spec.h, tuple(spec.modulus))
        if key not in self._oplanes:
            self._oplanes[key] = oracle.Plane(oracle.Field(*key))
        return self._oplanes[key]

    def plane_orders(self) -> list[int]:
        """The orders whose default plane tables the set-up builds."""
        qs = set()
        for stage in self.stages:
            inp = self.inputs(stage)
            if stage == "refute_w1":
                qs.add(inp[0])
            elif stage == "classify":
                qs |= {q for q, _ in inp}
            elif stage == "peel":
                qs |= set(inp[0])
            elif stage == "cli":
                qs |= {p**h for p, h, *_ in inp}
            else:
                qs |= set(inp)
        return sorted(qs)

    def cli_fields(self, default_modulus) -> list[tuple[int, int, tuple, int]]:
        """(p, h, modulus, images) for the CLI round trip; default_modulus(q) is pg2q's choice."""
        out = []
        for p, h, n_default, n_moduli, n_each in self.inputs("cli"):
            dflt = tuple(default_modulus(p**h))
            if n_default:
                out.append((p, h, dflt, n_default))
            others = [m for m in oracle.irreducible_moduli(p, h) if m != dflt]
            out.extend((p, h, m, n_each) for m in others[:n_moduli])
        return out

    # -- set-up ---------------------------------------------------------------------------

    def setup(self) -> float:
        """Import pg2q and build the plane tables of every order the round uses."""
        t = cpu_s()
        with self.tr.span("pg2q.import"):
            import pg2q
            from pg2q import cli, codes, constructions, exterior, search  # noqa: F401
        for q in self.plane_orders():
            with self.tr.span("gfq.field", q=q):
                pg2q.field_for_order(q)
            with self.tr.span("plane.build", q=q):
                pg2q.plane_for_order(q)
        setup_s = cpu_s() - t
        if "cli" not in self.stages:
            return setup_s
        # a set loaded from JSON is read in plane_for(p, h, modulus), a table of its own
        self.fields = self.cli_fields(lambda q: pg2q.field_for_order(q).spec.modulus)
        t = cpu_s()
        for p, h, mod, _ in self.fields:
            with self.tr.span("gfq.field", q=p**h, modulus=list(mod)):
                pg2q.field_new(p, h, mod)
            with self.tr.span("plane.build", q=p**h, modulus=list(mod)):
                pg2q.plane_for(p, h, mod)
        return setup_s + cpu_s() - t

    # -- stages ---------------------------------------------------------------------------
    #
    # Each stage returns (calls, check).  A call is (metric, function).  run()
    # makes every call once, adding its CPU seconds (see spans.cpu_s) to its
    # metric, then runs every check.  check() judges the answers and counts
    # the operations attempted.

    def run(self):
        self.problems += oracle.selftest()
        plans = [getattr(self, stage)() for stage in self.stages]
        t0 = time.perf_counter()
        for calls, _ in plans:
            for metric, call in calls:
                t = cpu_s()
                call()
                self.times[metric] = self.times.get(metric, 0.0) + cpu_s() - t
        self.wall = {"stages": time.perf_counter() - t0}
        t0 = time.perf_counter()
        for stage, (_, check) in zip(self.stages, plans):
            counted = self.attempted, self.failed
            check()
            if stage not in FULL[self.workload]:
                # a traced round's extra stages are checked but not counted, so that
                # the failed share is the same in traced and untraced runs
                self.attempted, self.failed = counted
        self.wall["checks"] = time.perf_counter() - t0

    def exact_u(self):
        from pg2q import plane_for_order, search

        qs = self.inputs("exact_u")
        runs = []

        def call(q):
            with self.tr.span("search.min_tangent_free", q=q, cap=2 * q, workers=2):
                runs.append((q, search.min_tangent_free(q, 2 * q, workers=2)))

        def check():
            self.results["exact_u"] = runs
            self.attempted += len(runs)
            for q, r in runs:
                self.expect(r.found and r.status == "ok" and r.u == U[q],
                            f"u_{q} = {r.u} ({r.status}), expected {U[q]}")
                self.expect(q % 2 or U[q] == q + 2, f"u_{q} = q + 2 for even q")
                plane = plane_for_order(q)
                coords = [plane.coords[i] for i in (r.witness or ())]
                opl = self._oplane(plane.gf.spec)
                self.expect(len(set(coords)) == r.u and opl.is_tangent_free(coords),
                            f"q={q}: witness of size u, tangent-free")
                self.expect(q % 2 or opl.is_hyperoval(coords), f"q={q}: the witness is a hyperoval")

        return [("exact_u_s", lambda q=q: call(q)) for q in qs], check

    def refute_w1(self):
        from pg2q import search

        q, cap = self.inputs("refute_w1")
        runs = []

        def call():
            with self.tr.span("search.min_tangent_free", q=q, cap=cap, workers=1):
                runs.append(search.min_tangent_free(q, cap, workers=1))

        def check():
            r = self.results["refute_w1"] = runs[0]
            self.attempted += 1
            self.expect(not r.found and r.status == "not_found" and r.exhausted_below == cap + 1,
                        f"q={q} cap {cap}: {r.status}, refuted below {r.exhausted_below}")

        return [("refute_w1_s", call)], check

    def classify(self):
        from pg2q import plane_for_order, search

        cases = self.inputs("classify")
        sets, reps = {}, {}

        def enumerate_(q, n):
            with self.tr.span("search.enumerate_tangent_free", q=q, n=n):
                sets[(q, n)] = search.enumerate_tangent_free(q, n)

        def classify(q, n):
            with self.tr.span("search.classify_up_to_pgl", q=q, n=n):
                reps[(q, n)] = search.classify_up_to_pgl(q, sets[(q, n)])

        def check():
            self.results["classify"] = (sets, reps)
            self.attempted += 2 * len(cases)
            np = oracle.np
            for q, n in cases:
                found, classes = sets[(q, n)], reps[(q, n)]
                plane = plane_for_order(q)
                opl = self._oplane(plane.gf.spec)
                to_oracle = [opl.index[opl.normalize(c)] for c in plane.coords]
                ind = np.zeros((len(found), opl.n), dtype=np.int8)
                for row, s in enumerate(found):
                    ind[row, [to_oracle[i] for i in s]] = 1
                self.expect(len(set(found)) == len(found) and bool((ind.sum(axis=1) == n).all())
                            and bool(opl.tangent_free_rows(ind).all()), f"({q},{n}): distinct tangent-free n-sets")
                if (q, n) in SET_COUNTS:
                    self.expect(len(found) == SET_COUNTS[(q, n)], f"({q},{n}): {len(found)} sets")
                if comb(q * q + q + 1, n) <= BRUTE_FORCE_SUBSETS:
                    self.expect(len(found) == opl.count_tangent_free_subsets(n), f"({q},{n}): brute-force count")
                self.expect(sum(c.class_size for c in classes) == len(found)
                            and sum(c.member_count for c in classes) == len(found), f"({q},{n}): classes partition")
                self.expect(all(c.class_size * c.stabilizer_order == oracle.pgl_order(q) for c in classes),
                            f"({q},{n}): class size x stabiliser = |PGL(3,{q})|")
                if (q, n) == (5, 10):
                    self.expect(sorted((c.class_size, c.stabilizer_order) for c in classes)
                                == [(465, 800), (3100, 120)],
                                "PG(2,5) 10-sets: classes 465 and 3100, stabilisers 800 and 120")
                frame = {plane.coords.index(v) for v in FRAME}
                through_frame = sum(1 for s in found if frame.issubset(s))
                predicted = sum(24 * opl.quadrangles([plane.coords[i] for i in c.canonical]) / c.stabilizer_order
                                for c in classes)
                self.expect(through_frame == predicted,
                            f"({q},{n}): {through_frame} sets through the frame, predicted {predicted}")

        calls = []
        for q, n in cases:
            calls += [("enumerate_s", lambda q=q, n=n: enumerate_(q, n)),
                      ("classify_s", lambda q=q, n=n: classify(q, n))]
        return calls, check

    def certify(self):
        from pg2q import constructions, field_for_order

        qs = self.inputs("certify")
        certs = []

        def call(q):
            with self.tr.span("constructions.all_certificates", q=q):
                certs.append((q, constructions.all_certificates(q)))

        def check():
            self.attempted += len(certs)
            for q, cs in certs:
                gf = field_for_order(q)
                p, h = gf.p, gf.h
                want = {"trivial": 2 * q}
                if q % 2 and q >= 7:
                    want["two_conics"] = 2 * (q - 1)
                if q % 2 and q >= 5:
                    want["interior"] = q * (q - 1) // 2
                    for r in range((q - 5) // 2 + 1):
                        want[f"punctured_interior_r{r}"] = q * (q - 1) // 2 - r * (q + 1) // 2
                if p > 2 and h >= 2:
                    want["trace_graph"] = 2 * q - q // p
                    want["frobenius_graph"] = None  # its printed size formula is not claimed
                self.expect(sorted(c.name for c in cs) == sorted(want), f"q={q}: certificates {[c.name for c in cs]}")
                for c in cs:
                    x = c.spectrum.counts
                    k = c.actual_size
                    self.expect(want.get(c.name) in (None, k), f"q={q} {c.name}: size {k}, expected {want.get(c.name)}")
                    self.expect(c.tangent_free and k > 0 and x[1] == 0 and c.spectrum.size == k
                                and sum(x) == q * q + q + 1 and sum(i * v for i, v in enumerate(x)) == k * (q + 1)
                                and sum(i * (i - 1) * v for i, v in enumerate(x)) == k * (k - 1),
                                f"q={q} {c.name}: spectrum {c.spectrum}")

        return [("certify_s", lambda q=q: call(q)) for q in qs], check

    def dichotomy(self):
        from pg2q import exterior, plane_for_order

        qs = self.inputs("dichotomy")
        reps = []

        def call(q):
            with self.tr.span("exterior.check_extension_dichotomy", q=q):
                reps.append((q, exterior.check_extension_dichotomy(
                    q, all_lines=True, rng=random.Random(self.seed * 7919 + q))))

        def check():
            self.attempted += len(reps)
            for q, rep in reps:
                expected = 1 if q % 4 == 1 else 0
                self.expect(rep.ok and rep.off_line_count == expected and rep.predicted_point_hit
                            and rep.every_line_point_extends, f"q={q}: dichotomy report {rep}")
                # the canonical pair again, judged by the oracle
                plane = plane_for_order(q)
                opl = self._oplane(plane.gf.spec)
                f = opl.field
                conic, line, a = exterior.canonical_external_line(plane)
                with self.tr.span("exterior.find_extenders", q=q):
                    ext = exterior.find_extenders(conic, line)
                off = [plane.coords[i] for i in ext.extenders_off_line]
                self.expect(not f.is_square(a) and plane.coords[line] == opl.normalize((a, 0, f.neg[1])),
                            f"q={q}: the canonical line is z = ax with a = {a} a non-square")
                self.expect(off == ([opl.normalize((1, 0, f.neg[a]))] if q % 4 == 1 else []),
                            f"q={q}: off-line extenders {off}")
                self.expect(len(ext.base_points) == (q + 1) // 2, f"q={q}: (q+1)/2 exterior points on the line")

        return [("dichotomy_s", lambda q=q: call(q)) for q in qs], check

    def peel(self):
        from pg2q import codes, plane_for_order

        qs, count = self.inputs("peel")
        pats = {}
        for q in qs:
            n = q * q + q + 1
            rng = random.Random(self.seed * 1_000_003 + q)
            pats[q] = [rng.sample(range(n), rng.randrange(1, n + 1)) for _ in range(count)]
        res, orc = {}, {}

        def call(q):
            with self.tr.span("codes.peel_decode", q=q, calls=count):
                res[q] = [codes.peel_decode(q, e) for e in pats[q]]
            with self.tr.span("codes.batch_peel_fixpoint", q=q, calls=count):
                orc[q] = [codes.batch_peel_fixpoint(q, e) for e in pats[q]]

        def check():
            np = oracle.np
            self.attempted += count * len(qs)
            self.results["peel_calls"] = count * len(qs)
            for q, ps in pats.items():
                plane = plane_for_order(q)
                opl = self._oplane(plane.gf.spec)
                to_oracle = [opl.index[opl.normalize(c)] for c in plane.coords]
                ind = np.zeros((len(ps), opl.n), dtype=np.int8)
                for row, (e, r) in enumerate(zip(ps, res[q])):
                    ind[row, [to_oracle[i] for i in r]] = 1
                    self.expect(r <= set(e), f"q={q}: the residual lies inside the erasure")
                self.expect(res[q] == orc[q], f"q={q}: peel_decode and batch_peel_fixpoint disagree")
                self.expect(bool(opl.tangent_free_rows(ind).all()), f"q={q}: a residual has a tangent")
                self.expect(all(codes.peel_decode(q, r) == r for r in res[q] if r),
                            f"q={q}: a residual does not peel to itself")

        return [("peel_s", lambda q=q: call(q)) for q in qs], check

    def dual_code(self):
        from pg2q import codes, plane_for_order

        qs = self.inputs("dual_code")
        bases = []

        def call(q):
            # a new IncidenceCode: incidence_code(q) would hand back the CLI's cached one
            with self.tr.span("codes.incidence_code", q=q):
                code = codes.IncidenceCode(plane_for_order(q))
            with self.tr.span("linalg.nullspace", q=q):
                bases.append((q, code.nullspace_basis()))

        def check():
            self.attempted += len(bases)
            for q, basis in bases:
                plane = plane_for_order(q)
                spec = plane.gf.spec
                opl = self._oplane(spec)
                self.expect(len(basis) == oracle.dual_code_dim(spec.p, spec.h),
                            f"q={q}: dual code dimension {len(basis)}")
                self.expect(all(opl.is_dual_codeword({plane.coords[i]: int(c) for i, c in enumerate(v)})
                                for v in basis), f"q={q}: a nullspace vector is no dual codeword")

        return [("dual_code_s", lambda q=q: call(q)) for q in qs], check

    def cli(self):
        from pg2q import cli, plane_for_order

        rng = random.Random(CLI_SEED)
        ops = []  # (command, q, over pg2q's default modulus?, points, the set as JSON)
        for p, h, mod, count in self.fields:
            q = p**h
            opl = oracle.Plane(oracle.Field(p, h, mod))
            interior = opl.conic_interior()
            field = {"p": p, "h": h, "modulus": list(mod)}
            is_default = tuple(mod) == tuple(plane_for_order(q).gf.spec.modulus)
            if q == 9 and is_default:
                # the canonical interior: the dual-codeword answer every image must match
                ops.append(("dual-codeword", q, True, interior, json.dumps({"field": field, "points": interior})))
            for _ in range(count):
                img = opl.image(interior, opl.random_invertible(rng))
                text = json.dumps({"field": field, "points": img})
                ops.append(("verify", q, is_default, img, text))
                ops.append(("peel", q, is_default, img, text))
                if q == 9:
                    ops.append(("dual-codeword", q, is_default, img, text))
        answers = []

        def call(k):
            cmd, q, _, _, text = ops[k]
            argv = [cmd, "--set", "-"] + (["--q", str(q)] if cmd == "peel" else [])
            with self.tr.span("cli.dispatch", cmd=cmd):
                answers.append(_dispatch(cli, argv, text))

        def check():
            self.attempted += len(answers)
            plane9 = plane_for_order(9)
            opl9 = self._oplane(plane9.gf.spec)
            canonical_found = None
            for k, (rc, out) in enumerate(answers):
                cmd, q, is_default, pts, _ = ops[k]
                res = (out or {}).get("results", {})
                if cmd == "verify":
                    ok = res.get("verdict") == "VALID" and res.get("size") == len(pts)
                elif cmd == "peel":
                    ok = res.get("residual_size") == len(pts)
                elif k == 0:  # the canonical interior comes first
                    canonical_found = res.get("found")
                    vec = {plane9.coords[j]: c for j, c in enumerate(res.get("coefficients") or []) if c}
                    ok = not canonical_found or (set(vec) == set(pts) and opl9.is_dual_codeword(vec))
                else:
                    ok = res.get("found") == canonical_found
                if rc == 0 and ok:
                    continue
                if is_default:
                    self.problems.append(f"CLI {cmd} misjudged a set over the default modulus of GF({q})")
                else:
                    self.failed += 1

        return [("cli_s", lambda k=k: call(k)) for k in range(len(ops))], check

    # -- per-layer metrics (traced rounds) ------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures from the spans of a traced round, plus a few probe calls
        for layers that the stages reach only from inside pg2q."""
        import tracemalloc

        import pg2q
        from pg2q import codes, conic, exterior, search, tangency

        tr, m = self.tr, {f"stage.{name}": v for name, v in self.times.items()}
        m["gfq.field_build_s"] = tr.total("gfq.field")
        m["plane.build_s"] = tr.total("plane.build")
        if 49 not in self.plane_orders():
            with tr.span("plane.build", q=49):  # probe
                pg2q.plane_for_order(49)
        m["plane.build_s.q49"] = tr.total("plane.build", q=49)
        tracemalloc.start()
        pg2q.Plane(pg2q.field_for_order(49))
        m["plane.build_peak_mb.q49"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        # geometry layers on the conic interior of each certified odd order (probes)
        reps = 5
        orders = [q for q in self.inputs("certify") if q % 2]
        for q in orders:
            plane = pg2q.plane_for_order(q)
            with tr.span("conic.census", q=q):
                con = pg2q.canonical_conic(plane)
                con.point_census()
                con.line_census()
            members = conic.interior_point_indices(con)
            with tr.span("plane.pointset", q=q, calls=reps):
                sets = [pg2q.PointSet(plane, members) for _ in range(reps)]
            with tr.span("tangency.is_tangent_free", q=q, calls=reps):
                for s in sets:
                    tangency.is_tangent_free(s)
            with tr.span("tangency.spectrum", q=q, calls=reps):
                for s in sets:
                    tangency.spectrum(s)
        calls = reps * len(orders)
        m["conic.census_s"] = tr.total("conic.census")
        m["plane.pointset_per_s"] = calls / tr.total("plane.pointset")
        m["tangency.is_tangent_free_per_s"] = calls / tr.total("tangency.is_tangent_free")
        m["tangency.spectrum_per_s"] = calls / tr.total("tangency.spectrum")
        m["constructions.certificates_s"] = tr.total("constructions.all_certificates")
        m["exterior.find_extenders_per_s"] = len(tr.select("exterior.find_extenders")) / tr.total("exterior.find_extenders")
        for q in (7, 11, 13):
            with tr.span("exterior.exterior_clique_search", q=q):  # probe
                exterior.exterior_clique_search(q, no_three_collinear=True)
        m["exterior.clique_s"] = tr.total("exterior.exterior_clique_search")
        # search
        for q in self.inputs("exact_u"):
            with tr.span("search.known_witnesses", q=q):  # probe
                search.known_witnesses(q)
        m["search.known_witnesses_s"] = tr.total("search.known_witnesses")
        nodes_w2 = sum(r.nodes for _, r in self.results["exact_u"])
        nodes_w1 = self.results["refute_w1"].nodes
        m["search.nodes.w1"] = nodes_w1
        m["search.nodes.w2"] = nodes_w2
        m["search.nodes_per_s.w1"] = nodes_w1 / self.times["refute_w1_s"]
        m["search.nodes_per_s.w2"] = nodes_w2 / self.times["exact_u_s"]
        # levels 13 and 14 at q = 9 (probes, and the exact stage's q = 9 call where it has one)
        with tr.span("search.min_tangent_free", q=9, cap=13, workers=2):
            search.min_tangent_free(9, 13, workers=2)
        level13 = tr.total("search.min_tangent_free", q=9, cap=13, workers=2)
        m["search.level_s.q9_n13.w2"] = level13
        if 9 in self.inputs("exact_u"):
            # at cap 2q = 18 the search refutes 13 and 14; a construction settles 15
            m["search.level_s.q9_n14.w2"] = tr.total("search.min_tangent_free", q=9, cap=18, workers=2) - level13
        else:
            with tr.span("search.min_tangent_free", q=9, cap=14, workers=2):
                search.min_tangent_free(9, 14, workers=2)
            m["search.level_s.q9_n14.w2"] = tr.total("search.min_tangent_free", q=9, cap=14, workers=2) - level13
        # wall clock: the pool's gain is in latency, not in CPU seconds
        m["search.speedup_w2.q9_n13"] = (tr.wall("search.min_tangent_free", q=9, cap=13, workers=1)
                                         / tr.wall("search.min_tangent_free", q=9, cap=13, workers=2))
        sets, classes = self.results["classify"]
        m["search.enumerate_sets_per_s"] = sum(map(len, sets.values())) / tr.total("search.enumerate_tangent_free")
        m["search.enumerate_s.q5_n10"] = tr.total("search.enumerate_tangent_free", q=5, n=10)
        group = search.PGLGroup(pg2q.plane_for_order(5))
        with tr.span("search.pgl_table", q=5):  # probe: a fresh table
            table = group.elements()
        m["search.pgl_table_s.q5"] = tr.total("search.pgl_table", q=5)
        m["search.pgl_table_mb.q5"] = table.nbytes / 2**20
        with tr.span("search.orbit", q=5):
            for c in classes[(5, 10)]:
                group.orbit(c.canonical)
        m["search.orbit_s.q5"] = tr.total("search.orbit", q=5)
        group4 = search.PGLGroup(pg2q.plane_for_order(4))
        with tr.span("search.orbit_bfs", q=4):
            for key in sets:
                if key[0] == 4:
                    for c in classes[key]:
                        group4.orbit(c.canonical)
        m["search.orbit_bfs_s.q4"] = tr.total("search.orbit_bfs", q=4)
        # codes and linear algebra
        m["linalg.nullspace_s"] = tr.total("linalg.nullspace")
        m["codes.incidence_build_s"] = tr.total("codes.incidence_code")
        peel_calls = self.results["peel_calls"]
        m["codes.peel_per_s"] = peel_calls / tr.total("codes.peel_decode")
        m["codes.batch_peel_per_s"] = peel_calls / tr.total("codes.batch_peel_fixpoint")
        plane9 = pg2q.plane_for_order(9)
        interior9 = conic.interior_point_indices(pg2q.canonical_conic(plane9))
        with tr.span("codes.dual_codeword_on_support", q=9):  # probe
            codes.incidence_code(9).dual_codeword_on_support(interior9)
        m["codes.dual_codeword_s"] = tr.total("codes.dual_codeword_on_support")
        for cmd in ("verify", "peel", "dual-codeword"):
            m[f"cli.dispatch_s.{cmd}"] = tr.total("cli.dispatch", cmd=cmd)
        m["trace.overhead_s"] = tr.overhead_s()
        return m


def _dispatch(cli, argv, stdin_text):
    """Run one pg2q command in this process; returns (exit code, its JSON report or None)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.dispatch(argv)
    finally:
        sys.stdin = saved
    lines = out.getvalue().strip().splitlines()
    return rc, (json.loads(lines[-1]) if lines else None)
