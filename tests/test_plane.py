import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg2q.conic import canonical_conic
from pg2q.constructions import punctured_interior
from pg2q.exterior import exterior_points_on_line, find_extenders
from pg2q.gfq import field_for_order, field_new, prime_factors
from pg2q.plane import (
    IdenticalLines,
    Plane,
    PointSet,
    by_bytes,
    byte_tables,
    mask_bits,
    mask_of,
    plane_for,
    plane_for_order,
)
from pg2q.tangency import determined_directions, one_mod_p_check, redei_completion, redei_converse_check

from output_manifest import PINNED, canonical_sha256, plane_fields, plane_outputs


def _reference_join(plane: Plane, i: int, j: int) -> int:
    """The join of points i and j (or the meet of lines i and j): the
    normalised cross product of their triples."""
    gf, a, b = plane.gf, plane.coords[i], plane.coords[j]
    return plane.index_of((
        gf.sub(gf.mul(a[1], b[2]), gf.mul(a[2], b[1])),
        gf.sub(gf.mul(a[2], b[0]), gf.mul(a[0], b[2])),
        gf.sub(gf.mul(a[0], b[1]), gf.mul(a[1], b[0])),
    ))


@pytest.mark.parametrize("p, h, modulus", [
    *(pytest.param(p, h, None, id=str(p**h))
      for p, h in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))),
    pytest.param(3, 2, (2, 1, 1), id="9-[2, 1, 1]"),
])
def test_plane_axioms_exhaustive(p, h, modulus):
    pl = plane_for(p, h, modulus)
    q = p**h
    n = q * q + q + 1
    assert pl.n == n == len(pl.coords)
    assert all(lm.bit_count() == q + 1 for lm in pl.line_masks)
    # each pair of points joined by exactly one line, dually for lines
    for i in range(n):
        for j in range(i + 1, n):
            l = pl.meet(i, j)  # the join of points i and j
            assert l == _reference_join(pl, i, j)
            assert pl.incident(i, l) and pl.incident(j, l)
            # incidence is symmetric, so line_masks[i] is also the mask of the
            # lines through point i: l is the one line through i and j, and
            # the same call read on lines gives the meet of lines i and j
            assert pl.line_masks[i] & pl.line_masks[j] == 1 << l


def _reference_incidence(plane: Plane) -> np.ndarray:
    """Dense n x n incidence (rows lines, columns points): dot products of triples."""
    gf = plane.gf
    pts = np.array(plane.coords, dtype=np.int64)
    if gf.h == 1:
        return (pts @ pts.T) % gf.p == 0
    mul = np.array([[gf.mul(a, b) for b in range(gf.q)] for a in range(gf.q)], dtype=np.int64)
    add = np.array([[gf.add(a, b) for b in range(gf.q)] for a in range(gf.q)], dtype=np.int64)
    t = mul[pts[:, None, 0], pts[None, :, 0]]
    t = add[t, mul[pts[:, None, 1], pts[None, :, 1]]]
    return add[t, mul[pts[:, None, 2], pts[None, :, 2]]] == 0


def _reference_fields():
    """The default field of every prime power q <= 49, and every monic
    irreducible modulus at q = 9, 25 and 27."""
    return [gf.spec for gf in plane_fields() if gf.q <= 49]


@pytest.mark.parametrize("spec", _reference_fields(), ids=lambda s: f"{s.q}-{list(s.modulus)}")
def test_tables_match_dense_reference(spec):
    pl = Plane(field_new(spec.p, spec.h, spec.modulus))
    inc = _reference_incidence(pl)
    assert pl.line_masks == [sum(1 << p for p in np.flatnonzero(inc[l]).tolist()) for l in range(pl.n)]
    # self-duality: the lines through point p are the points on line p
    assert pl.line_masks == [sum(1 << l for l in np.flatnonzero(inc[:, p]).tolist()) for p in range(pl.n)]
    # every pair up to q = 16, then every point against 40 seeded lines
    lines = range(pl.n) if pl.q <= 16 else random.Random(pl.n).sample(range(pl.n), 40)
    for l in lines:
        assert [pl.incident(p, l) for p in range(pl.n)] == inc[l].tolist()
    rng = random.Random(pl.n)
    for _ in range(5):
        members = rng.sample(range(pl.n), rng.randrange(pl.n + 1))
        assert PointSet(pl, members).per_line == bytes(inc[:, members].sum(axis=1).tolist())


def test_plane_outputs_match_the_pinned_digest():
    """Every line mask at every order up to 64, and at every modulus of GF(9),
    GF(25) and GF(27), hashes as pinned (`output_manifest.plane_outputs`)."""
    for name, value in plane_outputs().items():
        assert canonical_sha256(value) == PINNED[name], name


def test_core_runs_without_numpy():
    """The whole package runs with numpy blocked: every pg2q module imports,
    the field, plane, conic and tangency layers answer at q = 49, the quick
    suite passes, the dual-codeword, peel and verify commands run through
    `cli.dispatch`, and `PGLGroup.elements()` builds the int32 table of
    PGL(3,4).  numpy is needed only by the tests and the benchmark."""
    script = (
        "import contextlib, importlib, io, json, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import pg2q\n"
        "for m in pkgutil.iter_modules(pg2q.__path__):\n"
        "    importlib.import_module('pg2q.' + m.name)\n"
        "from pg2q.conic import interior_point_indices\n"
        "pl = pg2q.plane_for_order(49)\n"
        "interior = interior_point_indices(pg2q.canonical_conic(pl))\n"
        "assert len(interior) == 49 * 48 // 2\n"
        "assert pg2q.is_tangent_free(pg2q.PointSet(pl, interior))\n"
        "from pg2q.suite import run_suite\n"
        "summary, ok = run_suite('quick', note=lambda msg: None)\n"
        "assert ok, summary\n"
        "from pg2q import cli\n"
        "from pg2q.constructions import trivial\n"
        "reports = {}\n"
        "for cmd in ('dual-codeword', 'peel', 'verify'):\n"
        "    sys.stdin, out = io.StringIO(trivial(5).dump()), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.dispatch([cmd, '--set', '-']) == 0, cmd\n"
        "    reports[cmd] = json.loads(out.getvalue())['results']\n"
        "assert reports['dual-codeword']['weight'] == 10\n"
        "assert reports['peel']['residual_size'] == 10\n"
        "assert reports['verify']['verdict'] == 'VALID'\n"
        "from pg2q.search import PGLGroup\n"
        "table = PGLGroup(pg2q.plane_for_order(4)).elements()\n"
        "assert table.shape == (60480, 21) and table.nbytes == 60480 * 21 * 4, (table.shape, table.nbytes)\n"
        "assert sys.modules['numpy'] is None\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    r = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_package_has_no_assert_statements():
    """Every check in the package raises AssertionError explicitly, so none
    of them vanishes under python -O, which strips assert statements."""
    src = Path(__file__).resolve().parent.parent / "src" / "pg2q"
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_builds_no_point_set_from_mask_bits():
    """A set held as a mask becomes a PointSet by PointSet.from_mask, not by a
    round trip through its list of indices, PointSet(plane, mask_bits(m))."""
    src = Path(__file__).resolve().parent.parent / "src" / "pg2q"

    def name(f):
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)

    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and name(node.func) == "PointSet"
             and any(isinstance(a, ast.Call) and name(a.func) == "mask_bits" for a in node.args)]
    assert found == []


def test_counts_examples():
    assert plane_for_order(5).n == 31
    assert plane_for_order(3).n == 13
    assert plane_for_order(7).n == 57


def test_double_count():
    pl = plane_for_order(5)
    assert sum(lm.bit_count() for lm in pl.line_masks) == 31 * 6


def test_join_meet_examples():
    pl = plane_for_order(5)
    l = pl.meet(pl.index_of((1, 0, 0)), pl.index_of((0, 1, 0)))
    assert pl.coords[l] == (0, 0, 1)
    l2 = pl.meet(pl.index_of((1, 0, 3)), pl.index_of((0, 1, 0)))
    assert pl.coords[l2] == (1, 0, 3)
    p = pl.meet(pl.index_of((0, 0, 1)), pl.index_of((0, 1, 0)))
    assert pl.coords[p] == (1, 0, 0)
    with pytest.raises(IdenticalLines):
        pl.meet(4, 4)


def test_enumeration_order():
    pl = plane_for_order(3)
    assert pl.coords[0] == (1, 0, 0)
    assert pl.coords[1] == (1, 0, 1)
    assert pl.coords[3] == (1, 1, 0)
    assert pl.coords[9] == (0, 1, 0)
    assert pl.coords[12] == (0, 0, 1)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_normalize_scale_invariant(data):
    q = data.draw(st.sampled_from([3, 5, 9]))
    pl = plane_for_order(q)
    v = data.draw(st.tuples(*[st.integers(0, q - 1)] * 3).filter(lambda t: any(t)))
    lam = data.draw(st.integers(1, q - 1))
    scaled = tuple(pl.gf.mul(lam, c) for c in v)
    assert pl.normalize(v) == pl.normalize(scaled)
    assert pl.normalize(pl.normalize(v)) == pl.normalize(v)


def test_pointset_json_roundtrip_and_normalization():
    pl = plane_for_order(5)
    ps = PointSet(pl, [0, 5, 17])
    text = ps.dump()
    again = PointSet.from_json(json.loads(text))
    assert again.sorted_tuple() == ps.sorted_tuple()
    # unnormalized input coordinates are normalized on load
    obj = json.loads(text)
    obj["points"] = [[pl.gf.mul(2, c) for c in pt] for pt in obj["points"]]
    assert PointSet.from_json(obj).sorted_tuple() == ps.sorted_tuple()
    # a prime field reads any integer coordinate mod p
    obj["points"] = [[0, 2, -1]]
    assert PointSet.from_json(obj).sorted_tuple() == (pl.index_of((0, 1, 2)),)


def test_pointset_from_json_refuses_the_zero_vector():
    """A zero coordinate triple, also one zero only mod p, raises the
    ValueError of `normalize`, not an IndexError."""
    spec = {"p": 3, "h": 1, "modulus": [0, 1]}
    for point in ([0, 0, 0], [0, 0, 3], [3, -3, 6]):
        with pytest.raises(ValueError, match="zero vector"):
            PointSet.from_json({"field": spec, "points": [[1, 0, 0], point]})


def test_pointset_rejects_indices_off_the_plane():
    pl = plane_for_order(3)
    for bad in ([13], [0, -1]):
        with pytest.raises(IndexError):
            PointSet(pl, bad)
    ps = PointSet(pl, [12, 0, 12])
    assert ps.sorted_tuple() == (0, 12)
    # membership answers False off the plane, on either side of it
    assert 0 in ps and 12 in ps and 1 not in ps
    for off in (-1, -13, pl.n, pl.n + 1, 1 << 80, -(1 << 80)):
        assert off not in ps
        assert off not in PointSet(pl, range(pl.n))


@pytest.mark.parametrize("spec", [s for s in _reference_fields() if s.q <= 16], ids=lambda s: f"{s.q}-{list(s.modulus)}")
def test_pointset_is_its_mask(spec):
    """A PointSet keeps the plane and the mask, and once read, per_line as
    bytes; nothing else.  from_mask builds the same set as the indices do."""
    pl = plane_for(spec.p, spec.h, spec.modulus)
    ps = PointSet(pl, [0, 3, 5])
    assert set(vars(ps)) == {"plane", "mask"}
    assert len(ps.per_line) == pl.n
    assert set(vars(ps)) == {"plane", "mask", "per_line"} and type(ps.per_line) is bytes
    rng = random.Random(pl.n)
    for m in [0, (1 << pl.n) - 1] + [rng.getrandbits(pl.n) for _ in range(6)]:
        a, b = PointSet.from_mask(pl, m), PointSet(pl, mask_bits(m))
        assert set(vars(a)) == {"plane", "mask"}
        assert a.sorted_tuple() == b.sorted_tuple() == tuple(mask_bits(m))
        assert a.per_line == b.per_line and a.to_json() == b.to_json()
        assert len(a) == m.bit_count() and a.members == frozenset(mask_bits(m))
    for bad in (-1, 1 << pl.n):
        with pytest.raises(IndexError):
            PointSet.from_mask(pl, bad)


def test_pointset_equality_hash_and_subset():
    """Two PointSets are equal when they hold the same points of the same
    plane, a plane built anew over the same field included, and hash by
    their mask; <= is the subset order, also against any collection of
    indices.  Sets of GF(9) over two moduli differ even with one mask."""
    pl = plane_for_order(5)
    a, b = PointSet(pl, [1, 4, 9]), PointSet.from_mask(pl, 1 << 1 | 1 << 4 | 1 << 9)
    assert a == b and hash(a) == hash(b) == hash(a.mask) and len({a, b}) == 1
    assert a != PointSet(pl, [1, 4]) and a != a.members and a != [1, 4, 9] and a != a.mask
    assert a == PointSet(Plane(pl.gf), [1, 4, 9])
    big = PointSet(pl, [1, 4, 9, 30])
    assert a <= b and a <= big and not big <= a and PointSet(pl) <= a
    assert a <= {1, 4, 9} and a <= [9, 4, 1, 0] and a <= range(10) and not a <= (1, 4)
    assert not big <= set(range(30)) and big <= big.members
    p1, p2 = plane_for(3, 2, (1, 0, 1)), plane_for(3, 2, (2, 1, 1))
    s1, s2 = PointSet(p1, [0, 5, 7]), PointSet(p2, [0, 5, 7])
    assert s1.mask == s2.mask and s1 != s2 and hash(s1) == hash(s2) and len({s1, s2}) == 2
    assert s1 == PointSet(plane_for(3, 2, (1, 0, 1)), [7, 5, 0])
    with pytest.raises(TypeError):
        s1 <= s2


@pytest.mark.parametrize("spec", _reference_fields(), ids=lambda s: f"{s.q}-{list(s.modulus)}")
def test_plane_keeps_one_incidence_table(spec):
    """A Plane stores its field, order, size, coordinates, their index and
    line_masks, its one incidence table; the Singer cycle joins them once read."""
    pl = Plane(field_new(spec.p, spec.h, spec.modulus))
    keys = {"gf", "q", "n", "coords", "_index", "line_masks"}
    assert set(vars(pl)) == keys
    assert pl.singer.n == pl.n
    assert set(vars(pl)) == keys | {"singer"}


@pytest.mark.parametrize("q", [5, 9])
def test_index_outside_the_plane_raises(q):
    """A point or line index outside [0, n) is refused, never wrapped: -1 and
    -n would otherwise read line n - 1 and line 0, and n, n + 1 none.  The
    message names the kind of index refused."""
    pl = plane_for_order(q)
    n = pl.n
    conic = canonical_conic(pl)
    calls = [
        ("line", lambda i: pl.meet(i, 0)), ("line", lambda i: pl.meet(0, i)),
        ("line", lambda i: pl.incident(0, i)), ("point", lambda i: pl.incident(i, 0)),
        ("line", lambda i: determined_directions(PointSet(pl, [0]), i)),
        ("line", lambda i: exterior_points_on_line(conic, i)),
        ("point", lambda i: punctured_interior(conic, i, 0)),
        ("line", conic.classify_line), ("point", conic.classify_point),
        ("point", conic.external_joins),
        ("point", lambda i: pl.apply_matrix((1, 0, 0, 0, 1, 0, 0, 0, 1), i)),
        ("line", lambda i: find_extenders(conic, i)),
        ("line", lambda i: redei_completion(PointSet(pl, [0]), i)),
        ("line", lambda i: redei_converse_check(PointSet(pl, [0]), i)),
        ("line", lambda i: one_mod_p_check(PointSet(pl, [0]), i)),
    ]
    for bad in (-1, -n, n, n + 1):
        for kind, call in calls:
            with pytest.raises(IndexError, match=rf"^{kind} indices must lie in \[0, {n}\)$"):
                call(bad)


# the parameter names that hold a point or a line index in src/pg2q, by kind
INDEX_KINDS = {"p": "point", "exterior_point": "point", "l": "line", "m": "line", "line": "line", "linf": "line"}
# public parameters with one of those names that hold no index: the
# characteristic p, a 3x3 matrix m and a largest line count m
NOT_INDICES = {("order_exceeds", "p"), ("field_new", "p"), ("plane_for", "p"), ("secant_bound_check", "p"),
               ("mat_vec", "m"), ("det3", "m"), ("mat_inverse", "m"),
               ("spectrum_feasible", "m")}


def _public_parameters():
    """(function or method name, its parameters) for every public top-level
    function and every public method of a public class in src/pg2q, without
    self or cls."""
    out = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "pg2q").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defs = [(node, False)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs = [(item, True) for item in node.body if isinstance(item, ast.FunctionDef)]
            for fn, method in defs:
                if not fn.name.startswith("_"):
                    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                    out.append((fn.name, [a.arg for a in (args[1:] if method else args)]))
    return out


def _index_calls_checked(params):
    """{(function name, parameter): kind} for each call of
    `test_index_outside_the_plane_raises` that passes the bad index: a
    lambda passes it as the argument named by its own parameter, and a bare
    function or method takes it as its first parameter."""
    tree = ast.parse(Path(__file__).read_text())
    test = next(n for n in tree.body if getattr(n, "name", "") == "test_index_outside_the_plane_raises")
    calls = next(n.value for n in test.body if isinstance(n, ast.Assign) and n.targets[0].id == "calls")
    out = {}
    for kind, call in (item.elts for item in calls.elts):
        if isinstance(call, ast.Lambda):
            bad = call.args.args[0].arg
            for node in ast.walk(call.body):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    for k, arg in enumerate(node.args):
                        if isinstance(arg, ast.Name) and arg.id == bad:
                            out[name, params[name][k]] = kind.value
        else:
            out[call.attr, params[call.attr][0]] = kind.value
    return out


def test_every_index_parameter_is_checked_outside_the_plane():
    """Every public function or method of src/pg2q with a point or line
    index parameter, found by its name, is called with -1, -n, n and n + 1
    for that parameter in `test_index_outside_the_plane_raises`, and must
    name the right kind; a new entry point is either checked there or
    listed in NOT_INDICES with the reason its name holds no index."""
    public = _public_parameters()
    found = {(f, a): INDEX_KINDS[a] for f, args in public for a in args if a in INDEX_KINDS}
    assert NOT_INDICES <= set(found)
    for pair in NOT_INDICES:
        del found[pair]
    assert _index_calls_checked(dict(public)) == found


def test_byte_tables_map_a_mask_byte_by_byte():
    """With images (p,) a mask maps to its indices in ascending order, and
    with images 1 << g(p) to the mask of its image under g, for every length
    from 1 to 20 bits: one to three chunks, the last one partial or full."""
    rng = random.Random(0)
    for n in range(1, 21):
        points = byte_tables([(p,) for p in range(n)], ())
        g = rng.sample(range(n), n)
        move = byte_tables([1 << g[p] for p in range(n)])
        assert len(points) == len(move) == (n + 7) // 8
        for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            assert by_bytes(points, mask, ()) == tuple(mask_bits(mask))
            assert by_bytes(move, mask) == sum(1 << g[p] for p in mask_bits(mask))


def test_plane_for_shares_the_default_plane():
    assert plane_for(3, 2, (1, 0, 1)) is plane_for_order(9)
    assert plane_for(3, 2, (4, 3, 1)) is plane_for_order(9)


def _singer_fields():
    """The default field of every prime power q <= 64, GF(9) over t^2 + t + 2
    and GF(25) over t^2 + 2t + 3."""
    specs = [field_for_order(q).spec for q in range(2, 65) if len(prime_factors(q)) == 1]
    return specs + [field_new(3, 2, (2, 1, 1)).spec, field_new(5, 2, (3, 2, 1)).spec]


@pytest.mark.parametrize("spec", _singer_fields(), ids=lambda s: f"{s.q}-{list(s.modulus)}")
def test_singer_cycle(spec):
    pl = plane_for(spec.p, spec.h, spec.modulus)
    sc, n = pl.singer, pl.n
    assert sorted(sc.point_of) == list(range(n))
    assert all(sc.slot[p] == k for k, p in enumerate(sc.point_of))
    diffs = sc.difference_set
    assert sorted((a - b) % n for a in diffs for b in diffs if a != b) == list(range(1, n))
    # the translates D + j are the lines; line_of[j] is the index of D + j
    index = {frozenset(mask_bits(lm)): l for l, lm in enumerate(pl.line_masks)}
    line_of = [index[frozenset(sc.point_of[(d + j) % n] for d in diffs)] for j in range(n)]
    assert sorted(line_of) == list(range(n))
    rng = random.Random(n)
    samples = [rng.sample(range(n), rng.randrange(n + 1)) for _ in range(4)]
    samples += [rng.sample(range(n), 3), [], list(range(n))]
    for members in samples:
        s = sc.slot_mask(members)
        per_line = PointSet(pl, members).per_line
        singles = sc.singleton_lines(s)
        assert [singles >> j & 1 for j in range(n)] == [int(per_line[line_of[j]] == 1) for j in range(n)]
        assert sc.point_mask(s) == mask_of(members)
    # through one line j is the slot mask of the line line_of[j]
    for j in range(n):
        assert sc.through(1 << j) == mask_of(sc.slot[p] for p in mask_bits(pl.line_masks[line_of[j]]))
    # through is the union of the chosen translates
    chosen = [j for j in range(n) if rng.randrange(2)]
    assert sc.through(mask_of(chosen)) == mask_of((j + d) % n for j in chosen for d in diffs)
    assert sc.slot_mask([5, 5, 0]) == sc.slot_mask([0, 5])
    for bad in ([0, n], [-1], [-n], [2 * n - 1], [-2 * n]):
        with pytest.raises(IndexError, match=rf"^point indices must lie in \[0, {n}\)$"):
            sc.slot_mask(bad)
