import random
import tracemalloc
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from pg2q import codes
from pg2q.codes import (
    NotCodeword,
    batch_peel_fixpoint,
    hyperoval,
    incidence_code,
    peel_decode,
    stopping_equivalence_check,
    trivial_signing,
)
from pg2q.constructions import all_certificates, frobenius_graph, interior_points, punctured_interior, trivial
from pg2q.conic import canonical_conic
from pg2q.gfq import field_for_order
from pg2q.linalg import nullspace, random_invertible
from pg2q.plane import PointSet, mask_bits, plane_for, plane_for_order
from pg2q.tangency import is_tangent_free

from output_manifest import PINNED, canonical_sha256, peel_outputs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_incidence_weights(q):
    code = incidence_code(q)
    pl, gf, p = code.plane, code.plane.gf, code.p

    def dot(u, v):
        return gf.add(gf.add(gf.mul(u[0], v[0]), gf.mul(u[1], v[1])), gf.mul(u[2], v[2]))

    # dense reference: rows lines, columns points, built from the coordinates
    a_ref = np.array([[dot(l, pt) == 0 for pt in pl.coords] for l in pl.coords], dtype=np.int64)
    assert (a_ref.sum(axis=0) == q + 1).all()
    assert (a_ref.sum(axis=1) == q + 1).all()
    rng = random.Random(q)
    known = [trivial_signing(q), np.zeros(pl.n, dtype=np.int64)] + code.random_dual_codewords(20, rng)
    if q % 2 == 0:
        oval = hyperoval(q).members
        known.append(np.array([int(i in oval) for i in range(pl.n)]))
    # a codeword plus a unit vector fails exactly the q+1 lines through that point
    bumped = [known[0] + np.eye(pl.n, dtype=np.int64)[i] for i in range(pl.n)]
    noise = [np.array([rng.randrange(p) for _ in range(pl.n)]) for _ in range(20)]
    assert all(code.is_dual_codeword(v) for v in known)
    for v in known + bumped + noise:
        assert code.is_dual_codeword(v) == bool(np.all(a_ref @ v % p == 0))


def test_codewords_are_tuples_of_ints():
    code = incidence_code(5)
    v, _, _ = code.dual_codeword_on_support(trivial(5).members)
    vectors = [trivial_signing(5), v] + code.nullspace_basis() + code.random_dual_codewords(5, random.Random(5))
    assert all(type(w) is tuple and len(w) == 31 and all(type(x) is int for x in w) for w in vectors)


def test_codeword_input_formats():
    """A tuple, a list and an ndarray of the same vector get the same answers."""
    code = incidence_code(5)
    v = trivial_signing(5)
    signed = tuple(x - 5 if x == 4 else x for x in v)  # -1 for 4: the same residues
    bumped = ((v[0] + 1) % 5,) + v[1:]
    for w, is_codeword in ((v, True), (signed, True), (bumped, False)):
        answers = {(code.is_dual_codeword(form(w)), code.support(form(w)))
                   for form in (tuple, list, lambda x: np.array(x, dtype=np.int64))}
        assert answers == {(is_codeword, frozenset(i for i, x in enumerate(w) if x % 5))}


@pytest.mark.parametrize("length", [0, 30, 32])
@pytest.mark.parametrize("form", [tuple, list, np.array])
def test_codeword_of_wrong_length_raises(form, length):
    code = incidence_code(5)
    v = form([1] * length)
    with pytest.raises(ValueError, match="length must be 31"):
        code.is_dual_codeword(v)
    with pytest.raises(ValueError, match="length must be 31"):
        code.support(v)


def test_trivial_signing_q5():
    code = incidence_code(5)
    v = trivial_signing(5)
    assert code.is_dual_codeword(v)
    assert len(code.support(v)) == 10
    assert code.support_tangency(v)


def test_zero_vector_is_codeword():
    code = incidence_code(5)
    assert code.is_dual_codeword(np.zeros(31, dtype=int))


def test_hyperoval_q4_weight6():
    code = incidence_code(4)
    h = hyperoval(4)
    v = np.zeros(21, dtype=int)
    v[list(h.members)] = 1
    assert code.is_dual_codeword(v)
    assert len(code.support(v)) == 6 == 4 + 2


def test_not_codeword_guard():
    code = incidence_code(5)
    v = np.zeros(31, dtype=int)
    v[3] = 1
    assert not code.is_dual_codeword(v)
    with pytest.raises(NotCodeword):
        code.support_tangency(v)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_nullspace_sampling_supports_tangent_free(q):
    code = incidence_code(q)
    rng = random.Random(q)
    for v in code.random_dual_codewords(100, rng):
        assert code.is_dual_codeword(v)
        if any(v):
            assert code.support_tangency(v)


def test_dual_codeword_on_support_trivial():
    code = incidence_code(5)
    v, exact, nodes = code.dual_codeword_on_support(trivial(5).members)
    assert exact and v is not None and nodes > 0
    assert len(code.support(v)) == 10


def test_dual_codeword_on_support_checks_its_input():
    """A repeated index counts once; an index off the plane raises IndexError
    (the point 31 of PG(2,5) used to read as a column of zeros, which gave the
    zero vector as a codeword on {31})."""
    code = incidence_code(5)
    s = sorted(trivial(5).members)
    assert code.dual_codeword_on_support(s + s[:4]) == code.dual_codeword_on_support(s)
    assert code.dual_codeword_on_support([0, 0]) == code.dual_codeword_on_support([0]) == (None, True, 0)
    for bad in ([31], [-1, 3], s + [31]):
        with pytest.raises(IndexError):
            code.dual_codeword_on_support(bad)


def test_dual_codeword_on_support_frobenius_completion():
    code = incidence_code(9)
    s = frobenius_graph(9)
    v, exact, _ = code.dual_codeword_on_support(s.members)
    assert exact and v is not None
    assert code.support(v) == frozenset(s.members)


FULL_SCAN_CAP = 10**7  # the old search scanned p**dim vectors at most


def reference_codeword_on_support(code, members):
    """The search as it was before it skipped zero coefficients: the full
    product(range(p)) scan, as (vector or None, True).  None past
    FULL_SCAN_CAP, where the old search drew at random instead."""
    cols = sorted(members)
    if not cols:
        return None, True
    basis = nullspace(code._rows(cols), field_for_order(code.p), ncols=len(cols))
    if not basis:
        return None, True
    if code.p ** len(basis) > FULL_SCAN_CAP:
        return None
    for coeffs in product(range(code.p), repeat=len(basis)):
        w = code._combination(coeffs, basis, len(cols))
        if any(coeffs) and all(w):
            entry = dict(zip(cols, w))
            return tuple(entry.get(i, 0) for i in range(code.plane.n)), True
    return None, True


def checked_search(code, members):
    """The search's (vector, exact), checked: a vector is a codeword with
    exactly that support, and both equal the full scan's wherever the scan
    reaches.  Also returns whether it reached."""
    v, exact, _ = code.dual_codeword_on_support(members)
    if v is not None:
        assert code.is_dual_codeword(v) and code.support(v) == frozenset(members)
    want = reference_codeword_on_support(code, members)
    if want is not None:
        assert (v, exact) == want
    return v, exact, want is not None


def _images(plane, members, count, rng):
    return [frozenset(plane.apply_matrix(m, p) for p in members)
            for m in (random_invertible(plane.gf, rng) for _ in range(count))]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_dual_codeword_search_matches_the_full_scan(q):
    """Every construction, two projective images of each and random subsets
    get the vector and flag of the old scan."""
    plane = plane_for_order(q)
    code = incidence_code(plane)
    rng = random.Random(q)
    sets = []
    for c in all_certificates(q):
        sets += [c.points.members] + _images(plane, c.points.members, 2, rng)
    sets += [rng.sample(range(plane.n), rng.randrange(1, plane.n // 2)) for _ in range(6)]
    assert all([checked_search(code, s)[2] for s in sets])


@pytest.mark.parametrize("q,subsets,codewords", [(3, 20, 5), (4, 20, 5), (7, 0, 3), (8, 0, 3)])
def test_dual_codeword_search_matches_on_random_supports(q, subsets, codewords):
    """Random subsets of any size, and supports of random codewords, which are
    found exactly: at q = 7 they lie past the old scan's reach, where the old
    search drew at random and said `exact: false`.  (Larger supports at q = 5,
    8 and 9 leave the old scan millions of vectors.)"""
    plane = plane_for_order(q)
    code = incidence_code(plane)
    rng = random.Random(100 + q)
    for s in [rng.sample(range(plane.n), rng.randrange(1, plane.n + 1)) for _ in range(subsets)]:
        checked_search(code, s)
    for v in code.random_dual_codewords(codewords, rng):
        found, exact, _ = checked_search(code, code.support(v))
        assert exact and found is not None


def test_dual_codeword_search_matches_on_images_over_every_gf9_modulus():
    rng = random.Random(9)
    for modulus in [(1, 0, 1), (2, 1, 1), (2, 2, 1)]:
        plane = plane_for(3, 2, modulus)
        code = incidence_code(plane)
        interior = interior_points(canonical_conic(plane)).members
        for s in [interior] + _images(plane, interior, 2, rng):
            v, exact, reached = checked_search(code, s)
            assert reached and exact and v is not None


@pytest.mark.parametrize("q,count", [(9, 4), (16, 3)])
def test_dual_codeword_found_on_large_random_supports(q, count):
    """Supports of random codewords whose nullspaces lie far past the old full
    scan are found, with exactly that support.  The old random draws missed
    three of the four at q = 9 and all three at q = 16."""
    code = incidence_code(q)
    for v in code.random_dual_codewords(count, random.Random(q)):
        s = code.support(v)
        w, exact, nodes = code.dual_codeword_on_support(s)
        assert exact and w is not None and 0 < nodes
        assert code.is_dual_codeword(w) and code.support(w) == s


def _walk_from_first_coefficient_one(code, members):
    """Test-local refutation over GF(3): every combination of the nullspace
    basis with first coefficient 1 and the rest in {1, 2}, in Gray-code order
    (one coefficient flips per step).  Returns (any with full support, count)."""
    cols = sorted(members)
    basis = nullspace(code._rows(cols), field_for_order(3), ncols=len(cols))
    coeffs = [1] * len(basis)
    w = [sum(col) % 3 for col in zip(*basis)]
    hit, count = all(w), 1
    for k in range(1, 2 ** (len(basis) - 1)):
        j = (k & -k).bit_length()  # 1 + the trailing zeros of k
        sign = 1 if coeffs[j] == 1 else -1
        coeffs[j] = 3 - coeffs[j]
        w = [(x + sign * y) % 3 for x, y in zip(w, basis[j])]
        hit, count = hit or all(w), count + 1
    return hit, count


def test_dual_codeword_refutations_confirmed_by_a_full_walk():
    """Two q = 9 codeword supports with one point moved, nullspace dimension
    15 to 17 (past the old full scan): the search refutes them exactly, and
    a walk of all 2^(dim-1) vectors with first coefficient 1 agrees."""
    code = incidence_code(9)
    rng = random.Random(2024)
    refuted = []
    for v in code.random_dual_codewords(40, rng):
        s = set(code.support(v))
        if rng.random() < 0.5:
            s.discard(rng.choice(sorted(s)))
        else:
            s.add(rng.choice(sorted(set(range(91)) - s)))
        dim = len(nullspace(code._rows(sorted(s)), field_for_order(3), ncols=len(s)))
        if 15 <= dim <= 17:
            w, exact, nodes = code.dual_codeword_on_support(s)
            if w is None and exact:
                refuted.append((s, dim, nodes))
        if len(refuted) == 2:
            break
    assert len(refuted) >= 2
    for s, dim, nodes in refuted:
        assert 0 < nodes < 2**dim
        assert _walk_from_first_coefficient_one(code, s) == (False, 2 ** (dim - 1))


def test_dual_codeword_budget(monkeypatch):
    """`exact` turns False exactly when the search needs more values than
    NODE_BUDGET: on a find, a refutation, and a find in one value (whose
    budget of 0 tries nothing)."""
    code9 = incidence_code(9)
    found_on = code9.support(code9.random_dual_codewords(1, random.Random(9))[0])
    con = canonical_conic(plane_for_order(9))
    refuted_on = punctured_interior(con, mask_bits(con.exterior)[0], 2).members
    for code, s in [(code9, found_on), (code9, refuted_on), (incidence_code(5), trivial(5).members)]:
        v, exact, nodes = code.dual_codeword_on_support(s)
        assert exact
        monkeypatch.setattr(codes, "NODE_BUDGET", nodes)
        assert code.dual_codeword_on_support(s) == (v, True, nodes)
        monkeypatch.setattr(codes, "NODE_BUDGET", nodes - 1)
        assert code.dual_codeword_on_support(s) == (None, False, nodes - 1)
        monkeypatch.undo()


def test_dual_codeword_negative_controls():
    code = incidence_code(5)
    pl = plane_for_order(5)
    # a full line: its own sum is q+1 = 1 mod p, so only the zero vector fits
    v, exact, _ = code.dual_codeword_on_support(mask_bits(pl.line_masks[0]))
    assert v is None and exact
    # a tangent-free set that is NOT a codeword support
    s = interior_points(canonical_conic(pl))
    assert is_tangent_free(s)
    v2, exact2, _ = code.dual_codeword_on_support(s.members)
    assert v2 is None and exact2


def test_min_weight_q5_via_u5():
    """Supports are tangent-free, u_5 = 10, and weight 10 is achieved: the
    dual code of the plane of order 5 has minimum weight exactly 2p = 10."""
    from pg2q.search import min_tangent_free

    code = incidence_code(5)
    assert min_tangent_free(5, 12, workers=1).u == 10
    assert code.is_dual_codeword(trivial_signing(5))
    # no codeword of weight 1..9 can exist: its support would be a smaller
    # non-empty tangent-free set


def test_peel_single_point():
    assert peel_decode(5, [7]) == PointSet(plane_for_order(5))


def test_peel_tangent_free_is_fixpoint():
    s = interior_points(canonical_conic(plane_for_order(5)))
    assert peel_decode(5, s.members) == s


def test_peel_extra_point_removed():
    s = interior_points(canonical_conic(plane_for_order(5)))
    extra = next(p for p in range(31) if p not in s.members)
    assert peel_decode(5, set(s.members) | {extra}) == s


def test_peel_answers_are_point_sets():
    """Both peelers answer with a PointSet of the plane, on a set that peels
    (an extra point on a tangent) and on a tangent-free set that does not
    peel, given as indices or as a PointSet."""
    s = interior_points(canonical_conic(plane_for_order(5)))
    extra = next(p for p in range(31) if p not in s.members)
    for erased in (s, s.members, list(s.members) + [extra]):
        for peel in (peel_decode, batch_peel_fixpoint):
            got = peel(5, erased)
            assert type(got) is PointSet and got.plane is s.plane and got == s


def test_peel_answers_hold_their_mask_only():
    """400 peel answers at q = 31, on erasures of every density, retain
    under 1 MiB: each holds the plane and one int mask.  As frozensets of
    indices the same answers retained about 9 MiB."""
    pl = plane_for_order(31)
    rng = random.Random(4401)
    cases = [rng.sample(range(pl.n), rng.randrange(1, pl.n + 1)) for _ in range(400)]
    peel_decode(pl, cases[0])  # the Singer cycle is built before tracing
    tracemalloc.start()
    try:
        answers = [peel_decode(pl, e) for e in cases]
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, answers)) > 0
    assert retained < 1 << 20


def test_peel_outputs_match_the_pinned_digest():
    """Both peelers' answers at q = 3, 4, 5, 9, 31 and over GF(9) with a
    second modulus, on sets that peel and sets that do not, hash as pinned
    (`output_manifest.peel_outputs`)."""
    for name, value in peel_outputs().items():
        assert canonical_sha256(value) == PINNED[name], name


def test_peel_confluence_and_oracle():
    """The Singer-cycle answer is that of the line-mask batch oracle and of
    one-point-at-a-time peeling in 10 random orders."""
    rng = random.Random(123)
    for q in (3, 4, 5):
        pl = plane_for_order(q)
        for _ in range(30):
            erased = rng.sample(range(pl.n), rng.randrange(1, pl.n))
            base = peel_decode(q, erased)
            assert base == PointSet(pl, _reference_batch_peel(pl, erased))
            for _ in range(10):
                assert PointSet(pl, _reference_peel_decode(pl, erased, rng=random.Random(rng.random()))) == base


def _reference_peel_decode(plane, erased, rng=None):
    """The line-mask peeling decoder that the Singer-cycle one replaced."""
    erased = set(erased)
    counts = list(PointSet(plane, erased).per_line)
    changed = True
    while changed:
        changed = False
        lines = [l for l, c in enumerate(counts) if c == 1]
        if rng is not None:
            rng.shuffle(lines)
        for l in lines:
            if counts[l] != 1:
                continue
            victim = next(pt for pt in mask_bits(plane.line_masks[l]) if pt in erased)
            erased.remove(victim)
            for m in mask_bits(plane.line_masks[victim]):
                counts[m] -= 1
            changed = True
    return frozenset(erased)


def _reference_batch_peel(plane, erased):
    """The line-mask batch oracle that the Singer-cycle one replaced."""
    cur = set(erased)
    while True:
        mask = sum(1 << p for p in cur)
        doomed = set()
        for lm in plane.line_masks:
            inter = lm & mask
            if inter and inter & (inter - 1) == 0:
                doomed.add(inter.bit_length() - 1)
        if not doomed:
            return frozenset(cur)
        cur -= doomed


@pytest.mark.parametrize("q,modulus", [(q, None) for q in (2, 3, 4, 5, 7, 8, 9, 16, 17, 31)]
                         + [(9, (2, 1, 1)), (49, None), (64, None)])
def test_peel_matches_line_mask_reference(q, modulus):
    """Both peel functions give the answers of the line-mask code, on erasures
    of every density, near-stopping sets, repeated indices, [] and the plane."""
    pl = plane_for_order(q) if modulus is None else plane_for(3, 2, modulus)
    n, rng = pl.n, random.Random(pl.n)
    stopping = list(trivial(q).members) if modulus is None else []
    cases = [[], list(range(n)), [0, 0, 1, 1, n - 1, n - 1, 5 % n]]
    cases += [rng.sample(range(n), rng.randrange(n + 1)) for _ in range(30)]
    cases += [stopping + rng.sample(range(n), 3) for _ in range(5 if stopping else 0)]
    cases += [e + e[: len(e) // 2] for e in cases[3:8]]  # repeated indices
    for erased in cases:
        want = _reference_peel_decode(pl, erased)
        assert _reference_batch_peel(pl, erased) == want
        assert peel_decode(pl, erased) == PointSet(pl, want)
        assert batch_peel_fixpoint(pl, erased) == PointSet(pl, want)
        assert _reference_peel_decode(pl, erased, rng=random.Random(rng.random())) == want
    for bad in ([0, 1, n], [-1, 3]):
        with pytest.raises(IndexError):
            peel_decode(pl, bad)
        with pytest.raises(IndexError):
            batch_peel_fixpoint(pl, bad)


def test_peel_residual_is_maximal_stopping_subset():
    """The residual contains every tangent-free subset of the erasures."""
    rng = random.Random(5)
    pl = plane_for_order(3)
    for _ in range(200):
        erased = set(rng.sample(range(13), rng.randrange(6, 13)))
        residual = peel_decode(3, erased)
        if residual:
            assert is_tangent_free(residual)
        for sub in combinations(sorted(erased), 6):
            if is_tangent_free(PointSet(pl, sub)):
                assert set(sub) <= residual.members


def test_stopping_equivalence():
    assert stopping_equivalence_check(3).ok  # exhaustive over 6-subsets
    assert stopping_equivalence_check(4).ok
    assert stopping_equivalence_check(5).ok


def test_stopping_classified_sets_are_fixpoints():
    s1 = trivial(5)
    s2 = interior_points(canonical_conic(plane_for_order(5)))
    assert peel_decode(5, s1.members) == s1
    assert peel_decode(5, s2.members) == s2
    h = hyperoval(4)
    assert peel_decode(4, h.members) == h


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19])
def test_nullspace_dimension_is_hamadas(q):
    """The incidence matrix of PG(2,p^h) has p-rank C(p+1,2)^h + 1
    (MacWilliams and Mann, Inform. and Control 12 (1968)), so the dual code
    has dimension n - C(p+1,2)^h - 1."""
    code = incidence_code(q)
    p, h = code.p, code.plane.gf.h
    assert len(code.nullspace_basis()) == code.plane.n - comb(p + 1, 2) ** h - 1
