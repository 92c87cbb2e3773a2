"""Row reduction and nullspaces over prime fields, against an elimination by
GF method calls: linalg.rref works on byte rows, one byte per column, and
refuses a field with h > 1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg2q.codes import incidence_code
from pg2q.gfq import field_for_order
from pg2q.linalg import nullspace, rref

ORDERS = [2, 3, 5, 7, 13, 31, 61]


def reference_rref(rows, gf):
    """Gauss-Jordan elimination with three GF calls per entry."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = gf.inv(m[r][c])
        m[r] = [gf.mul(inv, v) for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [gf.sub(vi, gf.mul(f, vr)) for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def reference_nullspace(rows, gf, ncols):
    red, pivots = reference_rref(rows, gf) if rows else ([], [])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = gf.neg(red[ri][fc])
        basis.append(v)
    return basis


@st.composite
def matrices(draw):
    """(field, rows, ncols): up to 8 x 10, zero-heavy so that ranks vary."""
    gf = field_for_order(draw(st.sampled_from(ORDERS)))
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.integers(0, gf.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return gf, rows, ncols


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_and_nullspace_match_the_method_call_elimination(case):
    gf, rows, ncols = case
    if rows:
        assert rref(rows, gf) == reference_rref(rows, gf)
    assert nullspace(rows, gf, ncols=ncols) == reference_nullspace(rows, gf, ncols)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_basis_annihilates_the_rows_and_is_unit_on_its_free_columns(case):
    gf, rows, ncols = case
    basis = nullspace(rows, gf, ncols=ncols)
    _, pivots = rref(rows, gf) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    assert len(basis) == len(free) == ncols - len(pivots)
    for v in basis:
        for row in rows:
            acc = 0
            for a, x in zip(row, v):
                acc = gf.add(acc, gf.mul(a, x))
            assert acc == 0
    # basis vector j is 1 at free column j and 0 at every other free column,
    # so a combination's value at free column j is its j-th coefficient
    for j, v in enumerate(basis):
        assert [v[c] for c in free] == [int(k == j) for k in range(len(free))]


@pytest.mark.parametrize("q", [4, 8, 9, 25, 131])
def test_rref_and_nullspace_refuse_fields_beyond_byte_rows(q):
    """An extension field, and a prime p > 127, where a byte of a row sum
    could reach 2(p - 1) > 255."""
    gf = field_for_order(q)
    with pytest.raises(ValueError, match="prime field"):
        rref([[1, 2], [3, 1]], gf)
    with pytest.raises(ValueError, match="prime field"):
        nullspace([[1, 2], [3, 1]], gf)
    with pytest.raises(ValueError, match="prime field"):
        nullspace([], gf, ncols=2)


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_dual_code_basis_matches_the_method_call_elimination(q):
    """The n x n incidence matrix over F_p, rows read off the line masks."""
    code = incidence_code(q)
    n = code.plane.n
    rows = [[m >> c & 1 for c in range(n)] for m in code.plane.line_masks]
    want = reference_nullspace(rows, field_for_order(code.p), n)
    assert code.nullspace_basis() == [tuple(v) for v in want]
