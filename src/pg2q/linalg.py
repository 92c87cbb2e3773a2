"""Small dense linear algebra over a declared GF: row reduction, nullspaces,
and 3x3 matrix helpers for collineations.  Everything works on integer codes.
"""

from __future__ import annotations

from .gfq import GF


def rref(rows: list[list[int]], gf: GF) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Needs a tabled field (`gf.add_table` and `gf.mul_table` set: order at
    most `gfq._TABLE_LIMIT`), as every plane field and its prime subfield
    is.  A row is scaled through the multiplication-table row of the pivot's
    inverse, and another row loses f times the pivot row as
    add[v][(-f) * w], so each entry costs two list lookups, not three GF
    method calls.
    """
    add, mul = gf.add_table, gf.mul_table
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
        scale = mul[gf.inv(m[r][c])]
        row = m[r] = [scale[v] for v in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f != 0:
                negf = mul[gf.neg(f)]
                m[i] = [add[vi][negf[vr]] for vi, vr in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def nullspace(rows: list[list[int]], gf: GF, ncols: int | None = None) -> list[list[int]]:
    """Basis of the right nullspace of the given row list."""
    if ncols is None:
        ncols = len(rows[0])
    red, pivots = rref(rows, gf) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = gf.neg(red[ri][fc])
        basis.append(v)
    return basis


# -- 3x3 matrices, row-major tuples of 9 codes --------------------------------


def mat_vec(m, v, gf: GF) -> tuple[int, int, int]:
    return tuple(
        gf.add(gf.add(gf.mul(m[3 * i], v[0]), gf.mul(m[3 * i + 1], v[1])), gf.mul(m[3 * i + 2], v[2]))
        for i in range(3)
    )


def mat_mul(a, b, gf: GF) -> tuple[int, ...]:
    out = []
    for i in range(3):
        for j in range(3):
            s = 0
            for k in range(3):
                s = gf.add(s, gf.mul(a[3 * i + k], b[3 * k + j]))
            out.append(s)
    return tuple(out)


def mat_transpose(m) -> tuple[int, ...]:
    return (m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8])


def det3(m, gf: GF) -> int:
    a, b, c, d, e, f, g, h, i = m
    t1 = gf.mul(a, gf.sub(gf.mul(e, i), gf.mul(f, h)))
    t2 = gf.mul(b, gf.sub(gf.mul(d, i), gf.mul(f, g)))
    t3 = gf.mul(c, gf.sub(gf.mul(d, h), gf.mul(e, g)))
    return gf.add(gf.sub(t1, t2), t3)


def mat_inverse(m, gf: GF) -> tuple[int, ...]:
    d = det3(m, gf)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    dinv = gf.inv(d)
    a, b, c, dd, e, f, g, h, i = m
    cof = (
        gf.sub(gf.mul(e, i), gf.mul(f, h)),
        gf.sub(gf.mul(c, h), gf.mul(b, i)),
        gf.sub(gf.mul(b, f), gf.mul(c, e)),
        gf.sub(gf.mul(f, g), gf.mul(dd, i)),
        gf.sub(gf.mul(a, i), gf.mul(c, g)),
        gf.sub(gf.mul(c, dd), gf.mul(a, f)),
        gf.sub(gf.mul(dd, h), gf.mul(e, g)),
        gf.sub(gf.mul(b, g), gf.mul(a, h)),
        gf.sub(gf.mul(a, e), gf.mul(b, dd)),
    )
    return tuple(gf.mul(dinv, x) for x in cof)


def random_invertible(gf: GF, rng) -> tuple[int, ...]:
    while True:
        m = tuple(rng.randrange(gf.q) for _ in range(9))
        if det3(m, gf) != 0:
            return m
