"""Small dense linear algebra: row reduction and nullspaces over a prime field
on byte rows, and 3x3 matrix helpers over a declared GF for collineations.
Everything works on integer codes.
"""

from __future__ import annotations

from .gfq import GF


def rref(rows, gf: GF) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the prime field gf; returns (rows,
    pivot column indices).  ValueError for a field with h > 1 (or p > 127).

    Rows are copied to `bytes`, one entry in [0, p) per column.  The pivot
    row is scaled by one `translate` through a multiplication table.
    Another row loses f times it as one int sum, row + (-f) * pivot row with
    the second packed once per pivot and f, then `to_bytes` and one
    `translate` mod p.  A byte of the sum is at most 2(p - 1) < 256, so none
    carries.
    """
    p = gf.p
    if gf.h != 1 or p > 127:
        raise ValueError(f"row reduction needs a prime field of order below 128, not {gf!r}")
    # mul[a] maps byte v < p to a * v mod p; mod maps byte v to v mod p
    mul = [bytes(a * v % p for v in range(p)).ljust(256, b"\0") for a in range(p)]
    mod = bytes(v % p for v in range(256))
    m = [bytes(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row = m[r] = m[r].translate(mul[gf.inv(m[r][c])])
        packed = {}  # f -> the pivot row times -f, one byte per column
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                s = packed.get(f)
                if s is None:
                    s = packed[f] = int.from_bytes(row.translate(mul[p - f]), "little")
                m[i] = (int.from_bytes(m[i], "little") + s).to_bytes(ncols, "little").translate(mod)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [list(row) for row in m[:r]], pivots


def nullspace(rows, gf: GF, ncols: int | None = None) -> list[list[int]]:
    """Basis of the right nullspace over the prime field gf, read off `rref`:
    one vector per free column, 1 there and 0 at the other free columns."""
    red, pivots = rref(rows, gf)
    if ncols is None:
        ncols = len(rows[0])
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] % gf.p
        basis.append(v)
    return basis


# -- 3x3 matrices, row-major tuples of 9 codes --------------------------------


def mat_vec(m, v, gf: GF) -> tuple[int, int, int]:
    return tuple(
        gf.add(gf.add(gf.mul(m[3 * i], v[0]), gf.mul(m[3 * i + 1], v[1])), gf.mul(m[3 * i + 2], v[2]))
        for i in range(3)
    )


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
