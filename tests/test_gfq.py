import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg2q import gfq
from pg2q.gfq import (
    GF,
    FieldSpec,
    NotPrime,
    QuadChar,
    ReducibleModulus,
    field_for_order,
    field_new,
)

from output_manifest import PINNED, canonical_sha256, field_tables, prime_powers

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 64, 81]


def test_field_new_examples():
    g5 = field_new(5, 1)
    assert g5.q == 5 and g5.modulus == (0, 1)
    g9 = field_new(3, 2, [1, 0, 1])
    assert g9.q == 9
    with pytest.raises(ReducibleModulus):
        field_new(3, 2, [2, 0, 1])  # t^2 + 2 has the root t = 1
    with pytest.raises(NotPrime):
        field_new(6, 1)


def test_field_new_caches_by_resolved_modulus():
    assert field_new(3, 2, (1, 0, 1)) is field_for_order(9)
    assert field_new(3, 2, (4, 3, 1)) is field_for_order(9)  # reduced mod 3 first


def test_field_new_checks_the_order_before_any_modulus_search(monkeypatch):
    def no_search(p, h):
        raise AssertionError("searched for a modulus")

    monkeypatch.setattr(gfq, "_auto_modulus", no_search)
    with pytest.raises(ValueError, match="exceeds cap"):
        field_new(2, 30)
    with pytest.raises(NotPrime):
        field_new(6, 2)
    with pytest.raises(ValueError, match="degree"):
        field_new(3, 0)


@pytest.mark.parametrize("p,h", [(2, 9), (3, 5), (7, 3)])
def test_exp_table_matches_raw_powers(p, h):
    """At the largest orders of characteristic 2, 3 and 7 within MAX_ORDER,
    the exp table, stepped by the general multiplication, holds the powers
    of the generator that square-and-multiply gives, and log inverts it."""
    gf = GF(p, h)
    exps = [0, 1, gf.q - 2] + random.Random(gf.q).sample(range(gf.q - 1), 60)
    for e in exps:
        assert gf._exp[e] == gf._raw_pow(gf.generator, e)
        assert gf._log[gf._exp[e]] == e
    assert sorted(gf._exp) == list(range(1, gf.q))


def _digitwise_sums(p, h):
    """Row a: the code of the base-p digit-wise sum of a and b, for every b."""
    digits = [gfq._digits(a, p, h) for a in range(p**h)]
    return [[sum((x + y) % p * p**i for i, (x, y) in enumerate(zip(da, db))) for db in digits] for da in digits]


@pytest.mark.parametrize("p,h,modulus", [(2, 8, None), (3, 5, None), (7, 3, None), (3, 2, (2, 1, 1)), (13, 1, None)])
def test_tables_match_raw_arithmetic(p, h, modulus):
    """The add and mul tables, built a row at a time, hold the digit-wise sum
    and the product that the general multiplication gives."""
    gf = GF(p, h, modulus)
    assert gf.add_table == _digitwise_sums(p, h)
    for a in range(gf.q):
        assert gf.mul_table[a] == [gf._raw_mul(a, b) for b in range(gf.q)]


@pytest.mark.parametrize("q", [p**h for p, h in prime_powers(64)])
def test_add_table_is_digitwise(q):
    """add_table[a][b] is the base-p digit-wise sum of a and b at every order
    a plane is built over, which the line masks of `Plane` are built from."""
    gf = field_for_order(q)
    assert gf.add_table == _digitwise_sums(gf.p, gf.h)


def test_auto_modulus_deterministic():
    a = field_new(3, 2).modulus
    b = GF(3, 2).modulus
    assert a == b == (1, 0, 1)
    assert field_new(3, 3).modulus == (1, 2, 0, 1)


def test_mul_examples():
    assert field_new(5).mul(2, 3) == 1
    g9 = field_new(3, 2, [1, 0, 1])
    assert g9.mul(3, 3) == 2  # t * t = -1 = 2
    assert field_new(7).inv(3) == 5


def test_quad_char_examples():
    g5 = field_new(5)
    assert g5.quad_char(4) is QuadChar.SQUARE
    assert g5.quad_char(2) is QuadChar.NONSQUARE
    assert g5.quad_char(0) is QuadChar.ZERO
    assert [x for x in range(1, 5) if g5.quad_char(x) is QuadChar.SQUARE] == [1, 4]
    g9 = field_new(3, 2)
    # nonzero prime-subfield elements are squares in GF(9)
    squares = {g9.mul(x, x) for x in range(1, 9)}
    assert {1, 2} <= squares
    assert squares == {x for x in range(1, 9) if g9.quad_char(x) is QuadChar.SQUARE}


def test_quad_char_euler_criterion():
    for q in [3, 5, 7, 9, 11, 13, 25, 27]:
        gf = field_for_order(q)
        for x in range(1, q):
            euler = gf.pow_(x, (q - 1) // 2)
            expected = QuadChar.SQUARE if euler == 1 else QuadChar.NONSQUARE
            assert gf.quad_char(x) is expected


def test_square_counts_odd_q():
    for q in [3, 5, 7, 9, 11, 13, 25, 27, 31]:
        gf = field_for_order(q)
        sq = sum(1 for x in range(1, q) if gf.quad_char(x) is QuadChar.SQUARE)
        ns = sum(1 for x in range(1, q) if gf.quad_char(x) is QuadChar.NONSQUARE)
        assert sq == ns == (q - 1) // 2


def test_character_multiplicativity():
    table = {
        (QuadChar.SQUARE, QuadChar.SQUARE): QuadChar.SQUARE,
        (QuadChar.SQUARE, QuadChar.NONSQUARE): QuadChar.NONSQUARE,
        (QuadChar.NONSQUARE, QuadChar.SQUARE): QuadChar.NONSQUARE,
        (QuadChar.NONSQUARE, QuadChar.NONSQUARE): QuadChar.SQUARE,
    }
    for q in [5, 7, 9, 27]:
        gf = field_for_order(q)
        for x in range(1, q):
            for y in range(1, q):
                got = gf.quad_char(gf.mul(x, y))
                assert got is table[(gf.quad_char(x), gf.quad_char(y))]


def test_trace_examples():
    g9 = field_new(3, 2, [1, 0, 1])
    assert g9.trace(1) == 2  # h * 1 mod p
    assert g9.trace(3) == 0  # Tr(t) = t + t^3 = 0
    g5 = field_new(5)
    assert all(g5.trace(x) == x for x in range(5))


def test_trace_lands_in_prime_subfield():
    for q in [9, 27, 25, 8, 16]:
        gf = field_for_order(q)
        for x in range(q):
            t = gf.trace(x)
            assert gf.frobenius(t) == t


def test_frobenius_examples():
    g9 = field_new(3, 2, [1, 0, 1])
    assert g9.frobenius(3) == 6  # t^3 = -t = 2t
    g7 = field_new(7)
    assert all(g7.frobenius(x) == x for x in range(7))
    g27 = field_for_order(27)
    for x in range(27):
        y = x
        for _ in range(3):
            y = g27.frobenius(y)
        assert y == x


@pytest.mark.parametrize("q", [p**h for p, h in prime_powers(81)])
def test_field_axioms_exhaustive(q):
    import numpy as np

    gf = field_for_order(q)
    els = range(q)
    for a in els:
        assert gf.add(a, 0) == a and gf.mul(a, 1) == a and gf.mul(a, 0) == 0
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
    add = np.array([[gf.add(a, b) for b in els] for a in els])
    mul = np.array([[gf.mul(a, b) for b in els] for a in els])
    assert (add == add.T).all() and (mul == mul.T).all()
    # associativity and distributivity over all q^3 triples at once:
    # [a,b,c] -> op(op(a,b),c) versus op(a,op(b,c))
    assert (add[add, :] == add[:, add]).all()
    assert (mul[mul, :] == mul[:, mul]).all()
    assert (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all()


@pytest.mark.parametrize("p,h", [(3, 5), (7, 3), (509, 1), (2, 9)])
def test_neg_is_digitwise(p, h):
    """`neg` through the log tables is the digit-wise negation, and the add
    table agrees: a + (-a) = 0 and -(-a) = a."""
    gf = GF(p, h)
    q = gf.q
    for a in range(q):
        assert gf.neg(a) == sum((-d) % p * p**i for i, d in enumerate(gfq._digits(a, p, h)))
        assert gf.add(a, gf.neg(a)) == 0 and gf.neg(gf.neg(a)) == a


@pytest.mark.parametrize("q,p,h", [(521, 521, 1), (729, 3, 6), (1024, 2, 10)], ids=["521", "729", "1024"])
def test_order_above_cap_refused(q, p, h):
    """Every field is held as its tables, so an order above MAX_ORDER is
    refused with the cap message, whether asked for by order or by p and h."""
    assert q > gfq.MAX_ORDER
    with pytest.raises(ValueError, match=f"field order {q} exceeds cap {gfq.MAX_ORDER}"):
        field_for_order(q)
    with pytest.raises(ValueError, match=rf"field order {p}\^{h} exceeds cap {gfq.MAX_ORDER}"):
        GF(p, h)


def test_field_tables_match_the_pinned_digest():
    """The modulus, generator, exp and log tables of every field, and the add
    and mul tables of every field a plane is built over, hash as pinned."""
    assert canonical_sha256(field_tables()) == PINNED["field_tables"]


@given(st.sampled_from([3, 5, 9, 27, 8]), st.data())
@settings(max_examples=60, deadline=None)
def test_frobenius_is_automorphism(q, data):
    gf = field_for_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert gf.frobenius(gf.add(a, b)) == gf.add(gf.frobenius(a), gf.frobenius(b))
    assert gf.frobenius(gf.mul(a, b)) == gf.mul(gf.frobenius(a), gf.frobenius(b))


def test_spec_serialization_roundtrip():
    spec = field_new(3, 2).spec
    assert spec.to_json() == {"p": 3, "h": 2, "modulus": [1, 0, 1]}
    assert FieldSpec.from_json(spec.to_json()) == spec


def test_even_q_squares():
    g4 = field_for_order(4)
    assert all(g4.quad_char(x) is QuadChar.SQUARE for x in range(1, 4))
    assert g4.quad_char(0) is QuadChar.ZERO
