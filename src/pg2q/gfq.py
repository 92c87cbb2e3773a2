"""Arithmetic in GF(p^h) with quadratic character, trace, and Frobenius.

Elements are integer codes in [0, q).  The element with polynomial-basis
coordinates (c_0, ..., c_{h-1}) over the declared modulus has code
sum(c_i * p**i), so prime fields are plain integers mod p.  Every field, of
order at most MAX_ORDER, is held as its q x q add and mul tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

MAX_ORDER = 512  # its add and mul tables take about 6 MB


class NotPrime(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class QuadChar(Enum):
    ZERO = 0
    SQUARE = 1
    NONSQUARE = -1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class FieldSpec:
    """Declared field: characteristic, degree, and monic irreducible modulus."""

    p: int
    h: int
    modulus: tuple[int, ...]  # ascending degree, length h+1, monic

    @property
    def q(self) -> int:
        return self.p**self.h

    def to_json(self) -> dict:
        return {"p": self.p, "h": self.h, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        p, h, mod = obj["p"], obj["h"], obj["modulus"]
        if not (type(p) is int and type(h) is int):
            raise ValueError(f"p and h must be integers, not {p!r} and {h!r}")
        if not (isinstance(mod, list) and all(type(c) is int for c in mod)):
            raise ValueError("modulus must be a list of integer coefficients, lowest degree first")
        return cls(p, h, tuple(mod))


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_divmod(num, den, p):
    """Polynomial division over GF(p); coefficient lists ascending, den monic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(num) - dd)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] % p
        if c:
            quot[k] = c
            for i, dc in enumerate(den):
                num[k + i] = (num[k + i] - c * dc) % p
    while len(num) > 1 and num[-1] % p == 0:
        num.pop()
    return quot, [c % p for c in num]

def _is_irreducible(mod, p):
    """Trial root/factor search: no root, then no monic factor of degree <= h/2."""
    h = len(mod) - 1
    if h == 1:
        return True
    for x in range(p):
        if _poly_eval(mod, x, p) == 0:
            return False
    if h <= 3:
        return True
    for d in range(2, h // 2 + 1):
        for n in range(p**d):
            den = _digits(n, p, d) + [1]
            _, rem = _poly_divmod(mod, den, p)
            if rem == [0]:
                return False
    return True


def _digits(n, p, h):
    out = []
    for _ in range(h):
        out.append(n % p)
        n //= p
    return out


@lru_cache(maxsize=None)
def _auto_modulus(p, h):
    """Smallest monic irreducible of degree h, ordered by code of the low part."""
    for n in range(p**h):
        mod = tuple(_digits(n, p, h) + [1])
        if _is_irreducible(mod, p):
            return mod
    raise ReducibleModulus(f"no irreducible polynomial of degree {h} over GF({p})")


def order_exceeds(p: int, h: int, cap: int) -> bool:
    """Whether p^h > cap, for p >= 2 and h >= 1; h is bounded before the
    power is taken, so a huge h costs nothing."""
    return p > 1 and (h >= cap.bit_length() or p**h > cap)


def _checked_order(p: int, h: int) -> int:
    """p^h, once h >= 1, p^h is within MAX_ORDER and p is a prime.  The cap
    comes first, so an oversized order is refused without a primality test."""
    if h < 1:
        raise ValueError("extension degree must be >= 1")
    if order_exceeds(p, h, MAX_ORDER):
        raise ValueError(f"field order {p}^{h} exceeds cap {MAX_ORDER}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p**h


class GF:
    """The field GF(p^h).  Immutable after construction; all tables read-only."""

    def __init__(self, p: int, h: int = 1, modulus=None):
        q = _checked_order(p, h)
        if modulus is None:
            modulus = _auto_modulus(p, h)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != h + 1 or modulus[-1] != 1:
                raise ReducibleModulus("modulus must be monic of degree h")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {list(modulus)} is reducible over GF({p})")
        self.p = p
        self.h = h
        self.q = q
        self.modulus = modulus
        self.spec = FieldSpec(p, h, modulus)
        self._exp, self._log = self._build_exp_log()
        # add_table[a][b] = a + b and mul_table[a][b] = a * b
        self.add_table, self.mul_table = self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        p, h = self.p, self.h
        da, db = _digits(a, p, h), _digits(b, p, h)
        conv = [0] * (2 * h - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    conv[i + j] += ca * cb
        _, rem = _poly_divmod(conv, self.modulus, p)
        code = 0
        for c in reversed(rem):
            code = code * p + c
        return code

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        base = a
        while e:
            if e & 1:
                r = self._raw_mul(r, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return r

    def _build_exp_log(self):
        q = self.q
        rads = prime_factors(q - 1)
        for gen in range(2, q):
            if all(self._raw_pow(gen, (q - 1) // r) != 1 for r in rads):
                break
        else:  # q == 2
            gen = 1
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._raw_mul(exp[i - 1], gen)
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = gen
        return exp, log

    def _build_tables(self):
        """The add and mul tables, a row at a time.  Row a of the sum table is
        row a-1 with 1 added to the low digit of every entry, or, when p
        divides a, row a/p moved up one digit beside b's own low digit.  Row a
        of the product table reads a doubled exp table from log a on."""
        p, q = self.p, self.q
        succ = [x + 1 if x % p != p - 1 else x + 1 - p for x in range(q)]
        add = [list(range(q))]
        for a in range(1, q):
            if a % p:
                add.append([succ[x] for x in add[a - 1]])
            else:
                add.append([lo + p * x for x in add[a // p][: q // p] for lo in range(p)])
        exp2, logs = self._exp * 2, self._log[1:]
        mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        return add, mul

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        # g^((q-1)/2) = -1 for odd q, and -a = a in characteristic 2
        if a == 0 or self.p == 2:
            return a
        return self._exp[(self._log[a] + (self.q - 1) // 2) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def quad_char(self, a: int) -> QuadChar:
        """Three-way quadratic character; every nonzero element of a field of
        even order counts as a square."""
        if a == 0:
            return QuadChar.ZERO
        if self.q % 2 == 0:
            return QuadChar.SQUARE
        return QuadChar.SQUARE if self._log[a] % 2 == 0 else QuadChar.NONSQUARE

    def smallest_nonsquare(self) -> int:
        for a in range(1, self.q):
            if self.quad_char(a) is QuadChar.NONSQUARE:
                return a
        raise ValueError("no non-square: field of even order")

    def frobenius(self, a: int) -> int:
        return self.pow_(a, self.p) if a else 0

    def trace(self, a: int) -> int:
        acc, cur = a, a
        for _ in range(self.h - 1):
            cur = self.frobenius(cur)
            acc = self.add(acc, cur)
        return acc

    def __repr__(self):
        return f"GF({self.p}^{self.h}, modulus={list(self.modulus)})" if self.h > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and other.spec == self.spec

    def __hash__(self):
        return hash(self.spec)


@lru_cache(maxsize=None)
def _cached_field(p: int, h: int, modulus) -> GF:
    return GF(p, h, modulus)


def field_new(p: int, h: int = 1, modulus=None) -> GF:
    """Field factory; Auto modulus picks the smallest monic irreducible.

    Cached by the resolved, reduced modulus, so every spelling of one field
    shares the same table set.
    """
    _checked_order(p, h)
    modulus = _auto_modulus(p, h) if modulus is None else tuple(int(c) % p for c in modulus)
    return _cached_field(p, h, modulus)


def field_for_order(q: int) -> GF:
    """GF(q) for a prime power q, with the auto-selected modulus.  An order
    above MAX_ORDER is refused before q is factored."""
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds cap {MAX_ORDER}")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, h = factors[0], 1
    while p**h < q:
        h += 1
    return field_new(p, h)
