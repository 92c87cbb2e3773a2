"""Pinned outputs: the sha256 of the canonical JSON (sorted keys, lists, no
spaces) of named outputs of pg2q.  A change that alters one of them fails
its test; a change that means to alter one re-pins its digest here and names
the reason in CHANGES.md."""

import hashlib
import json

from pg2q.gfq import GF, prime_factors

PINNED = {
    "field_tables": "58e78a33a9be96eac945cbbd0a2daa7d7a08f04a5abacf8647c4598e973d2bad",
}


def canonical_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def field_tables(limit: int = 512, tabulated: int = 64) -> dict:
    """For every prime power q <= limit, the auto modulus, the generator and
    the exp and log tables of GF(q), and up to q = tabulated also its add and
    mul tables.  Built by GF itself, not field_new, so no field stays cached."""
    out = {}
    for q in range(2, limit + 1):
        factors = prime_factors(q)
        if len(factors) != 1:
            continue
        p, h = factors[0], 1
        while p**h < q:
            h += 1
        gf = GF(p, h)
        entry = {"modulus": list(gf.modulus), "generator": gf.generator, "exp": gf._exp, "log": gf._log}
        if q <= tabulated:
            entry["add"], entry["mul"] = gf.add_table, gf.mul_table
        out[str(q)] = entry
    return out
