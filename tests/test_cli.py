import json
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pg2q.cli import dispatch
from pg2q.conic import canonical_conic
from pg2q.constructions import all_certificates, find_valid_a, interior_points, trivial
from pg2q.gfq import MAX_ORDER, ReducibleModulus, field_new
from pg2q.linalg import random_invertible
from pg2q.plane import MAX_PLANE_ORDER, PointSet, plane_for, plane_for_order
from pg2q.tangency import spectrum

from output_manifest import PINNED, canonical_sha256, cli_outputs


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_wall_time(text):
    obj = json.loads(text)
    obj.pop("wall_time", None)
    return obj


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--p", "3", "--h", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == {"p": 3, "h": 2, "modulus": [1, 0, 1]}
    assert obj["results"]["nonzero_squares"] == 4


def test_construct_and_verify(capsys, tmp_path):
    out_file = tmp_path / "t5.json"
    code, out, _ = run(capsys, "construct", "--name", "trivial", "--q", "5", "--out", str(out_file))
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["certificate"]["status"] == "VALID"
    assert obj["results"]["certificate"]["actual_size"] == 10

    code, out, _ = run(capsys, "verify", "--set", str(out_file))
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["verdict"] == "VALID"
    assert obj["results"]["spectrum"] == "0:4 2:25 5:2"


def test_verify_rejects_tangent(capsys, tmp_path):
    from pg2q.plane import PointSet, plane_for_order

    bad = tmp_path / "bad.json"
    bad.write_text(PointSet(plane_for_order(5), [0, 1, 2]).dump())
    code, out, _ = run(capsys, "verify", "--set", str(bad))
    assert code == 1
    assert json.loads(out)["results"]["verdict"] == "INVALID"


def test_search_min_cli(capsys):
    code, out, _ = run(capsys, "search-min", "--q", "5", "--cap", "12", "--workers", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["u"] == 10
    assert obj["results"]["nodes_expanded"] == 26
    assert "symmetry_skips" not in obj["results"]
    assert obj["verdicts"]["witness_tangent_free"]


def test_search_min_budget_alone_bounds_the_run(capsys):
    code, out, _ = run(capsys, "search-min", "--q", "9", "--budget", "0", "--workers", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["status"] == "budget_exceeded"
    assert obj["results"]["sizes_refuted_below"] == 13 and obj["results"]["u"] is None


@pytest.mark.parametrize("budget", ["-1", "nan", "inf"])
def test_search_min_rejects_bad_budget(capsys, budget):
    code, out, err = run(capsys, "search-min", "--q", "9", "--budget", budget, "--workers", "1")
    assert code == 2 and out == ""
    assert "--budget" in err


@pytest.mark.parametrize("workers", ["-3", "0", str((os.cpu_count() or 1) + 1)])
def test_search_min_rejects_bad_workers(capsys, workers):
    # at q = 3 the construction settles the run before any pool could start
    code, out, err = run(capsys, "search-min", "--q", "3", "--workers", workers)
    assert code == 2 and out == ""
    assert "--workers" in err


def test_exterior_extend_cli(capsys):
    code, out, _ = run(capsys, "exterior-extend", "--q", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["off_line_extenders"] == 0
    assert obj["results"]["dichotomy_holds"]


def test_exterior_clique_cli(capsys):
    code, out, _ = run(capsys, "exterior-clique", "--q", "7", "--no3col")
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["count"] > 0
    assert obj["results"]["tangent_free_unions"] == obj["results"]["count"]


def test_dual_codeword_cli(capsys, tmp_path):
    f = tmp_path / "s.json"
    f.write_text(trivial(5).dump())
    code, out, _ = run(capsys, "dual-codeword", "--set", str(f))
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["found"] and obj["results"]["exact"]
    assert obj["results"]["weight"] == 10
    assert obj["results"]["nodes"] == 1


def test_dual_codeword_cli_on_a_q16_codeword_support(capsys, tmp_path):
    """A support at q = 16 that random draws over GF(2) never hit."""
    from pg2q.codes import incidence_code

    code = incidence_code(16)
    support = code.support(code.random_dual_codewords(1, random.Random(16))[0])
    f = tmp_path / "s.json"
    f.write_text(PointSet(code.plane, support).dump())
    rc, out, _ = run(capsys, "dual-codeword", "--set", str(f))
    res = json.loads(out)["results"]
    assert rc == 0 and res["found"] and res["exact"] and res["nodes"] > 0
    assert code.support(res["coefficients"]) == support and res["weight"] == len(support)


def test_peel_cli(capsys, tmp_path):
    f = tmp_path / "s.json"
    f.write_text(trivial(5).dump())
    for q_args in (["--q", "5"], []):  # --q is optional with --set
        code, out, _ = run(capsys, "peel", *q_args, "--set", str(f))
        assert code == 0
        obj = json.loads(out)
        assert obj["parameters"]["q"] == 5
        assert obj["results"]["residual_size"] == 10
        assert obj["verdicts"]["stopping_set"]


def test_peel_rejects_set_from_another_plane(capsys, tmp_path, monkeypatch):
    import io

    f = tmp_path / "s9.json"
    f.write_text(trivial(9).dump())
    monkeypatch.setattr("sys.stdin", io.StringIO(trivial(9).dump()))
    for source in (str(f), "-"):
        code, out, err = run(capsys, "peel", "--q", "5", "--set", source)
        assert code == 2
        assert out == ""
        assert "PG(2,9)" in err


@pytest.mark.parametrize("indices", [[0, 1, 200], [0, -1], [0, "1"], 7])
def test_peel_rejects_bad_index_list(capsys, tmp_path, indices):
    f = tmp_path / "e.json"
    f.write_text(json.dumps(indices))
    code, out, err = run(capsys, "peel", "--q", "5", "--set", str(f))
    assert code == 2
    assert out == ""
    assert "[0, 31)" in err


@pytest.mark.parametrize("cmd", ["verify", "peel"])
def test_set_that_is_not_json_exits_2(capsys, tmp_path, monkeypatch, cmd):
    """--set text that does not parse as JSON, from a file or (peel) from
    stdin, exits 2 and names the JSONDecodeError."""
    import io

    f = tmp_path / "bad.json"
    f.write_text("{not json")
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, out, err = run(capsys, cmd, "--set", str(f) if cmd == "verify" else "-")
    assert code == 2 and out == ""
    assert "JSONDecodeError" in err


def test_peel_index_list_needs_q(capsys, tmp_path):
    f = tmp_path / "e.json"
    f.write_text("[0, 1, 2]")
    code, out, err = run(capsys, "peel", "--set", str(f))
    assert code == 2 and out == ""
    assert "--q" in err


def test_peel_reads_index_list_with_q(capsys, tmp_path):
    f = tmp_path / "e.json"
    f.write_text(json.dumps(sorted(trivial(5).members)))
    code, out, _ = run(capsys, "peel", "--set", str(f), "--q", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["residual"] == trivial(5).to_json()
    assert obj["verdicts"]["stopping_set"]


def test_peel_has_no_erased_option(capsys, tmp_path):
    f = tmp_path / "e.json"
    f.write_text("[0, 1, 2]")
    assert dispatch(["peel", "--erased", str(f), "--q", "5"]) == 2
    assert capsys.readouterr().out == ""


def test_one_parser_serves_a_sequence_of_commands(capsys, tmp_path):
    """The parser is built once per process.  Four commands in a row, each
    against a fresh interpreter: an option one command parses (peel's --q)
    must not reach the next, since `_load_set` reads a bare index list only
    for a command with --q, and peel only with --q given."""
    bare, doc = tmp_path / "e.json", tmp_path / "s.json"
    bare.write_text(json.dumps(sorted(trivial(5).members)))
    doc.write_text(trivial(5).dump())
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    cases = [
        (["peel", "--set", str(bare), "--q", "5"], 0),
        (["verify", "--set", str(doc)], 0),
        (["verify", "--set", str(bare)], 2),
        (["peel", "--set", str(bare)], 2),
    ]
    for argv, want in cases:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "pg2q.cli", *argv], env=env, capture_output=True, text=True)
        assert (code, err) == (fresh.returncode, fresh.stderr) and code == want, argv
        if code:
            assert out == fresh.stdout == "", argv
        else:
            assert strip_wall_time(out) == strip_wall_time(fresh.stdout), argv


def test_construct_rejects_plane_above_cap(capsys):
    code, out, err = run(capsys, "construct", "--name", "trivial", "--q", "1009")
    assert code == 2
    assert out == ""
    assert "cap 64" in err


@pytest.mark.parametrize("a", ["7", "-1"])
def test_construct_two_conics_rejects_a_outside_field(capsys, a):
    # a = 7 used to escape as an IndexError; a = -1 was read as 6
    code, out, err = run(capsys, "construct", "--name", "two_conics", "--q", "7", "--a", a)
    assert code == 2 and out == ""
    assert "InvalidA" in err and f"a={a}" in err


def test_construct_two_conics_reports_the_a_it_used(capsys):
    # without --a the least valid a is used, and parameters used to read a = null
    code, out, _ = run(capsys, "construct", "--name", "two_conics", "--q", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["parameters"]["a"] == 6 == min(find_valid_a(7))
    assert obj["results"]["certificate"]["notes"] == "a=6"


@pytest.mark.parametrize("q", ["3", "4", "5"])
def test_construct_two_conics_without_a_rejects_order(capsys, q):
    # q = 3 and 5 have no valid a and used to exit 1; q = 4 is even
    code, out, err = run(capsys, "construct", "--name", "two_conics", "--q", q)
    assert code == 2 and out == ""
    assert "InvalidA" in err


@pytest.mark.parametrize("name", ["trivial", "two_conics", "interior", "trace_graph", "frobenius_graph",
                                  "pg25_ten_set"])
def test_construct_refuses_r_outside_punctured_interior(capsys, name):
    code, out, err = run(capsys, "construct", "--name", name, "--q", "5", "--r", "0")
    assert code == 2 and out == ""
    assert "--r" in err


@pytest.mark.parametrize("name", ["trivial", "interior", "punctured_interior", "trace_graph", "frobenius_graph",
                                  "pg25_ten_set"])
def test_construct_refuses_a_outside_two_conics(capsys, name):
    code, out, err = run(capsys, "construct", "--name", name, "--q", "5", "--a", "3")
    assert code == 2 and out == ""
    assert "--a" in err


@pytest.mark.parametrize("name,q,parameters", [
    ("two_conics", "7", {"name": "two_conics", "q": 7, "a": 6}),
    ("trivial", "7", {"name": "trivial", "q": 7}),
    ("interior", "5", {"name": "interior", "q": 5}),
])
def test_construct_reports_only_the_options_it_reads(capsys, name, q, parameters):
    # every construction used to report "r": 0 and "a": null, read or not
    code, out, _ = run(capsys, "construct", "--name", name, "--q", q)
    assert code == 0
    assert json.loads(out)["parameters"] == parameters


@pytest.mark.parametrize("r,size", [(None, 36), ("1", 31)])
def test_construct_punctured_interior_reads_r(capsys, r, size):
    argv = ["construct", "--name", "punctured_interior", "--q", "9"] + (["--r", r] if r else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["parameters"]["r"] == int(r or 0)
    assert obj["results"]["certificate"]["actual_size"] == obj["results"]["certificate"]["claimed_size"] == size


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_construct_matches_the_construction_list(capsys, q):
    # the CLI used to name every punctured set punctured_interior and leave
    # the notes of frobenius_graph empty over an extension field
    for c in all_certificates(q):
        name, _, r = c.name.partition("_r")  # punctured_interior_r{r}; no other name has "_r"
        code, out, _ = run(capsys, "construct", "--name", name, "--q", str(q), *(["--r", r] if r else []))
        assert code == 0, c.name
        res = json.loads(out)["results"]
        assert res["point_set"] == c.points.to_json(), c.name
        cert = res["certificate"]
        assert (cert["name"], cert["claimed_size"], cert["notes"], cert["status"]) == (
            c.name, c.claimed_size, c.notes, c.status)


def _moduli(p, h):
    """Every monic irreducible polynomial of degree h over GF(p), ascending."""
    out = []
    for low in product(range(p), repeat=h):
        try:
            field_new(p, h, low + (1,))
        except ReducibleModulus:
            continue
        out.append(low + (1,))
    return out


@pytest.mark.parametrize("p,h,modulus", [(p, h, m) for p, h in [(3, 2), (5, 2), (3, 3)] for m in _moduli(p, h)])
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_answers_in_the_declared_field(capsys, tmp_path, p, h, modulus, seed):
    """A projective image of the conic interior, written over any irreducible
    modulus, gets the canonical interior's answers."""
    q = p**h
    canonical = interior_points(canonical_conic(plane_for_order(q)))
    plane = plane_for(p, h, modulus)
    interior = interior_points(canonical_conic(plane))
    mat = random_invertible(plane.gf, random.Random(seed))
    image = PointSet(plane, (plane.apply_matrix(mat, i) for i in interior))
    f = tmp_path / "image.json"
    f.write_text(image.dump())
    loaded = PointSet.from_json(json.loads(image.dump()))
    assert (loaded.plane is plane_for_order(q)) == (modulus == plane_for_order(q).gf.modulus)

    def answer(cmd):
        code, out, _ = run(capsys, cmd, "--set", str(f))
        assert code == 0
        return json.loads(out)["results"]

    assert answer("verify")["verdict"] == "VALID"
    assert answer("spectrum")["spectrum"] == str(spectrum(canonical))
    assert answer("peel")["residual"] == image.to_json()
    if q == 9:
        res = answer("dual-codeword")
        assert res["found"] and res["exact"]
        assert {i for i, c in enumerate(res["coefficients"]) if c} == image.members


def test_spectrum_cli_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(trivial(5).dump()))
    code, out, _ = run(capsys, "spectrum", "--set", "-")
    assert code == 0
    assert json.loads(out)["results"]["spectrum"] == "0:4 2:25 5:2"


GF9 = {"p": 3, "h": 2, "modulus": [1, 0, 1]}


def _gf9_points(i, points, message):
    """A GF(9) document that is malformed only in its points, named points<i>."""
    return pytest.param({"field": GF9, "points": points}, message, id=f"points{i}-{message}")


@pytest.mark.parametrize(
    "doc,message",
    [
        _gf9_points(0, [[0, 100, 0]], "outside [0, 9)"),
        _gf9_points(1, [[0, 2, -1]], "outside [0, 9)"),  # -1 is code 2 in GF(9), not index -1
        _gf9_points(2, [[1, 100, 0]], "outside [0, 9)"),
        _gf9_points(3, [[1, 2]], "not three integers"),
        _gf9_points(4, [[1, 2, True]], "not three integers"),
        _gf9_points(5, {"1": [1, 0, 0]}, "list of coordinate triples"),
        ([[1, 0, 0]], "must be a JSON object"),
        ("[[1, 0, 0]]", "must be a JSON object"),
        ({"field": 7, "points": [[1, 0, 0]]}, '"field" must be a JSON object'),
        ({"field": [5, 1], "points": [[1, 0, 0]]}, '"field" must be a JSON object'),
        ({"field": {"p": 5, "h": 1, "modulus": 3}, "points": [[1, 0, 0]]}, "modulus must be a list"),
        ({"field": {"p": 5, "h": 1, "modulus": [[0], 1]}, "points": [[1, 0, 0]]}, "modulus must be a list"),
        ({"field": {"p": 5.5, "h": 1, "modulus": [0, 1]}, "points": [[1, 0, 0]]}, "p and h must be integers"),
    ],
)
def test_verify_rejects_malformed_coordinates(capsys, monkeypatch, doc, message):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "verify", "--set", "-")
    assert code == 2
    assert out == ""
    assert message in err


FIELD_CAP = f"exceeds cap {MAX_ORDER}"
PLANE_CAP = f"exceeds the plane order cap {MAX_PLANE_ORDER}"


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (("search-min", "--q", "2000003"), None, PLANE_CAP),
        (("search-min", "--q", "1000000007"), None, PLANE_CAP),
        (("field-info", "--p", "3", "--h", "4000000"), None, FIELD_CAP),
        (("field-info", "--p", "1000000007"), None, FIELD_CAP),
        (("field-info", "--p", "2", "--h", "10"), None, FIELD_CAP),
        (("verify", "--set", "-"), {"field": {"p": 1000000007, "h": 1, "modulus": [0, 1]}, "points": [[1, 0, 0]]},
         PLANE_CAP),
        (("verify", "--set", "-"), {"field": {"p": 3, "h": 4000000, "modulus": [0, 1]}, "points": [[1, 0, 0]]},
         PLANE_CAP),
        # above both caps: the plane cap is checked first
        (("search-min", "--q", "1048576"), None, PLANE_CAP),
        (("verify", "--set", "-"), {"field": {"p": 2, "h": 20, "modulus": [1, 0, 0, 1] + [0] * 16 + [1]},
                                    "points": [[1, 0, 0]]}, PLANE_CAP),
        # within the field cap but above the plane cap: refused before GF(2^7) or GF(2^9) is built
        (("search-min", "--q", "128"), None, PLANE_CAP),
        (("verify", "--set", "-"), {"field": {"p": 2, "h": 9, "modulus": [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]},
                                    "points": [[1, 0, 0]]}, PLANE_CAP),
    ],
    ids=["q-2000003", "q-1000000007", "h-4000000", "p-1000000007", "field-h-10", "json-p", "json-h",
         "plane-q", "plane-json", "plane-q-128", "plane-json-2^9"],
)
def test_oversized_order_refused_at_once(capsys, monkeypatch, argv, doc, message):
    """An order above the field or the plane cap exits 2 with the message of
    the cap it breaks, the plane cap first, before any primality test,
    factoring, field table or power of the order is computed."""
    import io

    if doc is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 0.5
    assert code == 2 and out == "" and message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "peel"])
@pytest.mark.parametrize("point", [[0, 0, 0], [0, 0, 3]])
def test_zero_vector_in_a_set_exits_2(capsys, tmp_path, command, point):
    """A point whose coordinates are all zero in the field has no projective
    class: the set is refused with that message, not with an index error."""
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"field": {"p": 3, "h": 1, "modulus": [0, 1]}, "points": [point]}))
    code, out, err = run(capsys, command, "--set", str(f))
    assert code == 2 and out == "" and "zero vector" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "peel"])
@pytest.mark.parametrize("key", ["field", "points", "p", "h", "modulus"])
def test_missing_key_in_a_set_exits_2(capsys, tmp_path, command, key):
    """A point set without "field" or "points", or a field without "p", "h"
    or "modulus", is refused with a message that names the key, not with a
    bare KeyError."""
    doc = {"field": {"p": 3, "h": 1, "modulus": [0, 1]}, "points": [[1, 0, 0]]}
    del (doc if key in doc else doc["field"])[key]
    f = tmp_path / "f.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--set", str(f))
    assert code == 2 and out == "" and "Traceback" not in err
    assert f'has no "{key}"' in err and "KeyError" not in err


def test_usage_error_exit_2(capsys):
    assert dispatch(["definitely-not-a-command"]) == 2
    capsys.readouterr()
    assert dispatch(["verify", "--set", "/nonexistent/file.json"]) == 2
    capsys.readouterr()


def test_byte_identical_reports(capsys):
    _, out1, _ = run(capsys, "field-info", "--p", "5", "--h", "1")
    _, out2, _ = run(capsys, "field-info", "--p", "5", "--h", "1")
    assert strip_wall_time(out1) == strip_wall_time(out2)
    as_text1 = json.dumps(strip_wall_time(out1), sort_keys=True)
    as_text2 = json.dumps(strip_wall_time(out2), sort_keys=True)
    assert as_text1 == as_text2

    _, o1, _ = run(capsys, "exterior-extend", "--q", "5")
    _, o2, _ = run(capsys, "exterior-extend", "--q", "5")
    assert strip_wall_time(o1) == strip_wall_time(o2)


def test_enumerate_cli(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "3", "--n", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["count"] == 78


@pytest.mark.parametrize("cmd", ["enumerate", "classify"])
def test_enumerate_size_zero_exits_2(capsys, cmd):
    code, out, err = run(capsys, cmd, "--q", "3", "--n", "0")
    assert code == 2 and out == "" and "n >= 1" in err


def test_classify_cli_pg25(capsys):
    """`classify --q 5 --n 10` prints the two PGL(3,5) classes of tangent-free 10-sets."""
    code, out, err = run(capsys, "classify", "--q", "5", "--n", "10")
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["total_sets"] == 3565
    assert sorted((c["class_size"], c["stabilizer_order"]) for c in res["classes"]) == [(465, 800), (3100, 120)]
    assert all(c.keys() == {"representative", "class_size", "stabilizer_order", "spectrum"} for c in res["classes"])


@pytest.mark.parametrize(
    "argv",
    [
        ("field-info", "--p", "3"),
        ("construct", "--name", "trivial", "--q", "3"),
        ("verify", "--set", "{t3}"),
        ("spectrum", "--set", "{t3}"),
        ("search-min", "--q", "3", "--workers", "1"),
        ("enumerate", "--q", "3", "--n", "6"),
        ("classify", "--q", "3", "--n", "6"),
        ("exterior-extend", "--q", "5"),
        ("exterior-clique", "--q", "5"),
        ("dual-codeword", "--set", "{t3}"),
        ("peel", "--set", "{t3}"),
        ("theoremsuite", "--level", "quick"),
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_prints_one_report(capsys, tmp_path, argv):
    """Each command prints exactly one JSON line on stdout, with its name and
    wall time, and with its field unless it spans many fields."""
    t3 = tmp_path / "t3.json"
    t3.write_text(trivial(3).dump())
    code, out, err = run(capsys, *(a.format(t3=t3) for a in argv))
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["command"] == argv[0]
    assert isinstance(report["wall_time"], float)
    assert ("field" in report) == (argv[0] != "theoremsuite")


def test_theoremsuite_quick(capsys):
    code, out, err = run(capsys, "theoremsuite", "--level", "quick")
    assert code == 0
    obj = json.loads(out)
    assert all(entry["ok"] for entry in obj["results"].values())
    assert {"redei_directions", "pg25_desargues", "external_line_formula"} <= set(obj["results"])
    assert "[ok]" in err


def test_theoremsuite_has_no_workers_option(capsys):
    """The suite's searches run at the job runner's default worker count, so
    the suite takes no --workers: the option is a usage error."""
    code, out, err = run(capsys, "theoremsuite", "--level", "quick", "--workers", "1")
    assert code == 2 and out == ""
    assert "--workers" in err


def test_cli_reports_are_pinned():
    """The reports of search-min, classify, enumerate and the quick suite,
    without their times (`output_manifest.cli_outputs`)."""
    for name, value in cli_outputs().items():
        assert canonical_sha256(value) == PINNED[name], name


def test_theoremsuite_full_runs_every_check():
    """The full level passes every check, among them the classifications,
    the clique searches and the stopping-set equivalence that only it runs."""
    from pg2q.suite import run_suite

    notes = []
    summary, ok = run_suite("full", note=notes.append)
    assert ok and all(entry["ok"] for entry in summary.values()), summary
    assert list(summary) == [
        "censuses_q<=13", "constructions_q<=7", "u3_oracle", "u5", "dichotomy_5_7", "spectrum_system",
        "pg25_ten_set", "redei_directions", "pg25_desargues", "external_line_formula", "codes_quick",
        "secant_bound_p<=5", "censuses_q<=31", "constructions_q<=31", "u7", "classification_pg25",
        "classification_pg27", "dichotomy_q<=13", "cliques_5_7_11", "stopping_equivalence",
    ]
    assert len(notes) == len(summary)


@pytest.mark.parametrize("check,module,name,broken", [
    ("_check_redei_directions", "tangency", "one_mod_p_check", lambda affine, linf: False),
    ("_check_pg25_desargues", "constructions", "verify_desargues", lambda s: False),
    ("_check_external_line_formula", "exterior", "external_line_test_formula", lambda *args: None),
    ("_check_external_line_formula", "conic", "discriminant_point_class", lambda *args: None),
])
def test_theoremsuite_result_checks_fail_on_a_broken_result(monkeypatch, check, module, name, broken):
    # each paper-result check reports the function it states when that function is wrong
    import importlib

    from pg2q import suite

    monkeypatch.setattr(importlib.import_module(f"pg2q.{module}"), name, broken)
    args = {"_check_redei_directions": ([9],), "_check_external_line_formula": ([5],)}.get(check, ())
    ok, detail = getattr(suite, check)(*args)
    assert not ok, detail
