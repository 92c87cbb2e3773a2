"""The benchmark's traced round runs on this tree and reports every per-layer metric."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_exact_u_round_reports_every_layer():
    # without --spans a traced round writes nothing; its report is the last stdout line
    cmd = [sys.executable, str(ROOT / "perfbench" / "round.py"), "--workload", "exact_u", "--seed", "1", "--trace", "1"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["problems"] == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(out["layer"]) == {m["name"] for m in spec["per_layer"]}


def test_geometry_round_is_correct():
    # the round checks every answer, the CLI's dual-codeword ones over all three GF(9) moduli among them
    cmd = [sys.executable, str(ROOT / "perfbench" / "round.py"), "--workload", "geometry", "--seed", "1", "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["problems"] == []
    assert out["failed"] == 0
    assert out["attempted"] == 2085  # every checked operation of a seed-1 round
