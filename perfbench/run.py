"""The pg2q benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload exact_u --seed 1 --seconds 20 --trace 0

Each round runs in a fresh interpreter (round.py); rounds repeat until
--seconds have passed, and every figure is the median over the rounds.  With
--trace 0 the last line holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced round.  Names and units come from
BENCHMARK.json.  Raw round output goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up is short, so it is sampled this many times per run
LIMIT_S = 170  # a run ends within this, whatever --seconds says


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def round_once(args, started: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra]
    # a fixed string-hash seed, so that dict and set layouts repeat from round to round
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the round and its search pool
        proc.communicate()
        fail(f"a round of {args.workload} did not end within {LIMIT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"a round of {args.workload} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    started = time.monotonic()
    if not (ROOT / "src" / "pg2q" / "__init__.py").is_file():
        fail(f"no pg2q sources under {ROOT / 'src'}; run from the root of a pg2q checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    rounds = []
    while True:
        t = time.monotonic()
        extra = ("--spans", str(OUT / f"spans-{tag}-{len(rounds)}.json")) if args.trace else ()
        rounds.append(round_once(args, started, *extra))
        took = time.monotonic() - t
        elapsed = time.monotonic() - started
        if elapsed >= args.seconds or elapsed + took > LIMIT_S - 20:
            break
    setups = [r["setup_s"] for r in rounds]
    while args.trace == 0 and len(setups) < SETUP_SAMPLES and time.monotonic() - started < LIMIT_S - 30:
        setups.append(round_once(args, started, "--setup-only")["setup_s"])

    if args.trace == 0:
        values = {"setup_s": setups, "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
                  "work_s": [r["work_s"] for r in rounds]}
    else:
        values = {name: [r["layer"][name] for r in rounds] for name in rounds[0]["layer"]}
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    problems = [p for r in rounds for p in r["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": statistics.median(v), "unit": units[name]} for name, v in values.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps({"rounds": rounds, "setup_s": setups, "result": result}, indent=1))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
