"""One round of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/round.py --workload geometry --seed 1 --trace 0
    python3 perfbench/round.py --workload geometry --seed 1 --trace 0 --setup-only

run.py starts this once per round, so that pg2q's per-process caches start
empty every time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))  # measure the pg2q of this checkout, never an installed copy

import spans  # noqa: E402
import stages  # noqa: E402


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and that of its finished children (the search pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=stages.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, default=None, help="where a traced round writes its spans")
    args = ap.parse_args()

    tracer = spans.Tracer(bool(args.trace))
    rd = stages.Round(args.workload, args.seed, tracer)
    out = {"setup_s": rd.setup()}
    import pg2q

    if Path(pg2q.__file__).resolve().parent != SRC / "pg2q":
        print(f"pg2q was imported from {pg2q.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if not args.setup_only:
        rd.run()
        out.update(times=rd.times, work_s=sum(rd.times.values()), peak_rss_mb=peak_rss_mb(),
                   attempted=rd.attempted, failed=rd.failed, problems=rd.problems, wall_s=rd.wall)
        if args.trace:
            out["layer"] = rd.layer_metrics()
            if args.spans:
                tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
