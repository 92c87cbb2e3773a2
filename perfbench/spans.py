"""Spans recorded around the benchmark's calls into pg2q, and the CPU clock.

A span has a name, a start and an end (wall clock, seconds since the round
began), a parent, a few attributes, and the CPU seconds spent inside it.
Spans stay in memory and are written out once, when the round ends.  With
tracing off, `span` returns one shared object whose enter and exit do nothing.
"""

from __future__ import annotations

import json
import resource
import time


def cpu_s() -> float:
    """CPU seconds (user + system) of this process and of its finished children.

    The search pool's workers are children; a pool is joined before its
    search returns, so its work is counted by the time the call ends.  On a
    shared virtual machine the hypervisor takes the CPU away for a varying
    share of wall time ("steal" in /proc/stat); CPU time leaves that out.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class _Null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        tr = self.tracer
        self.rec["parent"] = tr.stack[-1] if tr.stack else None
        tr.stack.append(self.rec["id"])
        self.rec["start"] = time.perf_counter() - tr.t0
        self.rec["cpu"] = cpu_s()
        return self.rec

    def __exit__(self, *exc):
        tr = self.tracer
        self.rec["cpu"] = cpu_s() - self.rec["cpu"]
        self.rec["end"] = time.perf_counter() - tr.t0
        tr.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.t0 = time.perf_counter()

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL
        rec = {"id": len(self.spans), "name": name, "attrs": attrs}
        self.spans.append(rec)
        return _Span(self, rec)

    def select(self, name: str, **attrs) -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total(self, name: str, **attrs) -> float:
        """CPU seconds inside the matching spans."""
        return sum(s["cpu"] for s in self.select(name, **attrs))

    def wall(self, name: str, **attrs) -> float:
        """Wall seconds inside the matching spans."""
        return sum(s["end"] - s["start"] for s in self.select(name, **attrs))

    def overhead_s(self, calls: int = 20000) -> float:
        """What the recorded spans added to the work: the number of spans times
        the cost of one span, measured as the time of empty traced spans minus
        the time of the same spans with tracing off."""
        cost = {}
        for enabled in (False, True):
            probe = Tracer(enabled)
            t = cpu_s()
            for _ in range(calls):
                with probe.span("probe", q=0):
                    pass
            cost[enabled] = cpu_s() - t
        return len(self.spans) * (cost[True] - cost[False]) / calls

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
