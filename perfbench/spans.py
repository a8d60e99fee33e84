"""In-memory span recorder and the summary statistics the benchmark reports.

A span is one timed call into a package layer: a name, start and end in
nanoseconds, the enclosing span (None at top level) and the run id.  Spans
are kept in a list and written out once, when the run ends.  Self time is
a span's duration minus the time its child spans cover.
"""

import json
import statistics
import time

# Percentiles tried, highest first, when reporting a tail next to a median.
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [len(tracer.spans), name, 0, 0, stack[-1] if stack else None]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record[0])
        self.record[2] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records nested spans when enabled; a disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []  # [id, name, start_ns, end_ns, parent_id]
        self._stack = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def self_times_ns(self, name: str) -> list:
        """Self time of every span called `name`: its duration minus the
        time its direct children cover."""
        covered = {}
        for sid, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0) + end - start
        return [
            end - start - covered.get(sid, 0)
            for sid, n, start, end, _ in self.spans
            if n == name
        ]

    def write(self, path) -> None:
        rows = [
            {"id": sid, "name": name, "start_ns": start, "end_ns": end,
             "parent": parent, "run_id": self.run_id}
            for sid, name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


def summarize(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    out = {"value": statistics.median(samples), "samples": len(samples)}
    n = len(samples)
    for p in _PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            out[f"p{p:g}"] = cuts[round(p * 10) - 1]
            break
    return out
