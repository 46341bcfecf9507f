"""In-memory spans and counters for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into the
library; nothing inside ``lacuna`` is instrumented.  Each span carries
a name, start and end (``time.perf_counter`` seconds), the id of the
span that encloses it and the id of the pass it belongs to.  Counters
are kept per pass.  Everything stays in memory until ``write_jsonl``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class NullTracer:
    """Stand-in used by untraced passes: records nothing."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.pass_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": None,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[self.pass_id][name] += n

    def passes(self):
        return sorted({s["pass"] for s in self.spans if s["pass"] is not None})

    def busy_s(self, name):
        """Median over traced passes of the summed duration of spans `name`."""
        per_pass = defaultdict(float)
        for s in self.spans:
            if s["name"] == name:
                per_pass[s["pass"]] += s["end"] - s["start"]
        return statistics.median(per_pass.get(p, 0.0) for p in self.passes())

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def calls(self, name=None):
        """Median over traced passes of the number of spans `name`, or of
        all spans when `name` is None."""
        per_pass = defaultdict(int)
        for s in self.spans:
            if name is None or s["name"] == name:
                per_pass[s["pass"]] += 1
        return statistics.median(per_pass.get(p, 0) for p in self.passes())

    def total(self, name):
        """Median over traced passes of counter `name`."""
        return statistics.median(self.counts[p].get(name, 0.0) for p in self.passes())

    def ratio(self, num, den):
        d = self.total(den)
        return self.total(num) / d if d else 0.0

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            for p in sorted(self.counts, key=str):
                fh.write(
                    json.dumps({"pass": p, "counts": dict(self.counts[p])}, sort_keys=True)
                    + "\n"
                )


def span_cost_s(batches=10, n=1000):
    """Wall time of one empty span: the fastest of `batches` batches of `n`
    spans, each on a throwaway tracer so that no batch pays for the
    garbage collector walking the spans of the one before."""
    best = float("inf")
    for _ in range(batches):
        probe = Tracer()
        probe.pass_id = 0
        start = time.perf_counter()
        for _ in range(n):
            with probe.span("calibrate"):
                pass
        best = min(best, (time.perf_counter() - start) / n)
    return best
