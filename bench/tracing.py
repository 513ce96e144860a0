"""In-memory spans around the benchmark's calls into bridgegen's layers.

A span records its name, start, end, parent span and the id of the
program (or run) it belongs to. Spans stay in a list until the run ends;
:meth:`Tracer.write` then saves them as JSON. A layer's self time is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, trace id, failed]
        self.spans = []
        self._stack = []
        self.trace_id = 0

    def call(self, name, fn, *args):
        """``fn(*args)`` inside a span named ``name``."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.trace_id, False]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args)
        except Exception:
            span[5] = True
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def totals(self):
        """Summed self time per span name."""
        out = defaultdict(float)
        for span, t in zip(self.spans, self.self_times()):
            out[span[0]] += t
        return out

    def failures(self):
        """Spans that raised, per span name; a failure is counted in the
        innermost span it passed through."""
        failed_child = set()
        out = defaultdict(int)
        for i in range(len(self.spans) - 1, -1, -1):
            name, _, _, parent, _, failed = self.spans[i]
            if failed and i not in failed_child:
                out[name] += 1
            if failed and parent >= 0:
                failed_child.add(parent)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "trace_id",
                                  "failed"],
                       "spans": self.spans}, f)


def direct(name, fn, *args):
    """Untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args)


def scaling_exponent(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
