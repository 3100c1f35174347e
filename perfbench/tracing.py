"""In-memory spans around the benchmark's calls into each package layer.

A span is ``[name, start_s, end_s, parent_index]`` (parent -1 for a
root).  Spans stay in memory while the benchmark runs and are written
out once at the end.  A layer's self time is its span's duration minus
the time its child spans cover.
"""

import json
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), 0.0, t.stack[-1] if t.stack else -1])
        t.stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t.stack.pop()


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name):
        return _Span(self, name)

    def self_times(self, root):
        """Self time summed by span name over the tree under ``root``."""
        children = defaultdict(float)
        names = {}
        totals = defaultdict(float)
        # Spans are appended in start order, so every descendant of the
        # root follows it and a parent index precedes its children.
        for i in range(root, len(self.spans)):
            name, start, end, parent = self.spans[i]
            if i != root and parent not in names:
                break
            names[i] = name
            if i != root:
                children[parent] += end - start
        for i, name in names.items():
            _, start, end, _ = self.spans[i]
            totals[name] += (end - start) - children[i]
        return dict(totals), len(names)

    def dump(self, path, labels):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": labels, "spans": self.spans}, fh, separators=(",", ":"))


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    _NULL = nullcontext()

    def span(self, name):
        return self._NULL
