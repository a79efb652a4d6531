"""In-memory spans recorded around calls into unilap, written when the run ends.

A span is (name, start, end, parent, item). Spans come only from the
benchmark's own files; nothing inside unilap is patched. The untraced
runs use NULL, whose spans do nothing.
"""

import json
import statistics
from time import perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    _span = _NullSpan()

    def span(self, name, item=None):
        return self._span

    def record(self, name, start, end, item=None):
        return None


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "item", "start", "index")

    def __init__(self, tracer, name, item):
        self.tracer, self.name, self.item = tracer, name, item

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        if self.item is None and t.stack:
            self.item = t.stack[-1].item
        t.stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t.stack.pop()
        parent = t.stack[-1].index if t.stack else -1
        t.spans[self.index] = (self.name, self.start, end, parent, self.item)
        return False


class Tracer:
    """Collects spans; a span opened inside another becomes its child."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name, item=None):
        return _Span(self, name, item)

    def record(self, name, start, end, item=None):
        """A span measured by the caller, child of the innermost open span."""
        top = self.stack[-1] if self.stack else None
        if item is None and top is not None:
            item = top.item
        self.spans.append((name, start, end, top.index if top else -1, item))

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - c) for s, c in zip(self.spans, child)]

    def self_ms(self, name):
        """Per-call self times of every span with this name, in ms."""
        return [t * 1e3 for n, t in self.self_times() if n == name]

    def summary(self):
        by_name = {}
        for name, t in self.self_times():
            by_name.setdefault(name, []).append(t * 1e3)
        return {
            name: {"calls": len(v), "self_ms_median": statistics.median(v), "self_ms_total": sum(v)}
            for name, v in sorted(by_name.items())
        }

    def dump(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "summary": self.summary(),
            "spans": [[n, s - origin, e - origin, p, i] for n, s, e, p, i in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
