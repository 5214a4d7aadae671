"""In-memory spans and counters for the traced run.

A span is (name, start, end, parent); a layer's self time is its duration
minus the durations of the spans it directly caused.  Wrappers installed with
``rebound`` live only inside the traced process and are removed when the
traced loop ends, so the untraced run executes the package unmodified.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name: str, on_call=None):
        """fn inside a span; ``on_call(args, result)`` may add counters."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def counted(self, fn, name: str):
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self duration, over the
        spans recorded from index ``first`` on."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for offset, (name, start, end, _) in enumerate(self.spans[first:]):
            agg = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child_time[first + offset]
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "counts": dict(self.counts),
        }


@contextmanager
def rebound(patches):
    """Temporarily set ``obj.attr = value`` for each (obj, attr, value)."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
