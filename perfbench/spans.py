"""In-memory span tracer that wraps trajlab functions from outside.

A `Tracer` replaces named attributes (module functions or class methods) with
wrappers while it is installed, and puts the originals back afterwards, so
untraced calls run the program's own code with nothing in between. A span
records name, start and end (`time.perf_counter_ns`), the enclosing span, the
unit (window or step) id and an optional tag. Counters are kept per unit.
Spans stay in memory until `dump` writes them once, at exit.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, unit, tag)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.unit = -1
        self._stack: list[int] = []
        self._targets: list = []  # (owner, attr, make_wrapper)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[self.unit][name] += amount

    def span(self, owner, attr: str, name: str, on_call=None) -> None:
        """Trace calls to `owner.attr` as spans named `name`.

        `on_call(args)` runs before the call; it may add counts and returns
        the span's tag (or None)."""
        self._targets.append((owner, attr, lambda fn: self._span_wrapper(fn, name, on_call)))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls to `owner.attr` without recording a span."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[self.unit][name] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._targets.append((owner, attr, make))

    def _span_wrapper(self, fn, name, on_call):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            tag = on_call(args) if on_call is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit, tag)
        return wrapper

    @contextmanager
    def installed(self):
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._targets]
        try:
            for (owner, attr, make), (_, _, fn) in zip(self._targets, originals):
                setattr(owner, attr, make(fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    # -- analysis --

    def units(self) -> dict[int, list[int]]:
        """Span indices grouped by unit id."""
        out: dict[int, list[int]] = defaultdict(list)
        for idx, s in enumerate(self.spans):
            out[s[4]].append(idx)
        return out

    def self_times_ns(self, indices: list[int]) -> dict[int, int]:
        """Span duration minus the time its direct child spans cover."""
        own = {i: self.spans[i][2] - self.spans[i][1] for i in indices}
        for i in indices:
            parent = self.spans[i][3]
            if parent in own:
                own[parent] -= self.spans[i][2] - self.spans[i][1]
        return own

    def dump(self, path, extra: dict) -> None:
        payload = {**extra,
                   "span_fields": ["name", "start_ns", "end_ns", "parent", "unit", "tag"],
                   "spans": self.spans,
                   "counts": {str(u): dict(c) for u, c in self.counts.items()}}
        with gzip.open(path, "wt") as f:
            json.dump(payload, f)
