"""In-memory span recorder and the arithmetic that turns spans into
per-layer figures.

A span is one timed call: a name, start and end times, the span that was
open when it began (its parent) and the operation it belongs to.  Spans are
kept in memory while the benchmark runs and written out when it ends.

A span's self time is its duration minus the durations of its direct
children.  Everything here runs on one thread with strict call nesting, so
children of one span never overlap and their union is their sum.

This module imports nothing from the program under test, so the arithmetic
can be tested on its own (see ``test_spans.py``).
"""

import functools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


_ABSENT = object()


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans, each tagged with the current operation id, and named
    counters and samples summed over operations."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.op = None
        self._stack = []
        self._patches = []

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.op, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed while "
                               f"{top.name!r} is open")
        span.end = self.clock()

    def open_names(self):
        return [s.name for s in self._stack]

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` inside a span called ``name``.  ``before(args, kwargs)``
        runs inside the span before the call, ``after(result, args, kwargs)``
        after it returns; both see the span's parent chain via
        :meth:`open_names`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                self.end(span)

        return traced

    def wrap_iter(self, fn, name):
        """``fn``, which returns an iterable, as a generator traced by one
        span from the first item requested until the iteration ends, so the
        span covers the loop that consumes it, body included."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by its traced wrapper until
        :meth:`restore`."""
        self.replace(owner, attr,
                     self.wrap(owner.__dict__[attr], name, before, after))

    def replace(self, owner, attr, new):
        """Set ``owner.attr`` to ``new`` until :meth:`restore`, which puts
        back the old value or, if ``owner`` had none of its own, removes
        the attribute again."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def records(self):
        return [asdict(s) for s in self.spans]


def self_times(spans):
    """Self time of each span, keyed by span id."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def summarize(spans):
    """Per span name: number of calls, summed total time and summed self
    time.  A name that is nested inside itself counts its total time once
    per level, as a profiler's cumulative time does not; no span used by the
    benchmark recurses."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return dict(out)


def nesting_errors(spans):
    """Spans that end before they start, or that are not contained in
    their parent's interval or operation; empty when the record is sound."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if not s.end >= s.start:
            errors.append(f"span {s.id} {s.name!r} ends before it starts")
        if s.parent is None:
            continue
        p = by_id[s.parent]
        if s.start < p.start or s.end > p.end:
            errors.append(f"span {s.id} {s.name!r} leaves parent "
                          f"{p.id} {p.name!r}")
        if s.op != p.op:
            errors.append(f"span {s.id} {s.name!r} is in op {s.op}, "
                          f"its parent in op {p.op}")
    return errors
