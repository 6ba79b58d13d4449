"""Spans and counts recorded around dishrec's public calls.

The tracer lives in the benchmark, not in the package: it replaces the names
that callers resolve at call time (module attributes such as
``pipeline.normalize_reviews``, or class attributes such as
``Recommender.side_score``) with wrappers that record a span, and puts the
originals back on ``uninstall``. Spans are kept in memory as
``[name, start_ns, end_ns, parent_index, tag, value]`` and written out as
JSON once, at the end of a phase.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, TAG, VALUE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.missing: list[str] = []  # names a later version of the package no longer has

    def wrap(self, owner, attr, name, tag=None, value=None, skip_under=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        tag(args, kwargs) labels the span (for example by method); value(args,
        kwargs, result) attaches a count taken at the same boundary. A call
        made while the innermost open span is ``skip_under`` passes through
        unrecorded, so an inner loop of a traced call adds no spans.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if skip_under is not None and stack and spans[stack[-1]][NAME] == skip_under:
                return original(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1,
                    tag(args, kwargs) if tag else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if value is not None:
                span[VALUE] = value(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def select(self, name, parent=None, tag=None):
        """Spans named ``name``, optionally only those whose direct parent
        span is named ``parent`` and whose tag equals ``tag``."""
        spans = self.spans
        return [
            s for s in spans
            if s[NAME] == name
            and (parent is None or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent))
            and (tag is None or s[TAG] == tag)
        ]

    def total_ns(self, name, parent=None, tag=None) -> int:
        return sum(s[END] - s[START] for s in self.select(name, parent, tag))

    def child_ns(self) -> dict[int, int]:
        """Span index -> time covered by its direct child spans."""
        covered = defaultdict(int)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return covered

    def self_ns(self, name) -> int:
        covered = self.child_ns()
        return sum(
            s[END] - s[START] - covered[i]
            for i, s in enumerate(self.spans) if s[NAME] == name
        )

    def write(self, path):
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "tag", "value"],
            "names": names,
            "spans": [[index[s[NAME]], *s[1:]] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_call(total, calls):
    """total / calls; None when nothing was called or counted, which the run
    reports as a problem rather than as a figure (see ``Tracer.missing``)."""
    return total / calls if calls else None
