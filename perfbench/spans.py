"""In-memory spans and the patches that record them.

The traced run measures from outside the program: it replaces a public
name with a wrapper that opens a span, calls the original and closes
the span.  A wrapper is installed where the *caller* looks the name up
-- ``World.step`` calls the ``partition_islands`` bound in
``repro.physics.world``, so that module attribute is the one patched.

Spans stay in memory (a list append per call) and are summarised when
the run ends.  A span's *self time* is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Patcher", "Span", "SpanRecorder", "covered", "self_time"]


class Span:
    """One timed call: name, interval, and the span that caused it."""

    __slots__ = ("name", "start", "end", "parent", "count")

    def __init__(self, name: str, start: float,
                 parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        #: work count taken from the call's result (pairs, rows, ...)
        self.count: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus what its children cover."""
    return span.duration - covered(
        span.start, span.end, ((c.start, c.end) for c in children))


class SpanRecorder:
    """Collects spans per thread; nesting follows the call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``on_result(span, result)``
        runs after the span closes (for counts taken from results)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    def named(self, name: str, parent: Optional[str] = None) -> List[Span]:
        """Spans called ``name`` (whose parent is called ``parent``)."""
        return [s for s in self.spans if s.name == name and (
            parent is None
            or (s.parent is not None and s.parent.name == parent))]

    def children(self) -> Dict[int, List[Span]]:
        """id(parent span) -> its direct child spans."""
        kids: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(id(span.parent), []).append(span)
        return kids


class Patcher:
    """Replaces attributes and puts every original back on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, bool, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, recorder: SpanRecorder, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        self.replace(owner, attr,
                     recorder.wrap(getattr(owner, attr), name, on_result))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:  # was inherited: drop the override
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
