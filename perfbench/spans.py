"""In-memory span tracing for the benchmark's traced run.

The library is not instrumented for this benchmark: a :class:`Tracer`
wraps the public entry points of each layer from the outside (see
``layers.py``) and records one :class:`Span` per call.  Spans carry a
parent, found through a per-thread stack, and a request id shared by
every span under one root, so a chunk's path from ``dataplane.run``
down to the kernels is one tree.  Spans stay in memory until the run
ends and are then written out as JSON lines.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`); children on other
threads may overlap each other, so the covered part is the union of
their intervals, clipped to the parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    """One timed call into a layer."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int
    thread: int

    @property
    def duration(self) -> float:
        """Seconds between start and end."""
        return self.end - self.start


class _Open:
    """An open span: the context manager :meth:`Tracer.span` returns."""

    __slots__ = ("tracer", "name", "adopt", "host", "span_id", "parent",
                 "request", "previous_host", "start")

    def __init__(self, tracer: "Tracer", name: str, adopt: bool, host: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.adopt = adopt
        self.host = host

    def __enter__(self) -> int:
        tracer = self.tracer
        stack = tracer._stack()
        if stack:
            self.parent, request = stack[-1]
        elif self.adopt and tracer._host is not None:
            self.parent, request = tracer._host
        else:
            self.parent, request = None, None
        self.span_id = span_id = next(tracer._ids)
        self.request = span_id if request is None else request
        stack.append((span_id, self.request))
        if self.host:
            self.previous_host = tracer._host
            tracer._host = (span_id, self.request)
        self.start = tracer.clock()
        return span_id

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = tracer.clock()
        tracer._stack().pop()
        if self.host:
            tracer._host = self.previous_host
        tracer.spans.append(Span(
            self.span_id, self.name, self.start, end, self.parent, self.request,
            threading.get_ident(),
        ))


class Tracer:
    """Records spans around wrapped calls; restores every wrap on close.

    ``adopt=True`` wrappers opened on a thread with no open span take
    the innermost *host* span as their parent (a ``host=True`` wrapper,
    e.g. ``Pipeline.run``), which ties the dataplane's producer thread
    to the run that started it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._host: Optional[tuple[int, int]] = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, adopt: bool = False, host: bool = False) -> _Open:
        """Context manager timing its body as one span; enters to its id."""
        return _Open(self, name, adopt, host)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        adopt: bool = False,
        host: bool = False,
        generator: bool = False,
        on_return: Optional[Callable] = None,
    ) -> Callable:
        """A traced stand-in for *fn*.

        ``generator=True`` times every ``next()`` of the returned
        iterator as its own span instead of the (instant) call;
        *on_return* sees ``(args, result)`` after each call.
        """
        if generator:

            @functools.wraps(fn)
            def traced_iter(*args, **kwargs):
                iterator = iter(fn(*args, **kwargs))
                while True:
                    with self.span(name, adopt=adopt):
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    yield item

            return traced_iter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, adopt=adopt, host=host):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`close`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def close(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every recorded span to *path* as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of half-open intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        ]
        out[span.id] = max(0.0, span.duration - _covered(clipped))
    return out


class LayerTotals(NamedTuple):
    """Calls, busy seconds and self seconds of one span name."""

    calls: int
    busy_s: float
    self_s: float


def totals(spans: Iterable[Span]) -> dict[str, LayerTotals]:
    """Per span name: call count, summed duration and summed self time."""
    spans = list(spans)
    own = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
    return {
        name: LayerTotals(calls[name], busy[name], self_s[name]) for name in calls
    }
