"""The ``observer=`` object threaded through engine, resilience, and parallel.

An :class:`Observer` bundles one process's :class:`~.metrics.MetricsRegistry`
and :class:`~.tracing.Tracer` behind a single handle, because every
instrumented seam (``OnlineStatisticsEngine``, ``run_lockstep_scan``,
``StreamRuntime``, ``run_sharded_sketch``) wants both.  The module-level
:data:`NULL_OBSERVER` is the default everywhere: a shared, stateless
no-op whose instruments discard everything, so the disabled path costs a
couple of attribute lookups per chunk (gated at <= 3% end-to-end by
``benchmarks/test_observability_overhead.py``).

Cross-process flow (mirrors the shard-seed protocol of
:mod:`repro.parallel`):

1. the coordinator's observer opens a root span and captures
   ``observer.trace_context()``;
2. the context travels inside the :class:`~repro.parallel.worker.ShardTask`
   as plain data; the worker builds a private observer with
   :func:`worker_observer`;
3. the worker ships back ``observer.export()`` — an
   :class:`ObserverSnapshot` of plain data — with its shard result;
4. the coordinator calls :meth:`Observer.absorb` once per shard *in shard
   order*, so merged counters and traces are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    _NULL_COUNTER,
    _NULL_GAUGE,
    _NULL_HISTOGRAM,
)
from .tracing import NullTracer, Span, SpanContext, Tracer

__all__ = [
    "NULL_OBSERVER",
    "Observer",
    "ObserverSnapshot",
    "as_observer",
    "worker_observer",
]


@dataclass(frozen=True)
class ObserverSnapshot:
    """One process's observations as plain picklable data."""

    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    spans: tuple = ()

    def to_dict(self) -> dict:
        """JSON-friendly form (used by the JSONL exporter)."""
        return {
            "metrics": {
                "counters": [
                    [name, list(labels), value]
                    for (name, labels), value in self.metrics.counters.items()
                ],
                "gauges": [
                    [name, list(labels), value]
                    for (name, labels), value in self.metrics.gauges.items()
                ],
                "histograms": [
                    [name, list(labels), hist]
                    for (name, labels), hist in self.metrics.histograms.items()
                ],
            },
            "spans": list(self.spans),
        }


class Observer:
    """Metrics registry + tracer for one process of one logical run.

    Parameters
    ----------
    clock:
        Injectable monotonic timer shared by the tracer (and available to
        instrumented components via :attr:`clock`).
    process:
        Timeline label (``"main"`` in the coordinator, ``"shard-NNN"`` in
        workers).
    parent:
        Propagated :class:`~.tracing.SpanContext` for worker observers.
    trace_id:
        Deterministic id tying the per-process tracers of a run together.
    """

    #: The null observer overrides this with False.
    enabled: bool = True

    __slots__ = ("metrics", "tracer", "clock")

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        process: str = "main",
        parent: Optional[SpanContext] = None,
        trace_id: int = 0,
    ) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            clock, process=process, parent=parent, trace_id=trace_id
        )

    # ------------------------------------------------------------------
    # Instrument access (delegates)
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        """The counter registered under (*name*, *labels*)."""
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge registered under (*name*, *labels*)."""
        return self.metrics.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        """The histogram registered under (*name*, *labels*)."""
        return self.metrics.histogram(name, buckets, **labels)

    def span(self, name: str, **args) -> Span:
        """Open a tracing span (context manager)."""
        return self.tracer.span(name, **args)

    # ------------------------------------------------------------------
    # Cross-process protocol
    # ------------------------------------------------------------------

    def trace_context(self) -> SpanContext:
        """Picklable coordinates for a child process's observer."""
        return self.tracer.current_context()

    def export(self) -> ObserverSnapshot:
        """Freeze everything observed so far into plain data."""
        return ObserverSnapshot(
            metrics=self.metrics.snapshot(),
            spans=tuple(self.tracer.export_spans()),
        )

    def absorb(self, snapshot: Optional[ObserverSnapshot]) -> None:
        """Fold a child process's snapshot into this observer.

        ``None`` is accepted and ignored so coordinators can absorb
        optional worker payloads unconditionally.  Call in fixed shard
        order for deterministic aggregation.
        """
        if snapshot is None:
            return
        self.metrics.absorb(snapshot.metrics)
        self.tracer.absorb(snapshot.spans)

    def __repr__(self) -> str:
        return (
            f"Observer(process={self.tracer.process!r}, "
            f"metrics={self.metrics!r}, spans={len(self.tracer.finished)})"
        )


class _NullObserver(Observer):
    """The shared disabled observer (one instance: :data:`NULL_OBSERVER`)."""

    enabled = False

    __slots__ = ()

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.metrics = NullRegistry()
        self.tracer = NullTracer()

    # Hot loops call these once per chunk; returning the shared no-op
    # instruments directly skips the registry hop (half the cost).

    def counter(self, name: str, **labels) -> Counter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> Gauge:
        """The shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def export(self) -> ObserverSnapshot:
        """An empty snapshot."""
        return ObserverSnapshot()

    def absorb(self, snapshot: Optional[ObserverSnapshot]) -> None:
        """Discard the snapshot."""


#: The process-wide disabled observer; every ``observer=`` argument
#: defaults to it (via :func:`as_observer`).
NULL_OBSERVER = _NullObserver()


def as_observer(observer: Optional[Observer]) -> Observer:
    """Normalize an optional ``observer=`` argument (``None`` → null)."""
    return NULL_OBSERVER if observer is None else observer


def worker_observer(
    index: int,
    parent: Union[SpanContext, tuple, None] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Observer:
    """Build the private observer a pool worker uses for one shard.

    *parent* may be a :class:`~.tracing.SpanContext` or its plain-tuple
    pickled form ``(trace_id, span_id, process)`` as shipped in a
    :class:`~repro.parallel.worker.ShardTask`.
    """
    if isinstance(parent, tuple) and parent:
        parent = SpanContext(
            trace_id=int(parent[0]),
            span_id=int(parent[1]),
            process=str(parent[2]) if len(parent) > 2 else "main",
        )
    elif isinstance(parent, tuple):
        parent = None
    trace_id = parent.trace_id if isinstance(parent, SpanContext) else 0
    return Observer(
        clock,
        process=f"shard-{index:03d}",
        parent=parent if isinstance(parent, SpanContext) else None,
        trace_id=trace_id,
    )
