"""Per-layer metrics of the traced run, and the table that explains them.

:meth:`Instrumentation.install` wraps each layer's public entry point
with a span (see ``spans.py``) and splices a metering kernel backend
around the active one; :func:`per_layer` turns the spans, the kernel
meter and the phase's own results into the per-layer figures.  :data:`LAYER_METRICS`
names each figure with its unit, its better direction and the
end-to-end metric, on the workload, it is expected to move.
"""

from __future__ import annotations

from statistics import median

import harness
import spans
import workloads
from repro.core.load_shedding import LoadShedder
from repro.dataplane import FileSource, MicroBatchSource, Pipeline
from repro.dataplane import sources as dataplane_sources
from repro.engine import OnlineStatisticsEngine
from repro.kernels import get_backend, set_backend
from repro.observability import Observer, ProfilingKernelBackend
from repro.serving import SketchRegistry
from repro.sketches import FagmsSketch
from repro.streams import io as stream_io

#: The kernel primitives the reference workload crosses.
KERNEL_OPS = ("bucket_indices", "parity_signs", "signed_scatter_add", "gather")
#: In-process query entry points, by the op name the metrics use.
QUERY_METHODS = {
    "point": "point_query",
    "self_join": "self_join_query",
    "join": "join_query",
    "expression": "expression_query",
}

_INGEST = "ingest_tuples_per_ref_s on bulk_ingest"
_SHED = "ingest_tuples_per_ref_s on shed_microbatch"
_QUERY = "query_p50_ref_ms and query_p99_ms on serve_live"

#: (name, unit, better, what it should move) for every per-layer metric.
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    *(
        (f"kernels.{op}.{field}", unit, "lower",
         "query_p50_ref_ms on serve_live" if op == "gather"
         else f"{_INGEST}; little effect on shed_microbatch")
        for op in KERNEL_OPS
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("bytes", "bytes"))
    ),
    ("kernels.row_updates_per_busy_s", "1/s", "higher", _INGEST),
    ("sketches.update.calls", "count", "lower", _INGEST),
    ("sketches.update.busy_s", "s", "lower", _INGEST),
    ("sketches.update.self_s", "s", "lower", _INGEST),
    ("sketches.update.tuples_per_busy_s", "1/s", "higher", _INGEST),
    ("sketches.update.share_of_parent", "ratio", "higher", _INGEST),
    ("engine.consume.busy_s", "s", "lower", f"{_SHED}; none on bulk_ingest"),
    ("engine.consume.self_s", "s", "lower", f"{_SHED}; none on bulk_ingest"),
    ("engine.snapshot.calls", "count", "lower", f"{_SHED}; query_p99_ms on serve_live"),
    ("engine.snapshot.busy_s", "s", "lower", f"{_SHED}; query_p99_ms on serve_live"),
    ("engine.snapshot.bytes_copied", "bytes", "lower", f"{_SHED}; query_p99_ms on serve_live"),
    ("core.shed.busy_share", "ratio", "lower", f"{_SHED} only"),
    ("core.shed.kept_ratio", "ratio", "higher", f"{_SHED} only"),
    ("streams.read.busy_s", "s", "lower", f"{_INGEST}; mem_peak_mb on bulk_ingest"),
    ("dataplane.run.busy_s", "s", "lower", f"{_SHED}; {_INGEST}"),
    ("dataplane.run.self_s", "s", "lower", f"{_SHED} (per-envelope overhead)"),
    ("dataplane.envelopes", "count", "lower", f"{_SHED} (per-envelope overhead)"),
    ("dataplane.source.busy_s", "s", "lower", f"{_SHED}; {_INGEST}"),
    ("dataplane.queue.put_wait_s", "s", "lower", f"{_INGEST} (producer/consumer overlap)"),
    ("dataplane.queue.get_wait_s", "s", "lower", f"{_INGEST} (producer/consumer overlap)"),
    ("dataplane.queue.max_depth", "count", "lower", "mem_peak_mb on bulk_ingest"),
    ("serving.registry.ingest.calls", "count", "lower", f"{_SHED}; query_p99_ms on serve_live"),
    ("serving.registry.ingest.busy_s", "s", "lower", f"ingest_tuples_per_ref_s on every workload; {_QUERY}"),
    ("serving.registry.ingest.self_s", "s", "lower", f"{_SHED}; query_p99_ms on serve_live"),
    ("serving.registry.rotate.calls", "count", "lower", f"{_QUERY}; {_SHED}"),
    ("serving.registry.rotate.busy_s", "s", "lower", f"{_QUERY}; {_SHED}"),
    *(
        (f"serving.registry.query.{op}.{stat}", "us", "lower", _QUERY)
        for op in QUERY_METHODS
        for stat in ("p50_us", "p99_us")
    ),
    ("serving.registry.staleness_p50_ms", "ms", "lower", "query freshness on serve_live"),
    ("serving.http.overhead_p50_ms", "ms", "lower", "query_p50_ref_ms on serve_live"),
    ("loadgen.query_p99_ms", "ms", "lower", "query_p99_ms itself, ungated: it moves with host steal"),
    ("loadgen.sent", "count", "higher", "validity guard: requests the generator sent"),
    ("loadgen.late_p99_ms", "ms", "lower", "validity guard: generator lateness"),
    ("loadgen.connections", "count", "higher", "validity guard: keep-alive connections used"),
    ("trace.overhead_ratio", "ratio", "higher", "traced over untraced ingest_tuples_per_ref_s"),
)


class _TracedKernels(ProfilingKernelBackend):
    """The library's kernel meter, plus a span per primitive call.

    The spans make kernel time a child of ``sketches.update`` (and of
    the query spans for ``gather``), so callers' self time excludes it.
    """

    def __init__(self, inner, observer: Observer, tracer: spans.Tracer) -> None:
        super().__init__(inner, observer)
        self.tracer = tracer

    def bucket_indices(self, coefficients, keys, buckets):
        with self.tracer.span("kernels.bucket_indices"):
            return super().bucket_indices(coefficients, keys, buckets)

    def parity_signs(self, coefficients, keys):
        with self.tracer.span("kernels.parity_signs"):
            return super().parity_signs(coefficients, keys)

    def signed_scatter_add(self, counters, indices, signs, weights=None):
        with self.tracer.span("kernels.signed_scatter_add"):
            return super().signed_scatter_add(counters, indices, signs, weights)

    def gather(self, counters, indices):
        with self.tracer.span("kernels.gather"):
            return super().gather(counters, indices)


class Instrumentation:
    """Spans on every layer's entry points, and the kernel meter."""

    def __init__(self) -> None:
        self.tracer = spans.Tracer()
        self.observer = Observer()
        self.bytes_copied = 0
        self._frozen: dict = {}
        #: The backend the default selection chose, metered while installed.
        self.inner = get_backend()

    def _count_copies(self, args, snapshot) -> None:
        engine = args[0]
        for name in snapshot.names:
            counters = snapshot.relation(name).counters
            key = (id(engine), name)
            if self._frozen.get(key) is not counters:
                self._frozen[key] = counters
                self.bytes_copied += counters.nbytes

    def install(self) -> None:
        """Wrap every layer and splice the kernel meter into the seam."""
        patch = self.tracer.patch
        patch(Pipeline, "run", "dataplane.run", host=True)
        for source in (FileSource, MicroBatchSource):
            patch(source, "envelopes", "dataplane.source", generator=True, adopt=True)
        for module in (dataplane_sources, stream_io):
            patch(module, "iter_chunks", "streams.read", generator=True, adopt=True)
        patch(LoadShedder, "filter", "core.shed")
        patch(SketchRegistry, "ingest", "serving.registry.ingest")
        patch(SketchRegistry, "rotate", "serving.registry.rotate")
        for op, method in QUERY_METHODS.items():
            patch(SketchRegistry, method, f"serving.registry.query.{op}")
        patch(OnlineStatisticsEngine, "consume", "engine.consume")
        patch(OnlineStatisticsEngine, "snapshot", "engine.snapshot",
              on_return=self._count_copies)
        patch(FagmsSketch, "update", "sketches.update")
        set_backend(_TracedKernels(self.inner, self.observer, self.tracer))

    def close(self) -> None:
        """Restore the active backend and every wrapped entry point."""
        set_backend(self.inner)
        self.tracer.close()


def _kernel_figures(observer: Observer, backend: str) -> dict:
    snapshot = observer.metrics.snapshot()
    figures = {}
    busy = {}
    for op in KERNEL_OPS:
        labels = tuple(sorted((("op", op), ("backend", backend))))
        hist = snapshot.histograms.get(("kernels.op.seconds", labels))
        busy[op] = hist["total"] if hist else 0.0
        figures[f"kernels.{op}.calls"] = snapshot.counter_value("kernels.ops", op=op, backend=backend)
        figures[f"kernels.{op}.busy_s"] = busy[op]
        figures[f"kernels.{op}.bytes"] = snapshot.counter_value("kernels.bytes", op=op, backend=backend)
    update_busy = busy["bucket_indices"] + busy["parity_signs"] + busy["signed_scatter_add"]
    rows = snapshot.counter_value("kernels.rows", op="signed_scatter_add", backend=backend)
    figures["kernels.row_updates_per_busy_s"] = rows / update_busy if update_busy else 0.0
    return figures


def _percentiles_us(durations: list[float]) -> tuple[float, float]:
    if len(durations) <= 10:
        return 0.0, 0.0
    return (1e6 * median(durations),
            1e6 * harness.tail_percentile(durations)[1])


def per_layer(
    workload: str,
    inst: Instrumentation,
    traced: workloads.Phase,
    untraced: workloads.Phase,
) -> dict:
    """Every per-layer figure of one traced phase, by metric name."""
    recorded = inst.tracer.spans
    layer = spans.totals(recorded)
    empty = spans.LayerTotals(0, 0.0, 0.0)

    def get(name: str) -> spans.LayerTotals:
        return layer.get(name, empty)

    figures = _kernel_figures(inst.observer, inst.inner.name)
    update = get("sketches.update")
    consume = get("engine.consume")
    tuples_updated = sum(p.result.tuples_out for p in traced.passes)
    figures.update({
        "sketches.update.calls": update.calls,
        "sketches.update.busy_s": update.busy_s,
        "sketches.update.self_s": update.self_s,
        "sketches.update.tuples_per_busy_s": tuples_updated / update.busy_s if update.busy_s else 0.0,
        "sketches.update.share_of_parent": update.busy_s / consume.busy_s if consume.busy_s else 0.0,
        "engine.consume.busy_s": consume.busy_s,
        "engine.consume.self_s": consume.self_s,
        "engine.snapshot.calls": get("engine.snapshot").calls,
        "engine.snapshot.busy_s": get("engine.snapshot").busy_s,
        "engine.snapshot.bytes_copied": inst.bytes_copied,
    })

    run = get("dataplane.run")
    offered = sum(p.result.tuples_in for p in traced.passes)
    results = [p.result for p in traced.passes]
    figures.update({
        "core.shed.busy_share": get("core.shed").busy_s / run.busy_s if run.busy_s else 0.0,
        "core.shed.kept_ratio": tuples_updated / offered if offered else 0.0,
        "streams.read.busy_s": get("streams.read").busy_s,
        "dataplane.run.busy_s": run.busy_s,
        "dataplane.run.self_s": run.self_s,
        "dataplane.envelopes": sum(r.envelopes for r in results),
        "dataplane.source.busy_s": get("dataplane.source").busy_s,
        "dataplane.queue.put_wait_s": median([r.queue_put_wait or 0.0 for r in results]),
        "dataplane.queue.get_wait_s": median([r.queue_get_wait or 0.0 for r in results]),
        "dataplane.queue.max_depth": max(r.max_queue_depth for r in results),
    })

    registry_ingest = get("serving.registry.ingest")
    figures.update({
        "serving.registry.ingest.calls": registry_ingest.calls,
        "serving.registry.ingest.busy_s": registry_ingest.busy_s,
        "serving.registry.ingest.self_s": registry_ingest.self_s,
    })
    # A rotation is a snapshot the registry publishes: the policy's, made
    # inside ingest, and the forced ones of rotate().
    registry_ids = {
        s.id for s in recorded
        if s.name in ("serving.registry.ingest", "serving.registry.rotate")
    }
    rotations = [s for s in recorded if s.name == "engine.snapshot" and s.parent in registry_ids]
    figures["serving.registry.rotate.calls"] = len(rotations)
    figures["serving.registry.rotate.busy_s"] = sum(s.duration for s in rotations)

    query_spans = []
    for op in QUERY_METHODS:
        durations = [s.duration for s in recorded if s.name == f"serving.registry.query.{op}"]
        query_spans += durations
        p50, p99 = _percentiles_us(durations)
        figures[f"serving.registry.query.{op}.p50_us"] = p50
        figures[f"serving.registry.query.{op}.p99_us"] = p99

    records = traced.queries["records"]
    answered = [r for r in records if not workloads.is_error(r)]
    staleness = [value for r in answered for value in r["staleness"]]
    client_p50_ms = median(workloads.latencies_ms(traced))
    figures["serving.registry.staleness_p50_ms"] = 1000.0 * median(staleness) if staleness else 0.0
    figures["serving.http.overhead_p50_ms"] = (
        client_p50_ms - 1000.0 * median(query_spans) if query_spans else 0.0
    )
    figures["loadgen.query_p99_ms"] = harness.windowed_tail(workloads.latencies_ms(traced))[1]
    figures["loadgen.sent"] = len(records)
    figures["loadgen.late_p99_ms"] = 1000.0 * harness.tail_percentile([r["late"] for r in records])[1]
    figures["loadgen.connections"] = len({r["connection"] for r in records})
    figures["trace.overhead_ratio"] = (
        workloads.ingest_rate(workload, traced, reference=True)
        / workloads.ingest_rate(workload, untraced, reference=True)
    )
    return figures
