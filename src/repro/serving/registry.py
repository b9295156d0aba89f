"""Named stream registry: ingest runtimes paired with published snapshots.

A :class:`SketchRegistry` owns one
:class:`~repro.engine.statistics.OnlineStatisticsEngine` per *named
stream* (each engine holds a single relation named after the stream).
All engines share one seed, so every stream's sketch view is compatible
with every other's — joins and set expressions across streams are
meaningful.

The concurrency contract:

* **Ingest** (:meth:`SketchRegistry.ingest`, or the background threads
  started by :meth:`start_ingest`) takes the stream's lock, consumes the
  chunk, and — when the rotation policy says so — publishes a fresh
  :class:`~repro.engine.snapshot.EngineSnapshot`.
* **Queries** never take the ingest lock: they read the stream's
  ``latest`` snapshot reference (a single attribute read — atomic under
  the GIL) and evaluate entirely against its frozen counters.  A query
  can therefore never block ingestion, never observe a torn update, and
  two reads inside one query see one consistent state.

Rotation is **atomic replacement**: the snapshot is fully built before
the reference is swapped, and generations are strictly monotone, so
concurrent readers observe a prefix-consistent, monotone sequence of
states (asserted by ``tests/serving/test_concurrent_consistency.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from ..engine.snapshot import (
    EngineSnapshot,
    join_size_between,
    join_variance_between,
)
from ..engine.statistics import OnlineStatisticsEngine
from ..errors import ConfigurationError
from ..observability.observer import Observer, as_observer
from ..rng import SeedLike, as_seed_sequence
from ..variance.bounds import ConfidenceInterval, chebyshev_interval, clt_interval
from .expressions import evaluate_expression

__all__ = ["QueryResult", "RotationPolicy", "SketchRegistry", "StreamMeta"]


@dataclass(frozen=True)
class RotationPolicy:
    """When ingestion publishes a fresh snapshot.

    ``every_chunks`` rotates after that many consumed chunks;
    ``min_interval`` additionally holds a rotation back until that many
    seconds have passed since the last one (0 disables the hold-back).
    A chunk that arrives while the interval gate is closed defers the
    rotation to the next eligible chunk — readers keep the old snapshot,
    never a partial one.
    """

    every_chunks: int = 1
    min_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.every_chunks < 1:
            raise ConfigurationError(
                f"every_chunks must be >= 1, got {self.every_chunks}"
            )
        if self.min_interval < 0:
            raise ConfigurationError(
                f"min_interval must be >= 0, got {self.min_interval}"
            )


@dataclass(frozen=True)
class StreamMeta:
    """Snapshot provenance attached to every query answer."""

    name: str
    generation: int
    scanned: int
    total: int
    fraction: float
    staleness_seconds: float


@dataclass(frozen=True)
class QueryResult:
    """One served estimate with its interval and provenance."""

    op: str
    estimate: float
    interval: ConfidenceInterval
    variance_bound: float
    streams: tuple[StreamMeta, ...]


@dataclass
class _Stream:
    """One named stream: its private engine and the published snapshot."""

    name: str
    engine: OnlineStatisticsEngine
    policy: RotationPolicy
    lock: threading.Lock = field(default_factory=threading.Lock)
    latest: Optional[EngineSnapshot] = None
    chunks_since_rotation: int = 0
    rotated_at: float = 0.0
    ingest_thread: Optional[threading.Thread] = None


class SketchRegistry:
    """Registry of named streams served concurrently with ingestion.

    Parameters
    ----------
    buckets, rows, seed:
        Shape and seed of every stream's F-AGMS sketch.  One seed for
        the whole registry — cross-stream joins and set expressions
        require shared hash families.
    policy:
        Default :class:`RotationPolicy` (per-stream override in
        :meth:`register_stream`).
    clock:
        Injectable monotonic timer for rotation intervals and staleness.
    observer:
        Receives ``serving.*`` counters/histograms/spans for rotations
        and queries, with per-stream labels.
    """

    def __init__(
        self,
        buckets: int = 4096,
        rows: int = 1,
        seed: SeedLike = None,
        *,
        policy: Optional[RotationPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        observer: Optional[Observer] = None,
    ) -> None:
        self._buckets = buckets
        self._rows = rows
        # Every stream's engine must derive IDENTICAL hash families, or
        # cross-stream joins/expressions are meaningless.  SeedSequence
        # spawning is stateful, so the root sequence cannot be shared —
        # instead its entropy is captured once and an equivalent fresh
        # sequence is rebuilt per stream.
        root = as_seed_sequence(seed)
        self._entropy = root.entropy
        self._spawn_key = root.spawn_key
        self._policy = policy or RotationPolicy()
        self._clock = clock
        self._observer = as_observer(observer)
        self._streams: dict[str, _Stream] = {}
        self._registry_lock = threading.Lock()

    @property
    def observer(self) -> Observer:
        """The attached observer."""
        return self._observer

    @property
    def streams(self) -> tuple[str, ...]:
        """Registered stream names."""
        return tuple(self._streams)

    # ------------------------------------------------------------------
    # Registration and ingest
    # ------------------------------------------------------------------

    def register_stream(
        self,
        name: str,
        total_tuples: int,
        *,
        policy: Optional[RotationPolicy] = None,
    ) -> None:
        """Register a named stream (its declared cardinality is required).

        An empty initial snapshot (generation 0) is published at once, so
        the stream is queryable — returning zero-scanned metadata, and
        estimate errors where the paper's corrections need data — from
        the moment it exists.
        """
        with self._registry_lock:
            if name in self._streams:
                raise ConfigurationError(f"stream {name!r} already registered")
            engine = OnlineStatisticsEngine(
                self._buckets,
                self._rows,
                np.random.SeedSequence(
                    self._entropy, spawn_key=self._spawn_key
                ),
                observer=None,
            )
            engine.register(name, total_tuples)
            stream = _Stream(
                name=name,
                engine=engine,
                policy=policy or self._policy,
                rotated_at=self._clock(),
            )
            stream.latest = engine.snapshot()
            self._streams[name] = stream

    def _stream(self, name: str) -> _Stream:
        try:
            return self._streams[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown stream {name!r}; registered: {self.streams}"
            ) from None

    def ingest(self, name: str, keys) -> None:
        """Consume one chunk into a stream, rotating per its policy."""
        stream = self._stream(name)
        with stream.lock:
            stream.engine.consume(name, keys)
            stream.chunks_since_rotation += 1
            self._observer.counter("serving.ingest.chunks", stream=name).inc()
            if self._rotation_due(stream):
                self._rotate(stream)

    def _rotation_due(self, stream: _Stream) -> bool:
        if stream.chunks_since_rotation < stream.policy.every_chunks:
            return False
        if stream.policy.min_interval > 0.0:
            elapsed = self._clock() - stream.rotated_at
            if elapsed < stream.policy.min_interval:
                return False
        return True

    def _rotate(self, stream: _Stream) -> None:
        started = self._clock()
        snapshot = stream.engine.snapshot()
        stream.latest = snapshot  # atomic reference swap — the publication
        stream.chunks_since_rotation = 0
        stream.rotated_at = started
        self._observer.counter("serving.rotations", stream=stream.name).inc()
        self._observer.histogram("serving.rotation.seconds").observe(
            self._clock() - started
        )
        self._observer.gauge(
            "serving.snapshot.generation", stream=stream.name
        ).set(snapshot.generation)

    def rotate(self, name: str) -> EngineSnapshot:
        """Force an immediate rotation (policy gates bypassed)."""
        stream = self._stream(name)
        with stream.lock:
            self._rotate(stream)
            return stream.latest

    def start_ingest(
        self, name: str, chunks: Iterable, *, final_rotate: bool = True
    ) -> threading.Thread:
        """Drain *chunks* into the stream on a daemon thread.

        Returns the started thread (join it to wait for completion).
        With ``final_rotate`` a rotation is forced after the last chunk,
        so the published snapshot catches up with everything ingested.
        """
        stream = self._stream(name)
        if stream.ingest_thread is not None and stream.ingest_thread.is_alive():
            raise ConfigurationError(f"stream {name!r} is already ingesting")

        def _drain() -> None:
            for chunk in chunks:
                self.ingest(name, chunk)
            if final_rotate:
                self.rotate(name)

        thread = threading.Thread(
            target=_drain, name=f"serving-ingest-{name}", daemon=True
        )
        stream.ingest_thread = thread
        thread.start()
        return thread

    def wait_ingest(self, name: Optional[str] = None, timeout: Optional[float] = None) -> None:
        """Join one stream's (or every stream's) background ingest thread."""
        names = [name] if name is not None else list(self._streams)
        for each in names:
            thread = self._stream(each).ingest_thread
            if thread is not None:
                thread.join(timeout)

    # ------------------------------------------------------------------
    # Queries (lock-free: evaluate against the published snapshot)
    # ------------------------------------------------------------------

    def snapshot(self, name: str) -> EngineSnapshot:
        """The stream's latest published snapshot (never blocks ingest)."""
        return self._stream(name).latest

    def _meta(self, stream: _Stream, snapshot: EngineSnapshot) -> StreamMeta:
        relation = snapshot.relation(stream.name)
        return StreamMeta(
            name=stream.name,
            generation=snapshot.generation,
            scanned=relation.scanned,
            total=relation.total_tuples,
            fraction=relation.fraction,
            staleness_seconds=max(0.0, self._clock() - stream.rotated_at),
        )

    def _observe_query(self, op: str, started: float) -> None:
        self._observer.counter("serving.queries", op=op).inc()
        self._observer.histogram("serving.query.seconds", op=op).observe(
            self._clock() - started
        )

    @staticmethod
    def _interval(
        estimate: float, variance: float, confidence: float, method: str
    ) -> ConfidenceInterval:
        if method == "clt":
            return clt_interval(estimate, variance, confidence)
        if method == "chebyshev":
            return chebyshev_interval(estimate, variance, confidence)
        raise ConfigurationError(
            f"unknown interval method {method!r}; expected 'chebyshev' or 'clt'"
        )

    def point_query(
        self,
        name: str,
        key: int,
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
    ) -> QueryResult:
        """Serve a point-frequency estimate from the latest snapshot."""
        started = self._clock()
        stream = self._stream(name)
        snapshot = stream.latest
        estimate = snapshot.point_frequency(name, key)
        variance = snapshot.point_frequency_variance_bound(
            name, key, estimate=estimate
        )
        result = QueryResult(
            op="point",
            estimate=estimate,
            interval=self._interval(estimate, variance, confidence, method),
            variance_bound=variance,
            streams=(self._meta(stream, snapshot),),
        )
        self._observe_query("point", started)
        return result

    def self_join_query(
        self,
        name: str,
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
    ) -> QueryResult:
        """Serve a self-join (``F₂``) estimate from the latest snapshot."""
        started = self._clock()
        stream = self._stream(name)
        snapshot = stream.latest
        estimate = snapshot.self_join_size(name)
        variance = snapshot.self_join_variance_bound(name)
        result = QueryResult(
            op="self_join",
            estimate=estimate,
            interval=self._interval(estimate, variance, confidence, method),
            variance_bound=variance,
            streams=(self._meta(stream, snapshot),),
        )
        self._observe_query("self_join", started)
        return result

    def join_query(
        self,
        left: str,
        right: str,
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
    ) -> QueryResult:
        """Serve a cross-stream join-size estimate (latest snapshots)."""
        started = self._clock()
        stream_l = self._stream(left)
        stream_r = self._stream(right)
        snap_l = stream_l.latest
        snap_r = stream_r.latest
        estimate = join_size_between(snap_l, left, snap_r, right)
        variance = join_variance_between(snap_l, left, snap_r, right)
        result = QueryResult(
            op="join",
            estimate=estimate,
            interval=self._interval(estimate, variance, confidence, method),
            variance_bound=variance,
            streams=(
                self._meta(stream_l, snap_l),
                self._meta(stream_r, snap_r),
            ),
        )
        self._observe_query("join", started)
        return result

    def expression_query(
        self,
        op: str,
        names: Iterable[str],
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
    ) -> QueryResult:
        """Serve a set-expression estimate over several streams.

        Supported ops: ``union`` (bag ``F₂`` of the merged streams),
        ``intersection`` (join mass), ``set_union`` (distinct union of
        indicator streams) — see :mod:`repro.serving.expressions`.
        """
        started = self._clock()
        pairs = []
        metas = []
        for name in names:
            stream = self._stream(name)
            snapshot = stream.latest
            pairs.append((snapshot, name))
            metas.append(self._meta(stream, snapshot))
        evaluated = evaluate_expression(op, pairs)
        interval = self._interval(
            evaluated.estimate, evaluated.variance_bound, confidence, method
        )
        result = QueryResult(
            op=op,
            estimate=evaluated.estimate,
            interval=interval,
            variance_bound=evaluated.variance_bound,
            streams=tuple(metas),
        )
        self._observe_query(op, started)
        return result

