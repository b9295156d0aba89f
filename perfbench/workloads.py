"""The three workloads: service set-up, measured phases, output checks.

Every call goes through the library's public API, as a user's would:
``repro.dataplane`` pipelines feed a ``repro.serving.SketchRegistry``
and ``serve_in_thread`` answers HTTP queries.  The kernel backend is
never chosen here; whatever the default selection resolves is what runs
(and is recorded).

* ``bulk_ingest`` — the paper's random-order scan of a stored relation:
  ``FileSource`` (2^20-tuple chunks) -> ``Pipeline`` (defaults: threaded
  bounded queue) -> ``RegistrySink``, one fresh stream per pass, then an
  in-process query phase against the loaded streams.
* ``shed_microbatch`` — the paper's load shedding: irregular bursts of
  1..2000 keys read from a stream file -> ``MicroBatchSource`` (4096) ->
  ``ShedOperator`` (p = 0.25) -> ``RegistrySink`` in a synchronous
  ``Pipeline``, a snapshot rotated per chunk under the registry's
  default policy, then the same query phase.
* ``serve_live`` — online aggregation with reads beside writes: stream
  R is loaded during set-up; stream S ingests unthrottled from a file
  in 65 536-tuple chunks while the open-loop generator queries both
  over HTTP.
"""

from __future__ import annotations

import http.client
import json
import math
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

import harness
import loadgen
from repro.dataplane import (
    FileSource,
    MicroBatchSource,
    Pipeline,
    PipelineResult,
    RegistrySink,
    ShedOperator,
)
from repro.errors import ReproError
from repro.kernels import backend_name, get_backend
from repro.serving import ServerHandle, SketchRegistry, serve_in_thread
from repro.streams.io import read_stream, stream_length

HERE = Path(__file__).resolve().parent
#: S is declared this many file lengths long, so repeated passes fit.
LIVE_S_PASS_CAP = 4096


@dataclass
class Service:
    """A running sketching service: a registry and its HTTP front end."""

    registry: SketchRegistry
    server: ServerHandle
    backend: str

    def close(self) -> None:
        """Stop the HTTP server."""
        self.server.stop()


def _get(server: ServerHandle, target: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def start_service(workload: str, inputs: Path, seed: int) -> Service:
    """Set the service up: backend, registry, streams, R's load, server.

    This is what ``setup_s`` times.  Resolving the backend first makes
    any lazy selection or native build part of set-up, not of ingest.
    """
    get_backend()
    registry = SketchRegistry(harness.BUCKETS, harness.ROWS, seed=seed)
    if workload == "serve_live":
        r_path = inputs / "R.rprs"
        registry.register_stream("R", stream_length(r_path))
        registry.register_stream("S", harness.LIVE_S_TUPLES * LIVE_S_PASS_CAP)
        Pipeline(
            FileSource(r_path, harness.LIVE_CHUNK),
            sinks=[RegistrySink(registry, "R")],
        ).run()
    server = serve_in_thread(registry)
    status, _ = _get(server, "/healthz")
    if status != 200:
        server.stop()
        raise RuntimeError(f"query server unhealthy: HTTP {status}")
    return Service(registry, server, backend_name())


# ----------------------------------------------------------------------
# Measured phases
# ----------------------------------------------------------------------


@dataclass
class IngestPass:
    """One pipeline run into one registry stream."""

    stream: str
    start: float
    end: float
    result: PipelineResult

    @property
    def tuples_per_s(self) -> float:
        """Tuples offered to the source per wall-second."""
        return self.result.tuples_in / (self.end - self.start)


@dataclass
class Phase:
    """Everything one measured phase produced."""

    passes: list[IngestPass] = field(default_factory=list)
    queried: tuple[str, str] = ("", "")
    queries: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: Peak RSS of the process once the service's own work was done,
    #: before the benchmark built its per-request records.
    peak_rss: int = 0
    #: Host-speed probes taken between the phase's timed intervals.
    speed: harness.HostSpeed = field(default_factory=harness.HostSpeed)


def file_bursts(path: Path, lengths: np.ndarray):
    """Yield a stream file's keys as consecutive bursts of *lengths* keys."""
    ends = np.cumsum(lengths)
    index = 0
    offset = 0
    pending = np.empty(0, dtype=np.int64)
    for chunk in read_stream(path):
        pending = np.concatenate((pending, chunk)) if pending.size else chunk
        consumed = 0
        while index < ends.size and ends[index] - offset <= pending.size:
            cut = int(ends[index] - offset)
            yield pending[consumed:cut]
            consumed = cut
            index += 1
        pending = pending[consumed:]
        offset += consumed


def run_loadgen(service: Service, schedule: Path, streams: tuple[str, str], seconds: float) -> str:
    """Drive the open-loop generator process; returns its JSON report."""
    command = [
        sys.executable, str(HERE / "loadgen.py"),
        "--host", service.server.host,
        "--port", str(service.server.port),
        "--schedule", str(schedule),
        "--streams", ",".join(streams),
        "--connections", str(harness.query_connections()),
        "--timeout", str(harness.REQUEST_TIMEOUT_S),
    ]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + 60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("load generator did not finish") from None
    if proc.returncode != 0:
        raise RuntimeError(f"load generator exited with {proc.returncode}")
    return out


def _pass(
    registry: SketchRegistry, stream: str, total: int,
    build: Callable[[SketchRegistry, str], Pipeline], expected, problems: list[str],
) -> IngestPass:
    """One timed pipeline run into a fresh *stream*, checked against *expected*.

    *expected* holds the outcome computed independently when the inputs
    were made: the counters a reference-backend replay produced, the
    tuples it kept and offered, and the keep probability.
    """
    registry.register_stream(stream, total)
    start = time.monotonic()
    result = build(registry, stream).run()
    ingest = IngestPass(stream, start, time.monotonic(), result)
    relation = registry.snapshot(stream).relation(stream)
    offered = int(expected["offered"])
    if result.tuples_in != offered:
        problems.append(f"{stream}: offered {result.tuples_in} of {offered} tuples")
    if relation.scanned != int(expected["scanned"]):
        problems.append(f"{stream}: scanned {relation.scanned}, expected {int(expected['scanned'])}")
    if not np.array_equal(relation.counters, expected["counters"]):
        problems.append(f"{stream}: counters differ from the reference replay")
    p = float(expected["keep"])
    if p < 1.0:
        kept = result.tuples_out / offered
        if abs(kept - p) > 4.0 * math.sqrt(p * (1.0 - p) / offered):
            problems.append(f"{stream}: kept ratio {kept:.5f} beyond 4 sigma of {p}")
    return ingest


def _ingest_then_query(
    service: Service, inputs: Path, seed: int, seconds: float, tag: str,
    total: int, build: Callable[[SketchRegistry, str], Pipeline],
) -> Phase:
    """Ingest pass after pass for the phase's ingest share, then query.

    Each pass scans the whole stored input into a fresh stream and is
    checked as soon as it ends, outside its timed region.  Passes go to
    a throwaway registry, so memory does not grow with the number of
    passes, except the last two, which load the two streams the query
    phase reads from the service's registry.
    """
    phase = Phase()
    with np.load(inputs / "expected.npz") as data:
        expected = dict(data)
    deadline = time.monotonic() + seconds * harness.INGEST_SHARE
    while not phase.passes or time.monotonic() < deadline:
        registry = SketchRegistry(harness.BUCKETS, harness.ROWS, seed=seed)
        phase.speed.probe()
        phase.passes.append(_pass(registry, "R", total, build, expected, phase.problems))
    phase.queried = (f"{tag}1", f"{tag}2")
    for stream in phase.queried:
        phase.speed.probe()
        phase.passes.append(
            _pass(service.registry, stream, total, build, expected, phase.problems)
        )
    phase.speed.probe()
    phase.peak_rss = harness.peak_rss_bytes()
    warm_up(service.registry, phase.queried)
    phase.queries = probe_queries(
        service.registry, inputs / "queries.npz", phase.queried, phase.speed
    )
    return phase


def probe_queries(
    registry: SketchRegistry, schedule: Path, streams: tuple[str, str],
    speed: harness.HostSpeed,
) -> dict:
    """One in-process caller sends the query schedule through the library API.

    The query phase of the ingest-only workloads.  The caller waits for
    each answer (closed loop), so latency is the call's own duration;
    lateness is how far behind the schedule each call started.  The
    HTTP path and open-loop queueing are serve_live's to measure: on an
    otherwise idle host, cross-process wake-ups make HTTP tails vary
    from run to run far more than anything the service does.  Between
    calls, at most every :data:`harness.PROBE_INTERVAL_S`, the caller
    probes the host's speed into *speed*.  Returns records shaped like
    ``loadgen.py``'s.
    """
    with np.load(schedule) as data:
        due, ops, keys, picks = (data[k] for k in ("due", "op", "key", "pick"))
    first, second = streams
    calls = {
        "point": lambda stream, key: registry.point_query(stream, key),
        "self_join": lambda stream, key: registry.self_join_query(stream),
        "join": lambda stream, key: registry.join_query(first, second),
        "expression": lambda stream, key: registry.expression_query("union", streams),
    }
    start = time.monotonic() + 0.05
    records = []
    probed = -math.inf
    for offset, op, key, pick in zip(due.tolist(), ops.tolist(), keys.tolist(), picks.tolist()):
        name = loadgen.OPS[op]
        due_at = start + offset
        if time.monotonic() - probed >= harness.PROBE_INTERVAL_S:
            speed.probe()
            probed = time.monotonic()
        delay = due_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        record = {"op": name, "connection": 0, "due": due_at, "late": sent - due_at,
                  "status": 0, "error": None}
        try:
            result = calls[name](streams[pick], key)
        except ReproError as error:
            record["error"] = type(error).__name__
        else:
            record.update(
                status=200, estimate=result.estimate,
                low=result.interval.low, high=result.interval.high,
                generations={m.name: m.generation for m in result.streams},
                staleness=[m.staleness_seconds for m in result.streams],
            )
        record["latency"] = time.monotonic() - sent
        records.append(record)
    speed.probe()
    return {"start": start, "records": records}


def warm_up(registry: SketchRegistry, streams: tuple[str, str]) -> None:
    """Answer each query kind once, so the snapshots' lazy views are built.

    The first query on a freshly published snapshot builds its sketch
    views; on a stream that no longer changes that cost is paid once,
    not by the steady query load the phase measures.
    """
    first, second = streams
    for stream in streams:
        registry.point_query(stream, 0)
        registry.self_join_query(stream)
    registry.join_query(first, second)
    registry.expression_query("union", streams)


def measure_bulk_ingest(service: Service, inputs: Path, seed: int, seconds: float, tag: str) -> Phase:
    """Scan the stored relation pass after pass, then query it."""
    path = inputs / "R.rprs"
    return _ingest_then_query(
        service, inputs, seed, seconds, tag, harness.BULK_TUPLES,
        lambda registry, stream: Pipeline(
            FileSource(path, harness.BULK_CHUNK),
            sinks=[RegistrySink(registry, stream)],
        ),
    )


def measure_shed_microbatch(service: Service, inputs: Path, seed: int, seconds: float, tag: str) -> Phase:
    """Shed bursty micro-batches into per-chunk rotations, then query.

    The pipeline runs synchronously (``queue_depth=0``).  With ~1000
    envelopes a pass, the default threaded queue hands the GIL between
    two Python-bound threads about as often, and on a shared 2-vCPU
    guest each hand-off waits on the host waking the other vCPU: over
    two minutes of alternating passes, threaded throughput fell to half
    of synchronous at times while the CPU-speed probe did not move
    (IQR over 10 s windows 0.46 threaded, 0.08 synchronous, after
    scaling by the probe).  bulk_ingest keeps the threaded queue.
    """
    path = inputs / "shed.rprs"
    lengths = np.load(inputs / "bursts.npy")
    return _ingest_then_query(
        service, inputs, seed, seconds, tag, harness.SHED_TUPLES,
        lambda registry, stream: Pipeline(
            MicroBatchSource(file_bursts(path, lengths), harness.SHED_BATCH),
            ShedOperator(harness.SHED_P, seed=harness.shed_seed(seed)),
            sinks=[RegistrySink(registry, stream)],
            queue_depth=0,
        ),
    )


def measure_serve_live(service: Service, inputs: Path, seed: int, seconds: float, tag: str) -> Phase:
    """Ingest S unthrottled while the open-loop generator queries R and S."""
    registry = service.registry
    path = inputs / "S.rprs"
    phase = Phase(queried=("R", "S"))
    stop = threading.Event()
    failures: list[BaseException] = []

    def ingest() -> None:
        try:
            while not stop.is_set():
                phase.speed.probe()
                start = time.monotonic()
                result = Pipeline(
                    FileSource(path, harness.LIVE_CHUNK),
                    sinks=[RegistrySink(registry, "S")],
                ).run()
                phase.passes.append(IngestPass("S", start, time.monotonic(), result))
        except BaseException as error:  # re-raised on the caller's thread
            failures.append(error)

    scanned_before = registry.snapshot("S").relation("S").scanned
    thread = threading.Thread(target=ingest, name="bench-ingest-S")
    thread.start()
    try:
        give_up = time.monotonic() + 60
        while registry.snapshot("S").relation("S").scanned == scanned_before:
            if failures or time.monotonic() > give_up:
                raise RuntimeError("stream S published no snapshot")
            time.sleep(0.001)
        report = run_loadgen(service, inputs / "queries.npz", phase.queried, seconds)
    finally:
        stop.set()
        thread.join()
    phase.speed.probe()
    if failures:
        raise failures[0]
    phase.peak_rss = harness.peak_rss_bytes()
    phase.queries = json.loads(report)
    return phase


MEASURES = {
    "bulk_ingest": measure_bulk_ingest,
    "shed_microbatch": measure_shed_microbatch,
    "serve_live": measure_serve_live,
}


# ----------------------------------------------------------------------
# End-to-end figures
# ----------------------------------------------------------------------


def query_window(phase: Phase) -> tuple[float, float]:
    """Monotonic-clock interval from the first due time to the last reply."""
    records = phase.queries["records"]
    start = min(r["due"] for r in records)
    return start, max(r["due"] + r["latency"] for r in records)


def ingest_rate(workload: str, phase: Phase, reference: bool = False) -> float:
    """Median tuples/s over the phase's passes; per reference second if *reference*.

    On serve_live only passes that ran wholly while queries were being
    sent count, so the figure is ingest *beside* reads; when no pass
    fits (a very slow ingest) every pass counts.
    """
    passes = phase.passes
    if workload == "serve_live":
        start, end = query_window(phase)
        inside = [p for p in passes if p.start >= start and p.end <= end]
        passes = inside or passes
    if not reference:
        return median([p.tuples_per_s for p in passes])
    return median([
        p.result.tuples_in / phase.speed.reference_seconds(p.end - p.start, p.start, p.end)
        for p in passes
    ])


def is_error(record: dict) -> bool:
    """A failed, refused, timed-out, non-200 or malformed request."""
    return record["error"] is not None or record["status"] != 200


def latencies_ms(phase: Phase, reference: bool = False) -> list[float]:
    """Per-request latency from due time; an error counts as a timeout.

    With *reference*, each latency is in reference milliseconds, scaled
    by the host's speed around its due time.
    """
    latencies = []
    for r in phase.queries["records"]:
        if is_error(r):
            latencies.append(1000.0 * harness.REQUEST_TIMEOUT_S)
        elif reference:
            due = r["due"]
            latencies.append(1000.0 * phase.speed.reference_seconds(r["latency"], due, due))
        else:
            latencies.append(1000.0 * r["latency"])
    return latencies


# ----------------------------------------------------------------------
# Correctness checks (outside every timed region)
# ----------------------------------------------------------------------


def check_replies(phase: Phase) -> list[str]:
    """Each answer inside its own interval; generations never go back."""
    problems = []
    last: dict[tuple[int, str], int] = {}
    for record in phase.queries["records"]:
        if is_error(record):
            continue
        if not record["low"] <= record["estimate"] <= record["high"]:
            problems.append(f"{record['op']} estimate outside its interval")
        for stream, generation in record["generations"].items():
            key = (record["connection"], stream)
            if generation < last.get(key, generation):
                problems.append(f"generation of {stream} went back on a connection")
            last[key] = generation
    late_pct, late = harness.tail_percentile([r["late"] for r in phase.queries["records"]])
    if 1000.0 * late > harness.LATE_P99_LIMIT_MS:
        problems.append(
            f"load generator ran {1000.0 * late:.1f} ms late at p{late_pct:.1f} "
            f"(limit {harness.LATE_P99_LIMIT_MS} ms): run invalid"
        )
    return problems


def check_http_matches_registry(service: Service, queried: tuple[str, str], keys) -> list[str]:
    """HTTP answers equal the in-process registry's, once ingest is over."""
    registry = service.registry
    first, second = queried
    cases = [(f"/v1/query/point?stream={first}&key={int(k)}",
              lambda k=int(k): registry.point_query(first, k)) for k in keys]
    cases.append((f"/v1/query/self_join?stream={second}",
                  lambda: registry.self_join_query(second)))
    cases.append((f"/v1/query/join?left={first}&right={second}",
                  lambda: registry.join_query(first, second)))
    problems = []
    for target, local in cases:
        status, reply = _get(service.server, target)
        expected = local()
        same = status == 200 and (
            reply["estimate"], reply["interval"]["low"], reply["interval"]["high"]
        ) == (expected.estimate, expected.interval.low, expected.interval.high) and all(
            reply["streams"][meta.name]["generation"] == meta.generation
            for meta in expected.streams
        )
        if not same:
            problems.append(f"HTTP answer differs from the registry's for {target}")
    return problems


def check(service: Service, inputs: Path, phases: list[Phase]) -> list[str]:
    """Every check of a run; returns the problems found (none = pass).

    Ingest passes were checked as each one ended; here the replies are
    checked, the HTTP answers compared with the registry's once ingest
    is over, and serve_live's stream S must have kept ingesting.
    """
    problems = []
    for phase in phases:
        problems += phase.problems
        problems += check_replies(phase)
        if not phase.passes:
            problems.append("no ingest pass completed during a measured phase")
    with np.load(inputs / "queries.npz") as schedule:
        keys = list(dict.fromkeys(schedule["key"].tolist()))[:16]
    problems += check_http_matches_registry(service, phases[-1].queried, keys)
    return problems
