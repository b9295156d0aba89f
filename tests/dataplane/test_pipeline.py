"""Pipeline semantics: cursor, governor wiring, threading, observability."""

import numpy as np
import pytest

from repro.dataplane import (
    CollectSink,
    FileSource,
    IterableSource,
    Pipeline,
    RuntimeSink,
    ShedOperator,
    SketchUpdateOperator,
    SketcherSink,
)
from repro.core.load_shedding import SheddingSketcher
from repro.errors import ConfigurationError, StreamIntegrityError
from repro.observability import Observer
from repro.resilience import (
    AdaptiveSheddingSketcher,
    ChunkEnvelope,
    LoadGovernor,
    ManualClock,
    StreamRuntime,
    make_envelope,
)
from repro.sketches import FagmsSketch
from repro.streams.io import write_stream


def _chunks(seed, count=6, size=50):
    rng = np.random.default_rng(seed)
    return [np.asarray(rng.integers(0, 200, size)) for _ in range(count)]


def test_sync_run_delivers_the_whole_stream_in_order(tmp_path):
    chunks = _chunks(1)
    path = tmp_path / "stream.bin"
    write_stream(path, chunks, 1000)
    collect = CollectSink()
    result = Pipeline(FileSource(path, 50), sinks=[collect], queue_depth=0).run()
    assert result.envelopes == len(chunks)
    assert result.tuples_in == result.tuples_out == 300
    assert result.duplicates == 0
    assert result.max_queue_depth == 0  # synchronous: no queue at all
    assert np.array_equal(collect.keys(), np.concatenate(chunks))


def test_threaded_run_matches_sync_run(tmp_path):
    chunks = _chunks(2, count=12)
    path = tmp_path / "stream.bin"
    write_stream(path, chunks, 1000)
    sync, threaded = CollectSink(), CollectSink()
    Pipeline(FileSource(path, 50), sinks=[sync], queue_depth=0).run()
    result = Pipeline(FileSource(path, 50), sinks=[threaded], queue_depth=3).run()
    assert np.array_equal(threaded.keys(), sync.keys())
    assert result.max_queue_depth <= 3


def test_duplicates_are_skipped_before_operators():
    chunks = _chunks(3, count=4)
    sealed = [make_envelope(i, chunk) for i, chunk in enumerate(chunks)]
    replayed = [sealed[0], sealed[1], sealed[0], sealed[1], sealed[2], sealed[3]]

    def shed_pipeline(envelopes):
        sketch = FagmsSketch(128, 3, seed=33)
        pipeline = Pipeline(
            IterableSource(envelopes),
            ShedOperator(0.5, seed=34),
            SketchUpdateOperator(sketch),
            queue_depth=0,
        )
        return pipeline.run(), sketch

    clean_result, clean_sketch = shed_pipeline(sealed)
    replay_result, replay_sketch = shed_pipeline(replayed)
    assert replay_result.duplicates == 2
    assert replay_result.envelopes == clean_result.envelopes
    # Replays never reach the shedder, so its RNG stream — and the
    # resulting counters — are bit-identical to the clean run.
    assert np.array_equal(replay_sketch.counters, clean_sketch.counters)


def test_head_cursor_survives_across_runs():
    chunks = _chunks(4)
    collect = CollectSink()
    pipeline = Pipeline(IterableSource(chunks), sinks=[collect], queue_depth=0)
    first = pipeline.run()
    second = pipeline.run()  # same source replayed end to end
    assert first.envelopes == len(chunks)
    assert second.envelopes == 0
    assert second.duplicates == len(chunks)
    assert np.array_equal(collect.keys(), np.concatenate(chunks))


def test_gap_raises():
    envelopes = [make_envelope(0, np.arange(4)), make_envelope(2, np.arange(4))]
    pipeline = Pipeline(
        IterableSource(envelopes), sinks=[CollectSink()], queue_depth=0
    )
    with pytest.raises(StreamIntegrityError):
        pipeline.run()


def test_payload_verification_at_the_head():
    good = make_envelope(0, np.arange(8))
    truncated = ChunkEnvelope(
        sequence=1, keys=np.arange(3), count=8, crc32=good.crc32
    )
    pipeline = Pipeline(
        IterableSource([good, truncated]), sinks=[CollectSink()], queue_depth=0
    )
    with pytest.raises(StreamIntegrityError):
        pipeline.run()


def test_producer_failure_propagates_in_threaded_mode():
    def broken():
        yield make_envelope(0, np.arange(4))
        raise OSError("source died")

    pipeline = Pipeline(
        IterableSource(broken()), sinks=[CollectSink()], queue_depth=2
    )
    with pytest.raises(OSError, match="source died"):
        pipeline.run()


def test_governor_retunes_the_shed_stage():
    clock = ManualClock()
    shed = ShedOperator(1.0, seed=44)
    collect = CollectSink()
    governor = LoadGovernor(0.001, smoothing=1.0)

    def slow(envelope):
        clock.advance(1.0)  # every chunk costs 1s against a 1ms budget

    from repro.dataplane import CallbackSink

    pipeline = Pipeline(
        IterableSource(_chunks(5)),
        shed,
        sinks=[CallbackSink(slow), collect],
        governor=governor,
        clock=clock,
        queue_depth=0,
    )
    result = pipeline.run()
    assert pipeline.retune is shed
    assert result.retunes >= 1
    assert shed.rate < 1.0  # the governor pulled the keep-rate down


def test_governor_finds_a_retunable_sink():
    sink = SketcherSink(
        AdaptiveSheddingSketcher(FagmsSketch(64, 2, seed=45), 1.0, seed=46)
    )
    pipeline = Pipeline(
        IterableSource(_chunks(6)),
        sinks=[sink],
        governor=LoadGovernor(1.0),
        queue_depth=0,
    )
    assert pipeline.retune is sink


def test_governor_without_retunable_stage_is_rejected():
    with pytest.raises(ConfigurationError):
        Pipeline(
            IterableSource([]),
            sinks=[CollectSink()],
            governor=LoadGovernor(1.0),
        )


def test_explicit_retune_stage_must_honour_the_contract():
    with pytest.raises(ConfigurationError):
        Pipeline(IterableSource([]), sinks=[CollectSink()], retune=object())


def test_plain_shedding_sketcher_is_not_retunable():
    # SheddingSketcher has no rate accessors; the pipeline must neither
    # auto-discover it nor let a governor drive it.
    sink = SketcherSink(SheddingSketcher(FagmsSketch(64, 2, seed=47), 0.5, seed=48))
    with pytest.raises(ConfigurationError):
        Pipeline(
            IterableSource([]),
            sinks=[sink],
            governor=LoadGovernor(1.0),
        )


def test_rejects_bad_configuration():
    with pytest.raises(ConfigurationError):
        Pipeline(IterableSource([]), queue_depth=-1)
    with pytest.raises(ConfigurationError):
        Pipeline(IterableSource([]), start=-1)


def test_observer_receives_dataplane_metrics():
    observer = Observer()
    chunks = _chunks(7, count=3)
    Pipeline(
        IterableSource(chunks),
        ShedOperator(1.0, seed=49),
        sinks=[CollectSink()],
        observer=observer,
        queue_depth=0,
    ).run()
    assert observer.counter("dataplane.chunks.accepted").value == 3
    assert observer.counter("dataplane.tuples.seen").value == 150
    assert observer.counter("dataplane.tuples.delivered").value == 150
    assert observer.counter("dataplane.stage.envelopes", stage="shed").value == 3
    assert observer.counter("dataplane.stage.envelopes", stage="collect").value == 3
    spans = [record["name"] for record in observer.tracer.export_spans()]
    assert "dataplane.run" in spans


def test_stream_runtime_run_rides_the_dataplane(tmp_path):
    chunks = _chunks(8)
    runtime = StreamRuntime(
        FagmsSketch(128, 3, seed=55),
        p=1.0,
        seed=56,
        checkpoint_dir=tmp_path,
        checkpoint_every=2,
    )
    kept = runtime.run(chunks)
    assert kept == 300
    assert runtime.position == len(chunks)
    # The delegate path leaves verification to the runtime's own cursor:
    # replaying sealed envelopes through StreamRuntime.run is still safe.
    sealed = [make_envelope(i, chunk) for i, chunk in enumerate(chunks)]
    assert runtime.run(sealed[:3]) == 0  # pure replay, all duplicates
    assert runtime.duplicates == 3


def test_runtime_sink_counts_kept_tuples():
    runtime = StreamRuntime(FagmsSketch(64, 2, seed=57), p=1.0, seed=58)
    sink = RuntimeSink(runtime)
    envelope = make_envelope(0, np.arange(20))
    sink.accept(envelope)
    assert sink.kept == 20
    assert sink.tuples == 20


# ----------------------------------------------------------------------
# Producer threads are reused across runs, never shared by live runs
# ----------------------------------------------------------------------


def _recording_chunks(seen: list, count: int = 4):
    """Chunks whose generator notes the thread it runs on."""
    import threading

    for chunk in _chunks(7, count=count):
        seen.append(threading.get_ident())
        yield chunk


def test_sequential_threaded_runs_reuse_one_source_thread():
    import threading

    first, second = [], []
    Pipeline(IterableSource(_recording_chunks(first)), sinks=[CollectSink()]).run()
    Pipeline(IterableSource(_recording_chunks(second)), sinks=[CollectSink()]).run()
    assert len(set(first)) == len(set(second)) == 1
    assert first[0] == second[0] != threading.get_ident()


def test_concurrent_threaded_runs_get_their_own_source_threads():
    """Run A's sink waits for run B's sink; had B's source queued behind
    A's busy producer, neither run could finish."""
    import threading

    from repro.dataplane import CallbackSink

    b_delivered = threading.Event()
    seen_a, seen_b, errors = [], [], []

    def wait_for_b(envelope):
        if not b_delivered.wait(timeout=30):
            raise AssertionError("run B never delivered")

    def run_a():
        try:
            Pipeline(
                IterableSource(_recording_chunks(seen_a, count=8)),
                sinks=[CallbackSink(wait_for_b)],
                queue_depth=1,
            ).run()
        except BaseException as error:
            errors.append(error)

    a = threading.Thread(target=run_a)
    a.start()
    Pipeline(
        IterableSource(_recording_chunks(seen_b)),
        sinks=[CallbackSink(lambda envelope: b_delivered.set())],
        queue_depth=1,
    ).run()
    a.join(timeout=30)
    assert not a.is_alive() and not errors
    assert set(seen_a).isdisjoint(seen_b)


@pytest.mark.skipif(not hasattr(__import__("os"), "fork"), reason="needs fork")
def test_threaded_run_in_a_forked_child_gets_a_live_source_thread():
    """A child inherits the parent's idle-thread count but not the
    threads; its threaded runs must still start a producer."""
    import os
    import time

    Pipeline(IterableSource(_chunks(8)), sinks=[CollectSink()]).run()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            collect = CollectSink()
            Pipeline(IterableSource(_chunks(8)), sinks=[collect]).run()
            os._exit(0 if collect.keys().size == 300 else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("the forked child's threaded run never finished")
