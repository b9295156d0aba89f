"""Crash/recover round-trips must be bit-identical, everywhere.

The matrix: every kernel backend × every sketch type.  A runtime is
killed mid-stream, recovered from its newest checkpoint, and replayed;
the final counters must equal an uninterrupted run's bit for bit
(``np.array_equal``, not ``allclose``).
"""

import zlib

import numpy as np
import pytest

from repro.errors import CheckpointError, StreamIntegrityError
from repro.kernels import backend_name, native_available, set_backend
from repro.resilience.runtime import (
    StreamRuntime,
    envelope_stream,
    make_envelope,
    verify_payload,
)
from repro.sketches.agms import AgmsSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.fagms import FagmsSketch

BACKENDS = ["reference", "numpy"] + (["native"] if native_available() else [])

SKETCHES = {
    "agms": lambda: AgmsSketch(rows=32, seed=17),
    "fagms": lambda: FagmsSketch(buckets=64, rows=3, seed=17),
    "countmin": lambda: CountMinSketch(buckets=64, rows=3, seed=17),
}


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = backend_name()
    yield
    set_backend(previous)


def _run_to_completion(make_sketch, chunks, directory, *, interrupt_at=None, p=1.0):
    runtime = StreamRuntime(
        make_sketch(), p=p, seed=1234, checkpoint_dir=directory, checkpoint_every=4
    )
    for index, envelope in enumerate(envelope_stream(chunks)):
        if interrupt_at is not None and index == interrupt_at:
            return runtime
        runtime.process(envelope)
    return runtime


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_recovery_is_bit_identical(tmp_path, backend, kind, stream_chunks):
    set_backend(backend)
    make_sketch = SKETCHES[kind]

    reference = StreamRuntime(make_sketch(), p=1.0, seed=1234)
    reference.run(list(stream_chunks))

    _run_to_completion(
        make_sketch, stream_chunks, tmp_path / "ck", interrupt_at=13
    )  # dies with 13 chunks applied, 3 past the last checkpoint
    recovered = StreamRuntime.recover(tmp_path / "ck")
    assert 0 < recovered.position <= 13
    recovered.run(list(stream_chunks))
    assert recovered.position == len(stream_chunks)
    assert np.array_equal(
        recovered.sketch._state(), reference.sketch._state()
    )


@pytest.mark.parametrize("kind", ["agms", "fagms"])
def test_recovery_under_shedding_is_bit_identical(tmp_path, kind, stream_chunks):
    make_sketch = SKETCHES[kind]
    uninterrupted = _run_to_completion(
        make_sketch, stream_chunks, tmp_path / "a", p=0.3
    )
    _run_to_completion(
        make_sketch, stream_chunks, tmp_path / "b", interrupt_at=11, p=0.3
    )
    recovered = StreamRuntime.recover(tmp_path / "b")
    recovered.run(list(stream_chunks))
    assert np.array_equal(
        recovered.sketch._state(), uninterrupted.sketch._state()
    )
    assert recovered.sketcher.seen == uninterrupted.sketcher.seen
    assert recovered.sketcher.kept == uninterrupted.sketcher.kept
    assert recovered.self_join_size() == pytest.approx(
        uninterrupted.self_join_size()
    )


def test_unshedded_runtime_matches_plain_sketch(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    runtime.run(list(stream_chunks))
    plain = FagmsSketch(buckets=64, seed=3)
    for chunk in stream_chunks:
        plain.update(chunk)
    assert np.array_equal(runtime.sketch._state(), plain._state())


def test_duplicate_chunks_apply_once(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    doubled = []
    for envelope in envelope_stream(stream_chunks[:6]):
        doubled.extend([envelope, envelope])
    runtime.run(doubled)
    assert runtime.duplicates == 6
    plain = FagmsSketch(buckets=64, seed=3)
    for chunk in stream_chunks[:6]:
        plain.update(chunk)
    assert np.array_equal(runtime.sketch._state(), plain._state())


def test_truncated_chunk_raises(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    sealed = make_envelope(0, stream_chunks[0])
    torn = type(sealed)(
        sequence=0,
        keys=sealed.keys[:-3],
        count=sealed.count,
        crc32=sealed.crc32,
    )
    with pytest.raises(StreamIntegrityError, match="truncated"):
        runtime.process(torn)
    # nothing was applied: the intact redelivery still lands at cursor 0
    runtime.process(sealed)
    assert runtime.position == 1


def test_bit_flipped_payload_raises(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    sealed = make_envelope(0, stream_chunks[0])
    flipped_keys = sealed.keys.copy()
    flipped_keys[5] ^= 0x10
    flipped = type(sealed)(
        sequence=0, keys=flipped_keys, count=sealed.count, crc32=sealed.crc32
    )
    with pytest.raises(StreamIntegrityError, match="CRC32"):
        runtime.process(flipped)


_CRC_PAYLOADS = {
    "int32": np.arange(1000, dtype=np.int32) * 7919,
    "int64": np.arange(1000, dtype=np.int64) * (2**33 + 1),
    "uint64": np.arange(1000, dtype=np.uint64) * np.uint64(2**40 + 3),
    "empty-int64": np.empty(0, dtype=np.int64),
    "empty-int32": np.empty(0, dtype=np.int32),
    "strided-int64": (np.arange(3000, dtype=np.int64) * 13)[::3],
    "strided-int32": (np.arange(3000, dtype=np.int32) * 13)[1::7],
    "reversed-uint64": np.arange(500, dtype=np.uint64)[::-1],
}


@pytest.mark.parametrize("name", sorted(_CRC_PAYLOADS))
def test_envelope_crc_is_crc32_of_the_payload_bytes(name):
    """The envelope CRC reads the key buffer in place, yet stays exactly
    ``zlib.crc32(keys.tobytes())`` for contiguous, strided and empty keys."""
    keys = _CRC_PAYLOADS[name]
    sealed = make_envelope(3, keys)
    assert sealed.crc32 == zlib.crc32(keys.tobytes())
    assert verify_payload(sealed) is not None
    if keys.size:
        damaged = keys.copy()
        damaged[-1] ^= 1
        tampered = type(sealed)(
            sequence=3, keys=damaged, count=sealed.count, crc32=sealed.crc32
        )
        with pytest.raises(StreamIntegrityError, match="CRC32"):
            verify_payload(tampered)


def test_gap_in_sequence_raises(stream_chunks):
    runtime = StreamRuntime(FagmsSketch(buckets=64, seed=3))
    runtime.process(make_envelope(0, stream_chunks[0]))
    with pytest.raises(StreamIntegrityError, match="gap"):
        runtime.process(make_envelope(2, stream_chunks[2]))


def test_recover_requires_a_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="no usable checkpoint"):
        StreamRuntime.recover(tmp_path / "empty")
