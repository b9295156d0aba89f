"""Kernel-seam profiling: bit-identity, metering, backend restoration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import available_backends, get_backend, use_backend
from repro.observability import Observer, ProfilingKernelBackend, profile_kernels
from repro.sketches.fagms import FagmsSketch


def _usable_backends() -> list:
    usable = []
    for name in available_backends():
        try:
            with use_backend(name):
                pass
        except Exception:
            continue
        usable.append(name)
    return usable


@pytest.fixture
def keys() -> np.ndarray:
    return np.arange(5000, dtype=np.int64)


@pytest.mark.parametrize("backend", _usable_backends())
def test_profiling_preserves_bit_identity(backend, keys):
    with use_backend(backend):
        plain = FagmsSketch(128, rows=3, seed=11)
        plain.update(keys)
        profiled = FagmsSketch(128, rows=3, seed=11)
        with profile_kernels(Observer()):
            profiled.update(keys)
        assert np.array_equal(plain._state(), profiled._state())


def test_profiling_meters_rows_and_ops(keys, tick_clock):
    obs = Observer(tick_clock)
    sketch = FagmsSketch(128, rows=3, seed=11)
    with profile_kernels(obs):
        sketch.update(keys)
    snapshot = obs.metrics.snapshot()
    backend = get_backend().name
    # An update crosses the seam once, as a one-entry fused plan.
    accumulate = snapshot.counter_value(
        "kernels.rows", op="fused_update", backend=backend
    )
    assert accumulate == keys.size * 3  # one row batch of 3 sketch rows
    ops = snapshot.counter_value(
        "kernels.ops", op="fused_update", backend=backend
    )
    assert ops >= 1
    assert (
        snapshot.counter_value(
            "kernels.bytes", op="fused_update", backend=backend
        )
        > 0
    )
    assert (
        snapshot.gauge_value(
            "kernels.throughput.tuples_per_sec", backend=backend
        )
        > 0
    )


@pytest.mark.parametrize("backend", _usable_backends())
def test_profiling_meters_point_reads_as_one_seam_op(backend, keys):
    """Point queries cross the seam once as ``fused_estimate``: the
    profiler forwards the call (answers bit-identical) instead of
    replaying it through the hashing primitives and the gather."""
    with use_backend(backend):
        sketch = FagmsSketch(128, rows=3, seed=11)
        sketch.update(keys)
        queries = keys[:40]
        plain = sketch.estimate_frequencies(queries)
        plain_point = sketch.point_estimate(7)
        obs = Observer()
        with profile_kernels(obs):
            profiled = sketch.estimate_frequencies(queries)
            profiled_point = sketch.point_estimate(7)
    assert np.array_equal(plain, profiled)
    assert plain_point == profiled_point
    snapshot = obs.metrics.snapshot()
    assert snapshot.counter_value(
        "kernels.ops", op="fused_estimate", backend=backend
    ) == 2
    assert snapshot.counter_value(
        "kernels.rows", op="fused_estimate", backend=backend
    ) == 3 * (queries.size + 1)
    for replayed in ("bucket_indices", "parity_signs", "gather"):
        assert snapshot.counter_value(
            "kernels.ops", op=replayed, backend=backend
        ) == 0
    # Reads are not updates: the update throughput gauge is never set.
    assert snapshot.gauge_value(
        "kernels.throughput.tuples_per_sec", backend=backend
    ) is None


def test_profiling_records_latency_histograms(keys, tick_clock):
    obs = Observer(tick_clock)
    with profile_kernels(obs, clock=tick_clock):
        FagmsSketch(64, rows=2, seed=3).update(keys)
    snapshot = obs.metrics.snapshot()
    histograms = [
        key for key in snapshot.histograms if key[0] == "kernels.op.seconds"
    ]
    assert histograms, "no kernel latency histograms were recorded"
    total = sum(snapshot.histograms[key]["count"] for key in histograms)
    assert total >= 1


def test_profile_kernels_restores_the_active_backend(keys):
    before = get_backend()
    with profile_kernels(Observer()) as wrapper:
        assert get_backend() is wrapper
        assert wrapper.name == f"profiled:{before.name}"
    assert get_backend() is before


def test_nested_profiling_does_not_stack_wrappers(keys):
    outer = Observer()
    inner = Observer()
    with profile_kernels(outer):
        with profile_kernels(inner) as wrapper:
            assert not isinstance(wrapper.inner, ProfilingKernelBackend)
            FagmsSketch(64, rows=2, seed=3).update(keys)
    # The inner profiler saw the work; its wrapped backend is the real one.
    assert inner.metrics.snapshot().counters
