"""Fused multi-sketch updates: bit-identity with the separate path.

The contract (``src/repro/kernels/fused.py``): for every backend, sketch
mix, sign family, key dtype, and weighting, ``fused_update(sketches,
keys, weights)`` leaves every counter array **bit-identical** to calling
each sketch's ``update()`` individually — fusion changes how many passes
the chunk takes, never a single bit of the result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, DomainError
from repro.kernels import (
    FusedPlan,
    available_backends,
    fused_estimate,
    fused_update,
    make_fused_plan,
    use_backend,
)
from repro.observability import Observer, profile_kernels
from repro.sketches.agms import AgmsSketch
from repro.sketches.countmin import CountMinSketch
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


BACKENDS = _usable_backends()


def _trio(sign_family: str = "fourwise") -> list:
    """The canonical co-maintained mix: AGMS + F-AGMS + Count-Min."""
    return [
        AgmsSketch(16, seed=7, sign_family=sign_family),
        FagmsSketch(512, rows=5, seed=7, sign_family=sign_family),
        CountMinSketch(256, rows=3, seed=7),
    ]


def _keys(n: int = 20_000, dtype=np.int64) -> np.ndarray:
    rng = np.random.default_rng(0xFACE)
    return rng.integers(0, 2**20, size=n).astype(dtype)


def _assert_fused_matches_separate(sketches, keys, weights=None):
    separate = [s.copy_empty() for s in sketches]
    for sketch in separate:
        sketch.update(keys.astype(np.int64, copy=False), weights)
    fused_update(sketches, keys, weights)
    for fused, plain in zip(sketches, separate):
        assert np.array_equal(fused._state(), plain._state()), type(fused).__name__


# ----------------------------------------------------------------------
# Bit-identity across the whole matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sign_family", ["fourwise", "eh3"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_fused_trio_bit_identical(backend, sign_family, weighted):
    keys = _keys()
    weights = (
        np.random.default_rng(3).standard_normal(keys.size) if weighted else None
    )
    with use_backend(backend):
        _assert_fused_matches_separate(_trio(sign_family), keys, weights)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64, np.uint64])
def test_fused_key_dtypes_bit_identical(backend, dtype):
    """int32/uint32 take the unwidened fast path on capable backends."""
    with use_backend(backend):
        _assert_fused_matches_separate(_trio(), _keys(dtype=dtype))


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_mixed_bucket_counts(backend):
    """Entries with different bucket widths stack and scatter correctly."""
    sketches = [
        FagmsSketch(128, rows=2, seed=5),
        FagmsSketch(1024, rows=3, seed=6),
        CountMinSketch(64, rows=4, seed=7),
        CountMinSketch(512, rows=1, seed=8),
    ]
    with use_backend(backend):
        _assert_fused_matches_separate(sketches, _keys())


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_single_sketch_each_kind(backend):
    for sketch in _trio():
        with use_backend(backend):
            _assert_fused_matches_separate([sketch], _keys(4_096))


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_plan_reused_across_chunks(backend):
    """One plan, many chunks — the streaming pattern the engine runs."""
    keys = _keys(32_768)
    with use_backend(backend):
        sketches = _trio()
        separate = [s.copy_empty() for s in sketches]
        plan = make_fused_plan(sketches)
        for start in range(0, keys.size, 4_096):
            chunk = keys[start : start + 4_096]
            fused_update(plan, chunk)
            for sketch in separate:
                sketch.update(chunk)
        for fused, plain in zip(sketches, separate):
            assert np.array_equal(fused._state(), plain._state())


def test_fused_is_order_equivalent_to_sequential_updates():
    """A fused call == updating each sketch in entry order, any backend."""
    keys = _keys(2_000)
    results = {}
    for backend in BACKENDS:
        with use_backend(backend):
            sketches = _trio()
            fused_update(sketches, keys)
            results[backend] = [np.array(s._state()) for s in sketches]
    baseline = results[BACKENDS[0]]
    for backend, states in results.items():
        for a, b in zip(baseline, states):
            assert np.array_equal(a, b), backend


# ----------------------------------------------------------------------
# Validation and edge cases
# ----------------------------------------------------------------------


def test_fused_rejects_out_of_range_keys():
    with pytest.raises(DomainError):
        fused_update(_trio(), np.asarray([2**31 - 1], dtype=np.int64))
    with pytest.raises(DomainError):
        fused_update(_trio(), np.asarray([-1], dtype=np.int64))


def test_fused_rejects_unfusable_objects():
    with pytest.raises(ConfigurationError):
        make_fused_plan([object()])
    with pytest.raises(ConfigurationError):
        make_fused_plan([])


def test_fused_empty_chunk_is_a_noop():
    sketches = _trio()
    fused_update(sketches, np.empty(0, dtype=np.int64))
    for sketch in sketches:
        assert not sketch._state().any()


def test_empty_plan_is_a_noop():
    fused_update(FusedPlan(entries=()), _keys(16))


def test_fused_weight_shape_mismatch_raises():
    with pytest.raises(DomainError):
        fused_update(_trio(), _keys(16), np.ones(4))


# ----------------------------------------------------------------------
# Fused point reads (fused_estimate)
# ----------------------------------------------------------------------


def _filled_readables(sign_family: str = "fourwise") -> list:
    sketches = [
        FagmsSketch(512, rows=5, seed=7, sign_family=sign_family),
        CountMinSketch(256, rows=3, seed=7),
        FagmsSketch(1021, rows=2, seed=8, sign_family=sign_family),
    ]
    fused_update(sketches, _keys(20_000))
    return sketches


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sign_family", ["fourwise", "eh3"])
@pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64, np.uint64])
def test_fused_estimate_stacks_each_sketchs_reads(backend, sign_family, dtype):
    """A multi-sketch read is each sketch's own read, stacked in plan
    order, and every backend matches the reference backend bit for bit."""
    sketches = _filled_readables(sign_family)
    queries = _keys(3_000).astype(dtype)
    with use_backend("reference"):
        expected = [fused_estimate([s], queries) for s in sketches]
    with use_backend(backend):
        stacked = fused_estimate(sketches, queries)
    assert stacked.shape == (10, queries.size)
    assert stacked.tobytes() == np.concatenate(expected).tobytes()


def test_fused_estimate_refuses_agms_entries():
    sketch = AgmsSketch(16, seed=7)
    with pytest.raises(ConfigurationError):
        fused_estimate([sketch], np.arange(5))


def test_fused_estimate_rejects_out_of_range_keys():
    with pytest.raises(DomainError):
        fused_estimate(_filled_readables(), np.array([0, 2**31 - 1]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_sketch_view_answers_point_queries(backend):
    """A snapshot's frozen sketch answers point queries on every backend
    (reads skip the writeable check); an update through it still refuses."""
    from repro.engine import OnlineStatisticsEngine

    engine = OnlineStatisticsEngine(buckets=256, rows=3, seed=42)
    engine.register("f", 1000)
    engine.consume("f", np.random.default_rng(5).integers(0, 100, size=600))
    with use_backend("reference"):
        reference = engine.snapshot().sketch_view("f")
        expected = [reference.point_estimate(key) for key in range(100)]
    with use_backend(backend):
        view = engine.snapshot().sketch_view("f")
        assert not view.counters.flags.writeable
        assert [view.point_estimate(key) for key in range(100)] == expected
        with pytest.raises(ValueError):
            view.update(np.array([1, 2, 3]))
    assert view.counters.tobytes() == reference.counters.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("index", [0, 1, 2], ids=["fagms", "countmin", "fagms-1021"])
@pytest.mark.parametrize("sign_family", ["fourwise", "eh3"])
def test_read_only_counters_stay_readable(backend, index, sign_family):
    sketch = _filled_readables(sign_family)[index]
    queries = np.arange(200)
    with use_backend("reference"):
        expected = fused_estimate([sketch], queries)
        expected_points = [sketch.point_estimate(key) for key in range(50)]
    frozen = sketch.counters_snapshot()
    sketch._adopt_state(frozen)
    with use_backend(backend):
        reads = fused_estimate([sketch], queries)
        points = [sketch.point_estimate(key) for key in range(50)]
        with pytest.raises(ValueError):
            sketch.update(queries)
    assert reads.tobytes() == expected.tobytes()
    assert points == expected_points


# ----------------------------------------------------------------------
# Profiling seam visibility (the fused call is metered, not bypassed)
# ----------------------------------------------------------------------


def test_profiled_fused_update_is_metered_and_bit_identical():
    keys = _keys(8_192)
    plain = _trio()
    fused_update(plain, keys)
    profiled = _trio()
    obs = Observer()
    with profile_kernels(obs) as wrapper:
        fused_update(profiled, keys)
        backend = wrapper.inner.name
    for a, b in zip(plain, profiled):
        assert np.array_equal(a._state(), b._state())
    snapshot = obs.metrics.snapshot()
    ops = snapshot.counter_value("kernels.ops", op="fused_update", backend=backend)
    assert ops == 1
    rows = snapshot.counter_value(
        "kernels.rows", op="fused_update", backend=backend
    )
    total_rows = sum(s.rows for s in plain)
    assert rows == total_rows * keys.size


def test_profiling_wrapper_forwards_int32_capability():
    from repro.kernels.backend import get_backend
    from repro.observability import ProfilingKernelBackend

    inner = get_backend()
    wrapper = ProfilingKernelBackend(inner, Observer())
    assert wrapper.fused_accepts_int32 == getattr(
        inner, "fused_accepts_int32", False
    )
