"""Equivalence and seam tests for :mod:`repro.kernels`.

The kernel layer's contract is *bit-identity*: whatever backend is
active, the same seeds and the same stream must produce exactly the same
counters as the pre-kernel per-row path (``evaluate_row`` loops plus
``np.add.at``), which the ``"reference"`` backend preserves verbatim.
Everything here asserts with ``np.array_equal`` — not ``allclose`` —
except the one case where exactness is genuinely not promised
(the fused bincount path under arbitrary non-integer float weights,
where only the summation order differs).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing.families import BucketHashFamily, PolynomialHashFamily
from repro.hashing.signs import EH3SignFamily, FourWiseSignFamily
from repro.hashing.tabulation import TabulationHashFamily, TabulationSignFamily
from repro.kernels import (
    BACKEND_ENV_VAR,
    available_backends,
    backend_name,
    fused_estimate,
    get_backend,
    native_available,
    set_backend,
    use_backend,
)
from repro.kernels import backend as backend_module
from repro.sketches.agms import AgmsSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.fagms import FagmsSketch

FAST_BACKENDS = ["numpy"] + (["native"] if native_available() else [])
ALL_BACKENDS = ["reference"] + FAST_BACKENDS


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the active backend as it found it."""
    previous = backend_name()
    yield
    set_backend(previous)


def _keys(n, seed=0, hi=2**31 - 2):
    return np.random.default_rng(seed).integers(0, hi, size=n, dtype=np.int64)


# ----------------------------------------------------------------------
# Hashing: evaluate_all vs evaluate_row, per backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8])
def test_polynomial_evaluate_all_matches_rows(backend, k):
    family = PolynomialHashFamily(k, rows=4, seed=123)
    keys = _keys(257, seed=k)
    with use_backend(backend):
        batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(4)])
    assert batched.dtype == np.uint64
    assert np.array_equal(batched, stacked)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("buckets", [1, 2, 1024, 1021, 65536, 99991])
def test_bucket_evaluate_all_matches_rows(backend, buckets):
    family = BucketHashFamily(buckets, rows=3, seed=7)
    keys = _keys(301, seed=buckets)
    with use_backend(backend):
        batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(3)])
    assert batched.dtype == np.int64
    assert np.array_equal(batched, stacked)
    assert int(batched.min()) >= 0 and int(batched.max()) < buckets


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize(
    "family_cls", [FourWiseSignFamily, EH3SignFamily, TabulationSignFamily]
)
def test_sign_evaluate_all_matches_rows(backend, family_cls):
    family = family_cls(rows=5, seed=42)
    keys = _keys(199, seed=3)
    with use_backend(backend):
        batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(5)])
    assert batched.dtype == np.int8
    assert np.array_equal(batched, stacked)
    assert set(np.unique(batched)) <= {-1, 1}


def test_tabulation_hash_evaluate_all_matches_rows():
    family = TabulationHashFamily(rows=3, seed=9)
    keys = _keys(128, seed=4)
    batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(3)])
    assert np.array_equal(batched, stacked)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_hashing_handles_empty_keys(backend):
    empty = np.empty(0, dtype=np.int64)
    with use_backend(backend):
        assert PolynomialHashFamily(4, 2, seed=1).evaluate_all(empty).shape == (2, 0)
        assert BucketHashFamily(64, 2, seed=1).evaluate_all(empty).shape == (2, 0)
        assert FourWiseSignFamily(2, seed=1).evaluate_all(empty).shape == (2, 0)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_hashing_extreme_keys(backend):
    """Boundary keys (0 and p−2) reduce identically on every backend."""
    family = PolynomialHashFamily(4, rows=2, seed=5)
    keys = np.array([0, 1, 2**31 - 2, 2**30, 12345], dtype=np.int64)
    with use_backend(backend):
        batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(2)])
    assert np.array_equal(batched, stacked)


# ----------------------------------------------------------------------
# Sketch counters: fast backends vs the reference backend
# ----------------------------------------------------------------------


def _fill(sketch_factory, weighted, chunks=3, n=2000, seed=17):
    """Build one sketch per backend from an identical stream; return states."""
    states = {}
    for name in ALL_BACKENDS:
        with use_backend(name):
            sketch = sketch_factory()
            rng = np.random.default_rng(seed)
            for _ in range(chunks):
                keys = rng.integers(0, 2**31 - 2, size=n, dtype=np.int64)
                if weighted:
                    # Integer-valued float weights: partial-sum reassociation
                    # is exact, so equality must be bit-for-bit.
                    weights = rng.integers(-3, 8, size=n).astype(np.float64)
                else:
                    weights = None
                sketch.update(keys, weights)
            states[name] = sketch._state().copy()
    return states


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("sign_family", ["fourwise", "eh3"])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("buckets", [1024, 1021])
def test_fagms_counters_bit_identical(weighted, sign_family, rows, buckets):
    states = _fill(
        lambda: FagmsSketch(buckets, rows, seed=7, sign_family=sign_family),
        weighted,
    )
    for name in FAST_BACKENDS:
        assert np.array_equal(states[name], states["reference"]), name


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_countmin_counters_bit_identical(weighted):
    states = _fill(lambda: CountMinSketch(512, rows=4, seed=11), weighted)
    for name in FAST_BACKENDS:
        assert np.array_equal(states[name], states["reference"]), name


@pytest.mark.parametrize("sign_family", ["fourwise", "eh3"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_agms_counters_bit_identical(sign_family, weighted):
    states = _fill(
        lambda: AgmsSketch(16, seed=13, sign_family=sign_family), weighted
    )
    for name in FAST_BACKENDS:
        assert np.array_equal(states[name], states["reference"]), name


def test_arbitrary_float_weights_close():
    """Non-integer weights: bincount reassociates partial sums, so the
    numpy backend promises only closeness; the native backend accumulates
    element by element in stream order and stays bit-identical."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2**31 - 2, size=4096, dtype=np.int64)
    weights = rng.normal(size=4096)
    states = {}
    for name in ALL_BACKENDS:
        with use_backend(name):
            sketch = FagmsSketch(256, 3, seed=7)
            sketch.update(keys, weights)
            states[name] = sketch._state().copy()
    np.testing.assert_allclose(states["numpy"], states["reference"], rtol=1e-12)
    if "native" in states:
        assert np.array_equal(states["native"], states["reference"])


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_empty_batch_is_a_noop(backend):
    with use_backend(backend):
        for sketch in (
            FagmsSketch(64, 2, seed=1),
            CountMinSketch(64, 2, seed=1),
            AgmsSketch(4, seed=1),
        ):
            before = sketch._state().copy()
            sketch.update(np.empty(0, dtype=np.int64))
            assert np.array_equal(sketch._state(), before)


def test_estimates_match_across_backends():
    """Query paths (gather/median, point estimate) agree bit-for-bit."""
    keys = _keys(5000, seed=21, hi=1000)
    queries = np.arange(50, dtype=np.int64)
    freq, point = {}, {}
    for name in ALL_BACKENDS:
        with use_backend(name):
            f = FagmsSketch(256, 5, seed=2)
            f.update(keys)
            freq[name] = f.estimate_frequencies(queries)
            c = CountMinSketch(256, 4, seed=2)
            c.update(keys)
            point[name] = [c.point_estimate(int(q)) for q in queries]
    for name in FAST_BACKENDS:
        assert np.array_equal(freq[name], freq["reference"])
        assert point[name] == point["reference"]


# ----------------------------------------------------------------------
# Point reads: one fused_estimate seam call, bit-identical to reference
# ----------------------------------------------------------------------

_POINT_SKETCHES = [
    ("fagms", lambda rows, buckets: FagmsSketch(buckets, rows, seed=9)),
    (
        "fagms-eh3",
        lambda rows, buckets: FagmsSketch(buckets, rows, seed=9, sign_family="eh3"),
    ),
    ("countmin", lambda rows, buckets: CountMinSketch(buckets, rows, seed=9)),
]


def _point_sketch(kind, rows, buckets):
    """A sketch over a Zipf-ish stream with negative weights, so the reads
    hold positive, negative and zero counters (and signed zeros)."""
    factory = dict(_POINT_SKETCHES)[kind]
    sketch = factory(rows, buckets)
    rng = np.random.default_rng(rows * buckets)
    keys = rng.zipf(1.3, size=4000) % 3000
    sketch.update(keys.astype(np.int64), rng.integers(-2, 4, size=keys.size))
    return sketch


def _point_answers(sketch, queries):
    reads = fused_estimate(sketch._update_plan(), queries)
    points = [sketch.point_estimate(int(q)) for q in queries[:300]]
    batch = (
        sketch.estimate_frequencies(queries)
        if isinstance(sketch, FagmsSketch)
        else None
    )
    return reads, points, batch


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("key_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("buckets", [1024, 1021])
@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("kind", [kind for kind, _ in _POINT_SKETCHES])
def test_point_reads_bit_identical_to_reference(
    backend, key_dtype, buckets, rows, kind
):
    """``fused_estimate``, ``estimate_frequencies`` and ``point_estimate``
    match the reference backend bit for bit (signed zeros included); two
    rows exercise the even-count median, the mean of the middle two."""
    sketch = _point_sketch(kind, rows, buckets)
    queries = np.arange(0, 3500, 3).astype(key_dtype)
    with use_backend("reference"):
        expected = _point_answers(sketch, queries)
    with use_backend(backend):
        actual = _point_answers(sketch, queries)
    assert _same_bits(actual[0], expected[0])
    assert actual[1] == expected[1]
    assert _same_bits(actual[1], expected[1])
    if expected[2] is not None:
        assert np.array_equal(actual[2], expected[2])
        assert _same_bits(actual[2], expected[2])


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_point_estimate_is_the_numpy_median_of_the_reads(backend, rows):
    """The scalar median is ``np.median`` of the per-row reads, bit for
    bit, including zero and tied middles."""
    sketch = _point_sketch("fagms", rows, 64)
    queries = np.arange(2000, dtype=np.int64)
    with use_backend(backend):
        reads = fused_estimate(sketch._update_plan(), queries)
        points = [sketch.point_estimate(int(q)) for q in queries]
    expected = np.median(reads, axis=0)
    assert _same_bits(points, expected)
    assert (expected == 0).any()


def test_exact_median_matches_numpy_on_awkward_columns():
    """Signed zeros, NaNs, infinities, overflow and even counts."""
    from repro.sketches._combine import exact_median

    columns = [
        [-0.0],
        [0.0, -0.0],
        [-0.0, -0.0],
        [3.0, -3.0],
        [1.0, -0.0, 0.0],
        [-0.0, 0.0, -0.0, 0.0, 2.0],
        [np.nan, 1.0, 2.0],
        [np.inf, -np.inf],
        [np.inf, 1.0, np.inf],
        [1e308, 1e308],
        [5.0, 1.0, 4.0, 2.0],
    ]
    for column in columns:
        reads = np.array(column)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.median(reads, axis=0)[0]
            assert _same_bits(exact_median(reads), expected), column


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("kind", [kind for kind, _ in _POINT_SKETCHES])
def test_point_reads_empty_batch(backend, kind):
    sketch = _point_sketch(kind, 3, 64)
    with use_backend(backend):
        reads = fused_estimate(sketch._update_plan(), np.empty(0, dtype=np.int64))
        assert reads.shape == (3, 0)
        if kind != "countmin":
            estimates = sketch.estimate_frequencies([])
            assert estimates.shape == (0,)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("kind", [kind for kind, _ in _POINT_SKETCHES])
def test_point_reads_reject_out_of_range_keys(backend, kind):
    from repro.errors import DomainError

    sketch = _point_sketch(kind, 2, 64)
    with use_backend(backend):
        for key in (-1, 2**31 - 1, 2**40):
            with pytest.raises(DomainError):
                sketch.point_estimate(key)
            if kind != "countmin":
                with pytest.raises(DomainError):
                    sketch.estimate_frequencies([0, key])


# ----------------------------------------------------------------------
# Legacy pin: an inline reimplementation of the pre-kernel update path,
# independent of the kernels package entirely.
# ----------------------------------------------------------------------


def _legacy_fagms_update(sketch, keys, weights=None):
    """The pre-kernel F-AGMS update: per-row evaluate_row + np.add.at."""
    keys = np.asarray(keys)
    deltas = None if weights is None else np.asarray(weights, dtype=np.float64)
    for row in range(sketch.rows):
        buckets = sketch._bucket_hash.evaluate_row(row, keys)
        signs = sketch._signs.evaluate_row(row, keys).astype(np.float64)
        np.add.at(
            sketch._counters[row],
            buckets,
            signs if deltas is None else signs * deltas,
        )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_fagms_matches_inline_legacy_reimplementation(backend):
    keys = _keys(3000, seed=8)
    weights = np.random.default_rng(8).integers(1, 5, size=3000).astype(np.float64)
    with use_backend(backend):
        kernel_sketch = FagmsSketch(512, 3, seed=7)
        kernel_sketch.update(keys)
        kernel_sketch.update(keys, weights)
    legacy_sketch = FagmsSketch(512, 3, seed=7)
    _legacy_fagms_update(legacy_sketch, keys)
    _legacy_fagms_update(legacy_sketch, keys, weights)
    assert np.array_equal(kernel_sketch._counters, legacy_sketch._counters)


# ----------------------------------------------------------------------
# The dispatch seam
# ----------------------------------------------------------------------


def test_available_backends_lists_all():
    names = available_backends()
    assert "numpy" in names and "reference" in names and "native" in names


def test_unknown_backend_raises():
    with pytest.raises(ConfigurationError, match="unknown kernel backend"):
        set_backend("no-such-backend")


def test_use_backend_restores_previous():
    set_backend("numpy")
    with use_backend("reference") as backend:
        assert backend.name == "reference"
        assert backend_name() == "reference"
    assert backend_name() == "numpy"


def test_use_backend_restores_after_exception():
    set_backend("numpy")
    with pytest.raises(RuntimeError):
        with use_backend("reference"):
            raise RuntimeError("boom")
    assert backend_name() == "numpy"


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setattr(backend_module, "_active", None)
    monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
    assert get_backend().name == "reference"


@pytest.fixture
def unresolved(monkeypatch):
    """No backend chosen yet and no env var: the default selection runs."""
    monkeypatch.setattr(backend_module, "_active", None)
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    return monkeypatch


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_default_resolves_to_native_when_self_test_passes(unresolved):
    from repro.kernels import native_self_test

    assert native_self_test() is True
    assert get_backend().name == "native"


@pytest.mark.parametrize("key_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_self_test_digests_are_the_reference_backends_output(key_dtype, weighted):
    """The native self-test compares against recorded reference counters;
    re-derive them so the record can never drift from the reference."""
    from repro.kernels import ReferenceKernelBackend
    from repro.kernels import native as native_module

    digest = native_module._self_test_digest(
        ReferenceKernelBackend(), key_dtype, weighted
    )
    assert digest == native_module._SELF_TEST_DIGESTS[weighted]
    read = native_module._self_test_read_digest(ReferenceKernelBackend(), key_dtype)
    assert read == native_module._SELF_TEST_DIGESTS["read"]


def test_default_resolves_to_numpy_when_native_build_fails(unresolved):
    from repro.kernels import native as native_module

    unresolved.setattr(native_module, "_lib", None)
    unresolved.setattr(native_module, "_build_error", "cc: not found")
    assert get_backend().name == "numpy"


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_default_resolves_to_numpy_when_self_test_mismatches(unresolved):
    from repro.kernels import native as native_module

    honest = native_module.NativeKernelBackend.fused_update

    def off_by_one(self, plan, keys, weights=None):
        honest(self, plan, keys, weights)
        plan.entries[0].counters[0, 0] += 1.0

    unresolved.setattr(native_module.NativeKernelBackend, "fused_update", off_by_one)
    assert native_module.native_self_test() is False
    assert get_backend().name == "numpy"


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_default_resolves_to_numpy_when_self_test_read_mismatches(unresolved):
    """A wrong C read kernel alone keeps native from being the default."""
    from repro.kernels import native as native_module

    honest = native_module.NativeKernelBackend.fused_estimate

    def flipped_sign(self, plan, keys):
        reads = honest(self, plan, keys)
        reads[0, 0] = -reads[0, 0]
        return reads

    unresolved.setattr(
        native_module.NativeKernelBackend, "fused_estimate", flipped_sign
    )
    assert native_module.native_self_test() is False
    assert get_backend().name == "numpy"


@pytest.mark.parametrize("name", ["numpy", "reference"])
def test_env_var_wins_over_the_default(unresolved, name):
    unresolved.setenv(BACKEND_ENV_VAR, name)
    assert get_backend().name == name


def test_native_activation_reports_build_failure(monkeypatch):
    """When the build failed, activating the native backend explains why."""
    from repro.kernels import native as native_module

    monkeypatch.setattr(native_module, "_lib", None)
    monkeypatch.setattr(native_module, "_build_error", "cc: not found")
    with pytest.raises(ConfigurationError, match="native kernel backend unavailable"):
        native_module._library()
    assert native_module.native_available() is False
    assert native_module.native_build_error() == "cc: not found"


# ----------------------------------------------------------------------
# Backend primitives directly (scatter/gather/sign reductions)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_scatter_add_matches_reference(backend, weighted):
    rng = np.random.default_rng(31)
    rows, buckets, n = 3, 37, 500
    indices = rng.integers(0, buckets, size=(rows, n), dtype=np.int64)
    weights = rng.integers(-2, 9, size=n).astype(np.float64) if weighted else None
    expected = np.zeros((rows, buckets))
    get_backend()  # ensure resolution before direct registry access
    with use_backend("reference"):
        get_backend().scatter_add(expected, indices, weights)
    actual = np.zeros((rows, buckets))
    with use_backend(backend):
        get_backend().scatter_add(actual, indices, weights)
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_signed_scatter_add_matches_reference(backend, weighted):
    rng = np.random.default_rng(32)
    rows, buckets, n = 2, 53, 700
    indices = rng.integers(0, buckets, size=(rows, n), dtype=np.int64)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, n))
    weights = rng.integers(1, 6, size=n).astype(np.float64) if weighted else None
    expected = np.zeros((rows, buckets))
    with use_backend("reference"):
        get_backend().signed_scatter_add(expected, indices, signs, weights)
    actual = np.zeros((rows, buckets))
    with use_backend(backend):
        get_backend().signed_scatter_add(actual, indices, signs, weights)
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_gather_and_sign_reductions(backend):
    rng = np.random.default_rng(33)
    counters = rng.normal(size=(4, 29))
    indices = rng.integers(0, 29, size=(4, 100), dtype=np.int64)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(4, 100))
    weights = rng.normal(size=100)
    with use_backend(backend):
        backend_obj = get_backend()
        gathered = backend_obj.gather(counters, indices)
        assert gathered.shape == (4, 100)
        expected = np.stack([counters[r, indices[r]] for r in range(4)])
        assert np.array_equal(gathered, expected)
        assert np.array_equal(
            backend_obj.sign_sum(signs), signs.sum(axis=1, dtype=np.float64)
        )
        out = np.empty(4)
        result = backend_obj.sign_dot(signs, weights, out=out)
        assert result is out
        np.testing.assert_allclose(out, signs.astype(np.float64) @ weights)


# ----------------------------------------------------------------------
# Read-only counters (a frozen snapshot bound to a sketch) never change
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize(
    "factory",
    [
        lambda: FagmsSketch(64, 3, seed=5),
        lambda: FagmsSketch(64, 3, seed=5, sign_family="eh3"),
        lambda: CountMinSketch(64, 3, seed=5),
        lambda: AgmsSketch(4, seed=5),
    ],
    ids=["fagms", "fagms-eh3", "countmin", "agms"],
)
def test_update_into_read_only_counters_raises(backend, weighted, factory):
    sketch = factory()
    frozen = sketch.counters_snapshot()
    sketch._adopt_state(frozen)
    keys = _keys(300, seed=4)
    weights = np.full(keys.size, 2.0) if weighted else None
    with use_backend(backend), pytest.raises(ValueError):
        sketch.update(keys, weights)
    assert not frozen.any()


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_native_scatters_refuse_read_only_counters():
    from repro.errors import ReproError

    counters = np.zeros((2, 16))
    counters.flags.writeable = False
    indices = np.zeros((2, 5), dtype=np.int64)
    signs = np.ones((2, 5), dtype=np.int8)
    with use_backend("native") as native:
        with pytest.raises(ReproError, match="read-only"):
            native.scatter_add(counters, indices)
        with pytest.raises(ReproError, match="read-only"):
            native.signed_scatter_add(counters, indices, signs)
    assert not counters.any()
