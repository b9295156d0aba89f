"""Vectorized compute kernels behind every sketch update path.

Sketch updates decompose into two stages: *hashing* (map a batch of keys
to bucket indices and ±1 signs, one row per basic estimator) and
*accumulation* (scatter the signed deltas into the counter matrix).
Every sketch update crosses the seam in this subpackage exactly once,
through the fused entry point (:mod:`~repro.kernels.fused`): a sketch's
``update()`` is :func:`fused_update` on a one-entry plan, and several
sketches over one key stream share a single pass (see
:func:`make_fused_plan`).  The backend hashes and accumulates inside
that call.  The separate primitives stay on the seam for the query
path and as the reference semantics: the polynomial hash families
dispatch their row-batched evaluation via ``polynomial_mod_p`` /
``bucket_indices`` / ``parity_signs``, and the base
:meth:`KernelBackend.fused_update` replays an update as ``scatter_add``
/ ``signed_scatter_add`` and the AGMS sign reductions.  Point queries
cross the seam once too, through :func:`fused_estimate`; its base
implementation replays ``bucket_indices`` / ``parity_signs`` /
``gather``.

Three backends register themselves at import time:

* :mod:`~repro.kernels.native` — a small C library built with the
  system compiler and cached per user and host; hashes and scatters
  each key in one loop while it sits in a register.  The default when
  it loads and passes :func:`native_self_test`.  Without a compiler or
  a cached build it stays registered (raising on activation) and the
  default falls back to numpy.
* :mod:`~repro.kernels.numpy_backend` — the default when native is
  unavailable.  Hashing runs a lazily-reduced Horner pass with no 64-bit
  divisions; scatter-adds are one :func:`numpy.bincount` over flattened
  ``row · buckets + bucket`` indices, and unweighted ±1 updates count
  into sign-split slots (exact integer arithmetic) in L2-sized key
  blocks.
* :mod:`~repro.kernels.reference` — the legacy per-row ``np.add.at``
  and exact-``%`` hashing path, kept as the behavioural baseline the
  equivalence tests, the native self-test and the perf-smoke benchmark
  compare against.

Backends are selected with :func:`set_backend` / :func:`use_backend`, or
the ``REPRO_KERNEL_BACKEND`` environment variable, both of which take
priority over the default; further backends register themselves with
:func:`register_backend` and slot in without touching any sketch or
hashing code.

Every backend must leave counters **bit-identical** to the reference
path for integer-valued deltas (the unweighted and frequency-vector
workloads): hash values are canonical residues mod ``2³¹ − 1`` in every
backend, and per-bucket partial sums are accumulated in stream order, so
the only freedom — adding a per-call partial sum to the counter instead
of accumulating element by element — is exact whenever those sums are
exactly representable.  ``tests/test_kernels.py`` enforces this with
``np.array_equal`` across all sketches and sign families.
"""

from .backend import (
    BACKEND_ENV_VAR,
    KernelBackend,
    available_backends,
    backend_name,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .fused import (
    FusedEntry,
    FusedPlan,
    fused_estimate,
    fused_update,
    make_fused_plan,
)
from .native import (
    NativeKernelBackend,
    native_available,
    native_openmp,
    native_self_test,
    native_threads,
    set_native_threads,
)
from .numpy_backend import NumpyKernelBackend
from .reference import ReferenceKernelBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "FusedEntry",
    "FusedPlan",
    "KernelBackend",
    "NativeKernelBackend",
    "NumpyKernelBackend",
    "ReferenceKernelBackend",
    "available_backends",
    "backend_name",
    "fused_estimate",
    "fused_update",
    "get_backend",
    "make_fused_plan",
    "native_available",
    "native_openmp",
    "native_self_test",
    "native_threads",
    "register_backend",
    "set_backend",
    "set_native_threads",
    "use_backend",
]
