"""The kernel-backend dispatch seam.

A :class:`KernelBackend` bundles the accumulation primitives every sketch
update path routes through.  Exactly one backend is *active* at a time;
sketches fetch it per call with :func:`get_backend` (cheap — a module
attribute read), so switching backends affects all sketches immediately
and needs no per-sketch plumbing.

Selection, in priority order:

1. an explicit :func:`set_backend` / :func:`use_backend` call;
2. the ``REPRO_KERNEL_BACKEND`` environment variable, read once on the
   first :func:`get_backend` call;
3. the default, also resolved on that first call: ``"native"`` when its
   compiled library loads (from the per-user build cache, or built on
   the spot) and passes :func:`~repro.kernels.native.native_self_test`,
   a bit-identity check against ``"reference"``; otherwise ``"numpy"``.
   ``REPRO_KERNEL_BACKEND=numpy`` keeps a process off the compiled path.

New backends (e.g. a numba- or C-compiled one) call
:func:`register_backend` at import time and become selectable by name.
"""

from __future__ import annotations

import abc
import os
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "available_backends",
    "backend_name",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the backend to activate on first use.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"


class KernelBackend(abc.ABC):
    """Accumulation primitives shared by every sketch update path.

    Shape conventions (one row per basic estimator):

    * ``counters`` — ``(rows, buckets)`` float64, mutated in place;
    * ``indices`` — ``(rows, n)`` int64 bucket index per row and tuple;
    * ``signs`` — ``(rows, n)`` int8 of ±1;
    * ``weights`` — ``(n,)`` float64 per-tuple weights, or ``None`` for
      the unweighted (+1 per tuple) fast path.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    def check_available(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` if this backend
        cannot run in this process; :func:`set_backend` calls it."""

    @abc.abstractmethod
    def scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Add ``weights`` (or +1 per tuple) into ``counters[row, indices[row]]``."""

    @abc.abstractmethod
    def signed_scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        signs: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Add ``signs * weights`` (or just ``signs``) into the indexed counters."""

    @abc.abstractmethod
    def gather(self, counters: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Read ``counters[row, indices[row]]``; returns ``(rows, n)`` float64."""

    @abc.abstractmethod
    def sign_sum(self, signs: np.ndarray) -> np.ndarray:
        """Per-row sum of a ±1 matrix as float64 — the unweighted AGMS delta."""

    @abc.abstractmethod
    def sign_dot(
        self,
        signs: np.ndarray,
        weights: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-row ``signs @ weights`` as float64 — the weighted AGMS delta.

        ``out``, when given, is a preallocated ``(rows,)`` float64 buffer
        the product is written into (and returned), so steady-state
        updates allocate nothing but the float view of ``signs``.
        """

    # ------------------------------------------------------------------
    # Hashing stage.  The polynomial families in :mod:`repro.hashing`
    # route their row-batched evaluation through these hooks, so a
    # compiled backend can fuse the whole Horner loop into one pass.
    # The base implementations delegate to the vectorized numpy helpers
    # (lazy imports: hashing imports this module at load time).
    # ------------------------------------------------------------------

    def polynomial_mod_p(
        self, coefficients: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Evaluate each row's polynomial mod ``2³¹ − 1`` on *keys*.

        ``coefficients`` is the ``(rows, k)`` uint64 matrix of a
        :class:`~repro.hashing.families.PolynomialHashFamily`; ``keys``
        is a checked ``(n,)`` uint64 array.  Returns the canonical
        ``(rows, n)`` uint64 residues — every backend must produce
        bit-identical values here.
        """
        from ..hashing.families import _horner_all

        return _horner_all(coefficients, keys)

    def bucket_indices(
        self, coefficients: np.ndarray, keys: np.ndarray, buckets: int
    ) -> np.ndarray:
        """Bucket index per row and key: ``(rows, n)`` int64 in ``[0, buckets)``."""
        from ..hashing.families import _bucket_all

        return _bucket_all(coefficients, keys, buckets)

    def parity_signs(
        self, coefficients: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """±1 parity of each row's polynomial hash: ``(rows, n)`` int8."""
        from ..hashing.families import _horner_all
        from ..hashing.signs import _parity_signs

        return _parity_signs(_horner_all(coefficients, keys))

    # ------------------------------------------------------------------
    # Fused multi-sketch stage (see :mod:`repro.kernels.fused`).
    # ------------------------------------------------------------------

    #: Backends that can stream ``int32``/``uint32`` keys without a
    #: Python-side widening copy set this to True (the native backend).
    fused_accepts_int32: bool = False

    def fused_update(self, plan, keys: np.ndarray, weights=None) -> None:
        """Update every sketch in *plan* with one prepared key batch.

        *keys* arrive validated (range-checked against the plan's key
        bound) and — unless :attr:`fused_accepts_int32` — widened to the
        canonical ``uint64`` the hash families use; *weights* is a
        ``(n,)`` float64 array or ``None``.  This is the only call an
        update makes into the backend.  The base implementation replays
        each entry through the primitives above (``bucket_indices`` /
        ``parity_signs`` / the scatter and sign reductions), which is
        the reference semantics; subclasses override to hash and
        accumulate in fewer passes, bit-identically.
        """
        if keys.dtype != np.uint64:
            # Hash-key API dtype, not an accumulator.
            keys = keys.astype(np.uint64)  # repro: noqa(REP002)
        for entry in plan.entries:
            entry.replay(self, keys, weights)

    def fused_estimate(self, plan, keys: np.ndarray) -> np.ndarray:
        """Per-row point reads of every sketch in *plan* for one key batch.

        Returns ``(Σ entry.rows, n)`` float64, entries stacked in plan
        order: ``ξᵣ(key)·counters[r, hᵣ(key)]`` for ``"fagms"`` entries
        and ``counters[r, hᵣ(key)]`` for ``"countmin"``.  *keys* arrive
        prepared as for :meth:`fused_update`.  Counters are only read, so
        read-only (snapshot) counters are fine.  This is the only call a
        point query makes into the backend.  The base implementation
        replays each entry through ``bucket_indices`` / ``parity_signs``
        (or the EH3 family) / ``gather``, which is the reference
        semantics; subclasses override to read in one pass,
        bit-identically.
        """
        if keys.dtype != np.uint64:
            # Hash-key API dtype, not an accumulator.
            keys = keys.astype(np.uint64)  # repro: noqa(REP002)
        return np.concatenate([entry.read(self, keys) for entry in plan.entries])


_REGISTRY: dict = {}
_active: Optional[KernelBackend] = None


def register_backend(backend: KernelBackend) -> None:
    """Make *backend* selectable by its :attr:`~KernelBackend.name`."""
    _REGISTRY[backend.name] = backend


def available_backends() -> tuple:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def set_backend(name) -> KernelBackend:
    """Activate a backend and return it.

    *name* is either a registry key (the common case) or a
    :class:`KernelBackend` *instance* — the latter activates the instance
    directly without registering it, which is how transient wrappers like
    :class:`repro.observability.profiling.ProfilingKernelBackend` splice
    into the seam without polluting :func:`available_backends`.  Raises
    :class:`~repro.errors.ConfigurationError` for an unknown name or a
    backend that cannot run here (native without a compiler or a cached
    build), leaving the active backend unchanged.
    """
    global _active
    if isinstance(name, KernelBackend):
        backend = name
    else:
        try:
            backend = _REGISTRY[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown kernel backend {name!r}; "
                f"available: {available_backends()}"
            ) from None
    backend.check_available()
    _active = backend
    return _active


def _default_backend_name() -> str:
    """``"native"`` if it loads and passes its self-test, else ``"numpy"``."""
    from .native import native_self_test  # native imports this module

    return "native" if native_self_test() else "numpy"


def get_backend() -> KernelBackend:
    """The active backend (resolving the env var or default on first use)."""
    if _active is None:
        name = os.environ.get(BACKEND_ENV_VAR)
        return set_backend(_default_backend_name() if name is None else name)
    return _active


def backend_name() -> str:
    """Name of the active backend."""
    return get_backend().name


@contextmanager
def use_backend(name) -> Iterator[KernelBackend]:
    """Context manager activating *name*, restoring the previous backend after.

    Like :func:`set_backend`, *name* may be a registry key or a
    :class:`KernelBackend` instance.  The previously active backend
    object is restored on exit even when it was never registered.
    """
    previous = get_backend()
    backend = set_backend(name)
    try:
        yield backend
    finally:
        set_backend(previous)
