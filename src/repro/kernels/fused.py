"""The fused multi-sketch update entry point on the backend seam.

A statistics pipeline commonly maintains several sketches over the *same*
key stream — an AGMS sketch for unbiased moments, an F-AGMS sketch for
point queries, a Count-Min baseline.  Updating them one at a time walks
the chunk once per sketch: every ``update()`` call re-validates the keys
(two full min/max scans per hash family), materializes its own
``(rows, n)`` index/sign matrices, and pays its own Python/ctypes
dispatch.  :func:`fused_update` replaces that with **one pass over the
chunk that updates every sketch**: keys are validated and widened once,
and the active backend receives the whole batch of hash families together
so it can keep each key in registers while evaluating all of them (the
native backend) or share one stacked Horner pass across sketches (the
numpy backend) — the batching idea of disaggregated-sketch systems
(arXiv 1709.04048) applied to the update path.

It is also the *only* sketch update path: each sketch's ``update()``
runs :func:`fused_update` on a one-entry plan it caches, so a single
``update()`` on a 2²⁰-key chunk gets the same key blocking (numpy) or
single C pass (native) as a multi-sketch batch, and never materializes
the ``(rows, n)`` index/sign matrices.

Point queries take the same shape on the read side: :func:`fused_estimate`
validates keys once and makes one seam call,
:meth:`~repro.kernels.backend.KernelBackend.fused_estimate`, which
returns each row's ``ξ(key)·counter[h(key)]`` (or the bare counter for
Count-Min) — the native backend hashes, signs and reads each key in C.

The seam method is :meth:`~repro.kernels.backend.KernelBackend.fused_update`;
its base implementation replays the hashing and accumulation primitives
(``bucket_indices`` / ``parity_signs`` / the scatter and sign
reductions) entry by entry, so **a multi-sketch call is bit-identical
to calling each sketch's** ``update()`` **in turn, and every backend to
the reference backend** — enforced for all sketch types × backends in
``tests/test_fused_kernels.py`` and ``tests/test_kernels.py``.

Plans
-----
A :class:`FusedPlan` is the backend-facing description of the co-updated
sketches: one :class:`FusedEntry` per sketch carrying live references to
its counter array and hash-family coefficients.  Build one with
:func:`make_fused_plan` and reuse it across chunks (the cheap path), or
pass the sketch sequence straight to :func:`fused_update` (a plan is
built per call).  A plan holds *references* — rebuilding a sketch's
counter storage (e.g. :meth:`~repro.sketches.base.Sketch._bind_state`)
invalidates any plan built before it; a sketch drops its own cached
plan when that happens.

int32 fast path
---------------
``fused_update`` accepts any integer key dtype.  Backends that advertise
``fused_accepts_int32 = True`` (the native backend) receive ``int32`` /
``uint32`` keys unwidened and widen them register-side while streaming —
half the key memory traffic; everyone else gets the canonical ``uint64``
view the hash families use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, DomainError
from .backend import get_backend

__all__ = [
    "FusedEntry",
    "FusedPlan",
    "fused_estimate",
    "fused_update",
    "make_fused_plan",
]

#: Entry kinds a backend may receive (see :class:`FusedEntry.kind`).
FUSED_KINDS = ("agms", "fagms", "countmin")


@dataclass
class FusedEntry:
    """One sketch's share of a fused update, as live array references.

    ``kind`` fixes the accumulation shape:

    * ``"agms"`` — ``counters`` is the ``(rows,)`` vector; the update adds
      the per-row sum of ±1 signs (×weights).  ``sign_coefficients`` is
      the ``(rows, 4)`` fourwise matrix when ``sign_kind == "poly"``;
      EH3 families ship ``sign_family`` instead and evaluate through
      their vectorized numpy path.
    * ``"fagms"`` — ``counters`` is ``(rows, buckets)``;
      ``bucket_coefficients`` is the ``(rows, 2)`` pairwise matrix and
      the signed scatter uses the same sign machinery as ``"agms"``.
    * ``"countmin"`` — like ``"fagms"`` without signs.
    """

    kind: str
    counters: np.ndarray
    rows: int
    buckets: int = 0
    bucket_coefficients: Optional[np.ndarray] = None
    sign_kind: Optional[str] = None
    sign_coefficients: Optional[np.ndarray] = None
    sign_family: object = None
    scratch: Optional[np.ndarray] = None
    #: Upper bound (exclusive) the keys must respect for this entry's
    #: hash families; the plan validates against the tightest one.
    key_bound: int = 2**31 - 1

    def signs_matrix(self, backend, keys: np.ndarray) -> np.ndarray:
        """The ``(rows, n)`` ±1 matrix, via the same path ``update()`` uses."""
        if self.sign_kind == "poly":
            return backend.parity_signs(self.sign_coefficients, keys)
        return self.sign_family.evaluate_all(keys)

    def replay(self, backend, keys: np.ndarray, weights) -> None:
        """Apply this entry with the separate-path primitives (bit-exact)."""
        if self.kind == "agms":
            signs = self.signs_matrix(backend, keys)
            if weights is None:
                self.counters += backend.sign_sum(signs)
            else:
                self.counters += backend.sign_dot(signs, weights, out=self.scratch)
            return
        indices = backend.bucket_indices(
            self.bucket_coefficients, keys, self.buckets
        )
        if self.kind == "fagms":
            signs = self.signs_matrix(backend, keys)
            backend.signed_scatter_add(self.counters, indices, signs, weights)
        else:
            backend.scatter_add(self.counters, indices, weights)

    def read(self, backend, keys: np.ndarray) -> np.ndarray:
        """This entry's ``(rows, n)`` point reads with the primitives (bit-exact)."""
        if self.kind == "agms":
            raise ConfigurationError(
                "point reads need a bucketed sketch (fagms or countmin)"
            )
        indices = backend.bucket_indices(
            self.bucket_coefficients, keys, self.buckets
        )
        gathered = backend.gather(self.counters, indices)
        if self.kind == "fagms":
            return self.signs_matrix(backend, keys) * gathered
        return gathered


@dataclass
class FusedPlan:
    """An ordered batch of :class:`FusedEntry` sharing one key stream."""

    entries: tuple = field(default_factory=tuple)

    @cached_property
    def key_bound(self) -> int:
        """Tightest key-domain bound across all entries."""
        return min((entry.key_bound for entry in self.entries), default=2**31 - 1)

    def __len__(self) -> int:
        return len(self.entries)


def make_fused_plan(sketches: Sequence) -> FusedPlan:
    """Build a reusable :class:`FusedPlan` from live sketches.

    Every sketch must implement ``_fused_descriptor()`` (the three
    concrete sketch classes do).  The entries keep the order of
    *sketches* — backends apply them in that order, so a fused call is
    equivalent to updating the sketches sequentially.
    """
    if not sketches:
        raise ConfigurationError("make_fused_plan needs at least one sketch")
    entries = []
    for sketch in sketches:
        descriptor = getattr(sketch, "_fused_descriptor", None)
        if descriptor is None:
            raise ConfigurationError(
                f"{type(sketch).__name__} does not support fused updates"
            )
        entry = descriptor()
        if entry.kind not in FUSED_KINDS:
            raise ConfigurationError(
                f"unknown fused entry kind {entry.kind!r}; "
                f"expected one of {FUSED_KINDS}"
            )
        entries.append(entry)
    return FusedPlan(entries=tuple(entries))


def _prepare_keys(keys, bound: int, backend) -> np.ndarray:
    """Validate once, then widen — or keep int32 for capable backends."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise DomainError(f"keys must be 1-D, got shape {keys.shape}")
    if keys.size == 0:
        # Hash-key API dtype, not an accumulator.
        return keys.astype(np.uint64)  # repro: noqa(REP002)
    if keys.dtype.kind not in "iu":
        raise DomainError("sketch keys must be integers")
    lo = int(keys.min())
    hi = int(keys.max())
    if lo < 0 or hi >= bound:
        raise DomainError(
            f"sketch keys must lie in [0, {bound}), saw range [{lo}, {hi}]"
        )
    if keys.dtype in (np.int32, np.uint32) and getattr(
        backend, "fused_accepts_int32", False
    ):
        return np.ascontiguousarray(keys)
    if keys.dtype == np.uint64:
        return np.ascontiguousarray(keys)
    if keys.dtype == np.int64:
        return np.ascontiguousarray(keys).view(np.uint64)
    # Hash-key API dtype, not an accumulator.
    return keys.astype(np.uint64)  # repro: noqa(REP002)


def _prepare_weights(weights, n: int) -> Optional[np.ndarray]:
    if weights is None:
        return None
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise DomainError(
            f"weights shape {weights.shape} does not match keys ({n},)"
        )
    return weights


def fused_update(target, keys, weights=None) -> None:
    """Update several sketches with one pass over *keys*.

    *target* is a :class:`FusedPlan` (reused across chunks) or a sequence
    of sketches (a plan is built on the fly).  Semantically — and
    bit-for-bit — equivalent to calling ``sketch.update(keys, weights)``
    on each sketch in order, on every backend.
    """
    plan = target if isinstance(target, FusedPlan) else make_fused_plan(target)
    if not plan.entries:
        return
    for entry in plan.entries:
        # np.add.at (the reference backend) and raw C pointers (native)
        # would both write straight through a frozen snapshot.
        if not entry.counters.flags.writeable:
            raise ConfigurationError("cannot update read-only sketch counters")
    backend = get_backend()
    prepared = _prepare_keys(keys, plan.key_bound, backend)
    weights = _prepare_weights(weights, prepared.size)
    if prepared.size:
        backend.fused_update(plan, prepared, weights)


def fused_estimate(target, keys) -> np.ndarray:
    """Per-row point reads of several sketches with one pass over *keys*.

    *target* is a :class:`FusedPlan` or a sequence of fagms/countmin
    sketches.  Returns ``(Σ rows, n)`` float64, sketches stacked in
    order (see :meth:`~repro.kernels.backend.KernelBackend.fused_estimate`);
    keys are validated once against the plan's key bound.  Identical,
    bit for bit, on every backend.
    """
    plan = target if isinstance(target, FusedPlan) else make_fused_plan(target)
    backend = get_backend()
    prepared = _prepare_keys(keys, plan.key_bound, backend)
    if not prepared.size or not plan.entries:
        rows = sum(entry.rows for entry in plan.entries)
        return np.empty((rows, prepared.size), dtype=np.float64)
    return backend.fused_estimate(plan, prepared)
