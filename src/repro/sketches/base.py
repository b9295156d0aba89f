"""Common sketch interface and the top-level estimation entry points.

Every sketch in the library implements :class:`Sketch`:

* ``update(keys, weights=None)`` — vectorized insertion of a batch of
  stream keys (weights default to +1 per tuple; negative weights implement
  deletions, since all our sketches are linear);
* ``update_frequency_vector(fv)`` — fast path that inserts a whole
  frequency vector at once (equivalent to inserting every tuple, but
  ``O(support)`` instead of ``O(tuples)``);
* ``merge(other)`` — linearity: add a compatible sketch in place;
* ``second_moment()`` — the sketch's estimate of ``Σᵢ fᵢ²`` of whatever
  was inserted;
* ``inner_product(other)`` — the sketch's estimate of ``Σᵢ fᵢ gᵢ`` against
  a compatible sketch of another stream.

Compatibility means: same class, same shape, and the same ``seed`` (hence
identical hash/ξ families) — checked by :meth:`Sketch.check_compatible`.
The free functions :func:`join_size` and :func:`self_join_size` are thin
readable wrappers used throughout examples and experiments.

Note the estimates returned here are estimates over *whatever was
inserted*.  When the inserted stream is a sample, the unbiasing corrections
of the paper (Section V) live in :mod:`repro.core.corrections`, not here —
sketches are agnostic about how their input was produced.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import DomainError, IncompatibleSketchError, MergeError
from ..frequency import FrequencyVector
from ..kernels import get_backend, make_fused_plan

__all__ = ["Sketch", "join_size", "self_join_size"]


class Sketch(abc.ABC):
    """Abstract base class for linear stream sketches."""

    #: Number of independent basic estimators (rows) in the sketch.
    rows: int
    #: Integer seed identifying the random families (for compatibility).
    seed_id: int
    #: The one-entry :class:`~repro.kernels.fused.FusedPlan` that
    #: :meth:`update` runs, built on first use (see :meth:`_update_plan`).
    _plan = None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def update(self, keys, weights=None) -> None:
        """Insert a batch of stream keys.

        Parameters
        ----------
        keys:
            1-D integer array of domain values, one per tuple.
        weights:
            Optional per-tuple weights (default +1 each).  Integer or float;
            negative values delete.
        """

    def update_one(self, key: int, weight: float = 1.0) -> None:
        """Insert a single tuple (convenience wrapper over :meth:`update`)."""
        self.update(np.asarray([key], dtype=np.int64), np.asarray([weight]))

    def update_frequency_vector(self, frequencies: FrequencyVector) -> None:
        """Insert an entire frequency vector in one shot.

        Exactly equivalent to inserting every tuple individually (sketches
        are linear), but costs ``O(support size)``.
        """
        support = np.flatnonzero(frequencies.counts)
        if support.size == 0:
            return
        self.update(support, frequencies.counts[support])

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def second_moment(self) -> float:
        """Estimate ``Σᵢ fᵢ²`` of the inserted stream."""

    @abc.abstractmethod
    def inner_product(self, other: "Sketch") -> float:
        """Estimate ``Σᵢ fᵢ gᵢ`` between this sketch's stream and *other*'s."""

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def copy_empty(self) -> "Sketch":
        """A fresh zeroed sketch sharing this sketch's families and shape."""

    @abc.abstractmethod
    def _state(self) -> np.ndarray:
        """The counter array (mutable reference, internal)."""

    def _adopt_state(self, array: np.ndarray) -> None:
        """Take *array* as the counter storage, discarding current counters.

        The sharded scan workers hand each sketch a zero-initialized view
        into a shared-memory segment so updates land directly in the
        transport buffer — no result pickling.  *array* must match the
        current state's shape and dtype and be C-contiguous (the native
        backend scatters through raw pointers).  The sketch's own cached
        update plan is dropped with the old storage; any other
        :class:`~repro.kernels.fused.FusedPlan` built before the swap
        still references it and must be rebuilt.
        """
        state = self._state()
        if array.shape != state.shape or array.dtype != state.dtype:
            raise DomainError(
                f"adopted state must be {state.shape} {state.dtype}, got "
                f"{array.shape} {array.dtype}"
            )
        if not array.flags.c_contiguous:
            raise DomainError("adopted state must be C-contiguous")
        self._counters = array
        self._plan = None

    def _bind_state(self, array: np.ndarray) -> None:
        """Move the current counters into *array* and adopt it as storage."""
        values = self._state().copy()
        self._adopt_state(array)
        self._state()[...] = values

    def counters_snapshot(self) -> np.ndarray:
        """A frozen copy of the counter state.

        The returned array is read-only (``writeable = False``) and
        detached from the sketch's live storage, so it can be published
        to concurrent readers — or handed to a checkpoint writer — and
        stays valid no matter how the sketch is updated afterwards.
        """
        frozen = self._state().copy()
        frozen.flags.writeable = False
        return frozen

    def load_counters(self, array: np.ndarray) -> None:
        """Overwrite the counter state from *array* (shape-validated).

        The public inverse of :meth:`counters_snapshot`: restores a
        sketch from externally-held counters (e.g. a checkpoint) without
        reaching into ``_state()``.  *array* is copied in, so the caller's
        buffer — writable or not — is never aliased.
        """
        state = self._state()
        if tuple(array.shape) != tuple(state.shape):
            raise DomainError(
                f"loaded counters must have shape {state.shape}, got {array.shape}"
            )
        state[...] = np.asarray(array).astype(state.dtype, copy=False)

    def copy(self) -> "Sketch":
        """Deep copy (same families, duplicated counters)."""
        clone = self.copy_empty()
        clone._state()[...] = self._state()
        return clone

    def clear(self) -> None:
        """Reset all counters to zero."""
        self._state()[...] = 0

    def merge(self, other: "Sketch") -> None:
        """Add *other* into this sketch in place (multiset union of streams).

        Raises :class:`~repro.errors.MergeError` unless *other* passes the
        full mergeability validation of :meth:`check_mergeable` — merging
        sketches whose hash families differ would silently corrupt every
        later estimate, so the check is strict.
        """
        self.check_mergeable(other)
        self._state()[...] += other._state()

    def check_mergeable(self, other: "Sketch") -> None:
        """Raise :class:`~repro.errors.MergeError` unless *other* can be merged.

        Validates, in order: the concrete sketch type, the counter-array
        shape, the derived seed id, and the full hash-family fingerprint
        (root seed entropy, spawn key, and any family kind the subclass
        declares via :meth:`_family_fingerprint`).  The fingerprint check
        catches mismatches the cheap ``seed_id`` comparison cannot — e.g.
        two sketches built from the same seed but with different sign
        families occupy identical shapes yet hash keys differently.
        """
        if type(self) is not type(other):
            raise MergeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self._state().shape != other._state().shape:
            raise MergeError(
                f"sketch shapes differ: {self._state().shape} vs "
                f"{other._state().shape}"
            )
        if self.seed_id != other.seed_id:
            raise MergeError(
                "sketches were built with different seeds (different random "
                "families); merging them would produce garbage counters"
            )
        if self._family_fingerprint() != other._family_fingerprint():
            raise MergeError(
                "sketches share a seed id but not a hash-family construction "
                f"({self._family_fingerprint()} vs {other._family_fingerprint()}); "
                "merging them would produce garbage counters"
            )

    def _family_fingerprint(self) -> tuple:
        """Hashable description of the random-family construction.

        Subclasses extend this with whatever else determines their hash
        families (e.g. the sign-family kind); two sketches are mergeable
        only when their fingerprints compare equal.
        """
        entropy = getattr(self, "seed_entropy", None)
        if isinstance(entropy, list):
            entropy = tuple(entropy)
        return (entropy, tuple(getattr(self, "seed_spawn_key", ())))

    def check_compatible(self, other: "Sketch") -> None:
        """Raise unless *other* shares this sketch's type, shape, and seeds."""
        if type(self) is not type(other):
            raise IncompatibleSketchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self._state().shape != other._state().shape:
            raise IncompatibleSketchError(
                f"sketch shapes differ: {self._state().shape} vs "
                f"{other._state().shape}"
            )
        if self.seed_id != other.seed_id:
            raise IncompatibleSketchError(
                "sketches were built with different seeds (different random "
                "families); estimates across them are meaningless"
            )

    # ------------------------------------------------------------------
    # The cached update plan
    # ------------------------------------------------------------------

    def _update_plan(self):
        """This sketch as a one-entry plan for :func:`repro.kernels.fused_update`.

        Built on first use and kept until :meth:`_adopt_state` swaps the
        counter storage it references.  Copies and pickles never carry
        it (see :meth:`__getstate__`).
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = make_fused_plan((self,))
        return plan

    def _point_reads(self, key) -> np.ndarray:
        """The ``(rows, 1)`` per-row reads of one key: one seam call.

        The scalar twin of :func:`repro.kernels.fused_estimate`, with the
        key range checked in Python instead of by an array min/max.
        """
        plan = self._update_plan()
        key = int(key)
        if not 0 <= key < plan.key_bound:
            raise DomainError(
                f"sketch keys must lie in [0, {plan.key_bound}), saw {key}"
            )
        # Hash-key API dtype, not an accumulator.
        keys = np.array([key], dtype=np.uint64)  # repro: noqa(REP002)
        return get_backend().fused_estimate(plan, keys)

    def __getstate__(self):
        """Copy/pickle state: every attribute but the cached update plan."""
        slots = {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in cls.__dict__.get("__slots__", ())
            if hasattr(self, name)
        }
        attrs = {k: v for k, v in vars(self).items() if k != "_plan"}
        return (attrs or None, slots)


def join_size(sketch_f: Sketch, sketch_g: Sketch) -> float:
    """Estimate ``|F ⋈ G| = Σᵢ fᵢ gᵢ`` from two compatible sketches.

    This is the *plain* sketch estimator (Prop 7 for AGMS).  If the sketched
    streams are samples, apply the scaling correction from
    :mod:`repro.core.corrections` to the returned value.
    """
    return sketch_f.inner_product(sketch_g)


def self_join_size(sketch: Sketch) -> float:
    """Estimate the second frequency moment ``F₂ = Σᵢ fᵢ²`` from a sketch.

    This is the plain sketch estimator (Prop 8 for AGMS); see
    :func:`join_size` about sampled inputs.
    """
    return sketch.second_moment()
