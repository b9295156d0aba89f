"""Profiling hooks on the kernel seam: timings, rows, bytes, throughput.

:class:`ProfilingKernelBackend` is a transparent decorator over any
:class:`~repro.kernels.backend.KernelBackend`: every primitive delegates
verbatim to the wrapped backend — counters stay **bit-identical**, the
wrapper never touches the arrays — while the seam records, per wrapped
backend name:

* ``kernels.ops`` — calls per primitive (labels: ``op``, ``backend``);
* ``kernels.rows`` — tuple-slots processed (``rows × n`` per call);
* ``kernels.bytes`` — bytes of index/sign/weight traffic through the seam;
* ``kernels.op.seconds`` — a latency histogram per primitive;
* ``kernels.throughput.tuples_per_sec`` — a gauge with the cumulative
  observed update throughput (accumulation primitives only).

:func:`profile_kernels` is the ergonomic entry point::

    obs = Observer()
    with profile_kernels(obs):
        sketch.update(keys)          # any sketch, any backend
    print(to_prometheus(obs))

It wraps whatever backend is active, splices the wrapper into the seam
via :func:`repro.kernels.set_backend` (instances are accepted and never
registered, so ``available_backends()`` is unchanged), and restores the
original backend on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np

from ..kernels.backend import KernelBackend, get_backend, set_backend
from .observer import Observer

__all__ = ["ProfilingKernelBackend", "profile_kernels"]

#: Histogram bounds for single kernel-primitive calls (fine-grained).
_OP_SECONDS_BUCKETS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


class ProfilingKernelBackend(KernelBackend):
    """A :class:`KernelBackend` decorator that meters every primitive.

    Parameters
    ----------
    inner:
        The real backend doing the work; results pass through untouched.
    observer:
        Destination for the metrics.
    clock:
        Injectable monotonic timer (defaults to the observer's clock).
    """

    def __init__(
        self,
        inner: KernelBackend,
        observer: Observer,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.inner = inner
        self.observer = observer
        self.clock = observer.clock if clock is None else clock
        self.name = f"profiled:{inner.name}"
        self._update_rows = 0
        self._update_seconds = 0.0

    # ------------------------------------------------------------------

    def _record(self, op: str, rows: int, nbytes: int, elapsed: float,
                accumulation: bool) -> None:
        backend = self.inner.name
        obs = self.observer
        obs.counter("kernels.ops", op=op, backend=backend).inc()
        obs.counter("kernels.rows", op=op, backend=backend).inc(rows)
        obs.counter("kernels.bytes", op=op, backend=backend).inc(nbytes)
        obs.histogram(
            "kernels.op.seconds", _OP_SECONDS_BUCKETS, op=op, backend=backend
        ).observe(elapsed)
        if accumulation:
            self._update_rows += rows
            self._update_seconds += elapsed
            if self._update_seconds > 0:
                obs.gauge(
                    "kernels.throughput.tuples_per_sec", backend=backend
                ).set(self._update_rows / self._update_seconds)

    @staticmethod
    def _traffic(*arrays) -> tuple[int, int]:
        """(tuple-slots, bytes) moved through the seam by one call."""
        slots = 0
        nbytes = 0
        for array in arrays:
            if array is None:
                continue
            array = np.asarray(array)
            slots = max(slots, array.size)
            nbytes += array.nbytes
        return slots, nbytes

    # ------------------------------------------------------------------
    # Accumulation primitives
    # ------------------------------------------------------------------

    def scatter_add(self, counters, indices, weights=None) -> None:
        """Delegate to the wrapped backend, metering the call."""
        started = self.clock()
        self.inner.scatter_add(counters, indices, weights)
        elapsed = self.clock() - started
        slots, nbytes = self._traffic(indices, weights)
        self._record("scatter_add", slots, nbytes, elapsed, True)

    def signed_scatter_add(self, counters, indices, signs, weights=None) -> None:
        """Delegate to the wrapped backend, metering the call."""
        started = self.clock()
        self.inner.signed_scatter_add(counters, indices, signs, weights)
        elapsed = self.clock() - started
        slots, nbytes = self._traffic(indices, signs, weights)
        self._record("signed_scatter_add", slots, nbytes, elapsed, True)

    def gather(self, counters, indices):
        """Delegate to the wrapped backend, metering the call."""
        started = self.clock()
        out = self.inner.gather(counters, indices)
        elapsed = self.clock() - started
        slots, nbytes = self._traffic(indices)
        self._record("gather", slots, nbytes, elapsed, False)
        return out

    def sign_sum(self, signs):
        """Delegate to the wrapped backend, metering the call."""
        started = self.clock()
        out = self.inner.sign_sum(signs)
        elapsed = self.clock() - started
        slots, nbytes = self._traffic(signs)
        self._record("sign_sum", slots, nbytes, elapsed, True)
        return out

    def sign_dot(self, signs, weights, out=None):
        """Delegate to the wrapped backend, metering the call."""
        started = self.clock()
        result = self.inner.sign_dot(signs, weights, out)
        elapsed = self.clock() - started
        slots, nbytes = self._traffic(signs, weights)
        self._record("sign_dot", slots, nbytes, elapsed, True)
        return result

    # ------------------------------------------------------------------
    # Fused multi-sketch entry point
    # ------------------------------------------------------------------

    @property
    def fused_accepts_int32(self) -> bool:
        """Mirror the wrapped backend's key-dtype capability.

        :func:`repro.kernels.fused.fused_update` consults this flag on
        the *active* backend; the profiler must forward the inner
        backend's answer or profiling would silently widen the keys and
        change what the wrapped backend executes.
        """
        return getattr(self.inner, "fused_accepts_int32", False)

    def fused_update(self, plan, keys, weights=None) -> None:
        """Delegate the whole fused batch, metering it as one seam call.

        ``kernels.rows`` counts the tuple-slots the fused pass covers —
        ``Σ entry.rows × n`` over the plan — so throughput numbers stay
        comparable with the separate path, where the same stream would
        cross the seam once per sketch.
        """
        started = self.clock()
        self.inner.fused_update(plan, keys, weights)
        elapsed = self.clock() - started
        n = int(np.asarray(keys).size)
        slots = sum(entry.rows for entry in plan.entries) * n
        _, nbytes = self._traffic(keys, weights)
        self._record("fused_update", slots, nbytes, elapsed, True)

    def fused_estimate(self, plan, keys):
        """Delegate a batch of point reads, metering it as one seam call.

        ``kernels.rows`` counts ``Σ entry.rows × n`` read slots; reads
        are not accumulation, so the update throughput gauge ignores
        them.  Without this method the base class would replay the
        reads through the hashing primitives and the gather, a
        different program from the one the wrapped backend runs.
        """
        started = self.clock()
        out = self.inner.fused_estimate(plan, keys)
        elapsed = self.clock() - started
        n = int(np.asarray(keys).size)
        slots = sum(entry.rows for entry in plan.entries) * n
        _, nbytes = self._traffic(keys)
        self._record("fused_estimate", slots, nbytes, elapsed, False)
        return out

    # ------------------------------------------------------------------
    # Hashing primitives
    # ------------------------------------------------------------------

    def polynomial_mod_p(self, coefficients, keys):
        """Delegate to the wrapped backend, metering the call."""
        started = self.clock()
        out = self.inner.polynomial_mod_p(coefficients, keys)
        elapsed = self.clock() - started
        slots, nbytes = self._traffic(keys)
        self._record("polynomial_mod_p", slots, nbytes, elapsed, False)
        return out

    def bucket_indices(self, coefficients, keys, buckets):
        """Delegate to the wrapped backend, metering the call."""
        started = self.clock()
        out = self.inner.bucket_indices(coefficients, keys, buckets)
        elapsed = self.clock() - started
        slots, nbytes = self._traffic(keys)
        self._record("bucket_indices", slots, nbytes, elapsed, False)
        return out

    def parity_signs(self, coefficients, keys):
        """Delegate to the wrapped backend, metering the call."""
        started = self.clock()
        out = self.inner.parity_signs(coefficients, keys)
        elapsed = self.clock() - started
        slots, nbytes = self._traffic(keys)
        self._record("parity_signs", slots, nbytes, elapsed, False)
        return out

    def __repr__(self) -> str:
        return f"ProfilingKernelBackend({self.inner!r})"


@contextmanager
def profile_kernels(
    observer: Observer,
    clock: Optional[Callable[[], float]] = None,
) -> Iterator[ProfilingKernelBackend]:
    """Meter every kernel call in the body through *observer*.

    Wraps the currently active backend; restores it on exit.  Counters
    produced inside the body are bit-identical to an unprofiled run (the
    wrapper only measures, never transforms).
    """
    inner = get_backend()
    if isinstance(inner, ProfilingKernelBackend):
        inner = inner.inner
    wrapper = ProfilingKernelBackend(inner, observer, clock)
    set_backend(wrapper)
    try:
        yield wrapper
    finally:
        set_backend(inner)
