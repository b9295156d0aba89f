"""The numpy kernel backend: fused ``bincount`` scatter-adds.

``np.add.at`` applies its updates one element at a time through the ufunc
inner loop; ``np.bincount`` walks the index array once in C and needs no
per-element dispatch.  Both accumulate per-bucket partial sums in stream
order, so replacing the per-row ``add.at`` loop with a single bincount
over flattened ``row · buckets + bucket`` indices changes *only* where
the partial sum meets the counter (one add per bucket per call instead
of one per tuple) — exact for integer-valued deltas, which covers every
unweighted and frequency-vector workload.

Two scatter tricks on top of the flattening:

* unweighted ±1 updates append the sign bit to the flat index
  (``flat·2 + (sign > 0)``) and run one *integer* bincount over the
  doubled range; even slots count −1s, odd slots +1s, and the fold
  ``counts[1::2] − counts[0::2]`` is exact int64 arithmetic — no float
  weights and no int8→float64 conversion at all;
* weighted updates fold the signs into the deltas in a single
  ``signs * weights`` broadcast over the whole ``(rows, n)`` matrix
  instead of one ``astype(float64)`` + multiply per row.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .backend import KernelBackend, register_backend

__all__ = ["NumpyKernelBackend"]


def _power_mod_p_k4(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All rows' degree-3 polynomials mod ``p = 2³¹ − 1`` via the power basis.

    The fused path evaluates many stacked fourwise rows over one key
    batch, so the powers ``x² mod p`` and ``x³ mod p`` are computed once
    on the ``(n,)`` vector and every row costs three broadcast
    multiplies plus one final reduction — fewer full ``(rows, n)``
    passes than the lazily-folded Horner schedule (no per-step folds).
    Exactness: with canonical residues ``< p`` every product is
    ``≤ (p−1)² < 2⁶²`` and the four-term sum is
    ``≤ 3(p−1)² + (p−1) < 2⁶⁴``, so nothing wraps before
    :func:`~repro.hashing.families._reduce31` restores the canonical
    residue — bit-identical to ``_horner_all`` (canonical residues are
    unique).
    """
    from ..hashing.families import MERSENNE_P31, _reduce31

    r = MERSENNE_P31 - 1
    x2 = x * x
    vec_scratch = np.empty_like(x2)
    _reduce31(x2, vec_scratch, r * r)
    x3 = x2 * x
    _reduce31(x3, vec_scratch, r * r)
    acc = coefficients[:, 0:1] * x3
    scratch = np.empty_like(acc)
    np.multiply(coefficients[:, 1:2], x2, out=scratch)
    acc += scratch
    np.multiply(coefficients[:, 2:3], x, out=scratch)
    acc += scratch
    acc += coefficients[:, 3:4]
    _reduce31(acc, scratch, 3 * r * r + r)
    return acc


class _FusedPlanCache:
    """Stacking layout for :meth:`NumpyKernelBackend.fused_update`.

    Built once per :class:`~repro.kernels.fused.FusedPlan` (and stored on
    it) from the immutable hash-family coefficients.  Rows are regrouped
    so each stage is one stacked numpy pass: all fourwise sign rows
    (AGMS first, then F-AGMS) concatenate into a single polynomial
    stack, all bucket rows (F-AGMS first, then Count-Min) into a single
    pairwise stack, and every bucketed counter array is assigned a
    disjoint slot range so one bincount scatters the whole plan.
    Entries whose families have no stacked fast path (EH3 signs) are
    replayed through the separate-path primitives instead.
    """

    __slots__ = (
        "fallback",
        "agms_entries",
        "agms_rows",
        "poly_coefficients",
        "bucket_coefficients",
        "bucket_segments",
        "fagms_rows",
        "slot_offsets",
        "total_slots",
        "scatter_entries",
        "block",
    )


def _build_fused_cache(plan) -> _FusedPlanCache:
    agms, fagms, cms, fallback = [], [], [], []
    for entry in plan.entries:
        poly = (
            entry.sign_kind == "poly"
            and entry.sign_coefficients is not None
            and entry.sign_coefficients.shape[1] == 4
        )
        if entry.kind == "agms" and poly:
            agms.append(entry)
        elif entry.kind == "fagms" and poly:
            fagms.append(entry)
        elif entry.kind == "countmin":
            cms.append(entry)
        else:
            fallback.append(entry)
    cache = _FusedPlanCache()
    cache.fallback = tuple(fallback)

    agms_entries = []
    row = 0
    for entry in agms:
        agms_entries.append((entry, row, row + entry.rows))
        row += entry.rows
    cache.agms_entries = tuple(agms_entries)
    cache.agms_rows = row
    sign_stack = [entry.sign_coefficients for entry in agms + fagms]
    cache.poly_coefficients = (
        np.concatenate(sign_stack, axis=0) if sign_stack else None
    )

    bucketed = fagms + cms
    bucket_stack = [entry.bucket_coefficients for entry in bucketed]
    cache.bucket_coefficients = (
        np.concatenate(bucket_stack, axis=0) if bucket_stack else None
    )
    cache.fagms_rows = sum(entry.rows for entry in fagms)
    segments, offsets, scatter_entries = [], [], []
    row = 0
    slot = 0
    for entry in bucketed:
        if segments and segments[-1][2] == entry.buckets:
            segments[-1] = (segments[-1][0], row + entry.rows, entry.buckets)
        else:
            segments.append((row, row + entry.rows, entry.buckets))
        offsets.extend(
            slot + r * entry.buckets for r in range(entry.rows)
        )
        scatter_entries.append((entry, slot, slot + entry.rows * entry.buckets))
        row += entry.rows
        slot += entry.rows * entry.buckets
    cache.bucket_segments = tuple(segments)
    cache.slot_offsets = np.asarray(offsets, dtype=np.int64)
    cache.total_slots = slot
    cache.scatter_entries = tuple(scatter_entries)
    # Key-block size for the unweighted path: cap the stacked working
    # set (a handful of ``(rows, block)`` uint64 temporaries) around the
    # L2 size so huge chunks do not spill cache right where the
    # per-sketch path, with its narrower ``(rows_i, n)`` temporaries,
    # would not.  Small blocks pay numpy dispatch per pass, so the floor
    # matters as much as the cap.
    rows_max = max(
        0 if cache.poly_coefficients is None else cache.poly_coefficients.shape[0],
        0 if cache.bucket_coefficients is None else cache.bucket_coefficients.shape[0],
        1,
    )
    cache.block = max(2048, 32768 // rows_max)
    return cache


def _flat_indices(indices: np.ndarray, buckets: int) -> np.ndarray:
    """Flatten per-row bucket indices into the ``rows·buckets`` range."""
    rows = indices.shape[0]
    if rows == 1:
        return indices.reshape(-1)
    offsets = np.arange(rows, dtype=np.int64) * np.int64(buckets)
    return (indices + offsets[:, None]).reshape(-1)


class NumpyKernelBackend(KernelBackend):
    """Fused-bincount accumulation (the default when native is unavailable)."""

    name = "numpy"

    def scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """One bincount pass; unweighted updates use pure integer counts."""
        rows, buckets = counters.shape
        n = indices.shape[1]
        if n == 0:
            return
        flat = _flat_indices(indices, buckets)
        if weights is None:
            counts = np.bincount(flat, minlength=rows * buckets)
        else:
            tiled = (
                weights
                if rows == 1
                else np.broadcast_to(weights, (rows, n)).reshape(-1)
            )
            counts = np.bincount(flat, weights=tiled, minlength=rows * buckets)
        counters += counts.reshape(rows, buckets)

    def signed_scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        signs: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Sign-split integer bincount (unweighted) or sign-folded weights."""
        rows, buckets = counters.shape
        n = indices.shape[1]
        if n == 0:
            return
        flat = _flat_indices(indices, buckets)
        if weights is None:
            # Even slot: this bucket's −1s; odd slot: its +1s.  The fold is
            # exact int64 arithmetic — float64 never enters the hot loop.
            slots = (flat << 1) + (signs.reshape(-1) > 0)
            counts = np.bincount(slots, minlength=2 * rows * buckets)
            deltas = counts[1::2] - counts[0::2]
        else:
            folded = (signs * weights).reshape(-1)
            deltas = np.bincount(flat, weights=folded, minlength=rows * buckets)
        counters += deltas.reshape(rows, buckets)

    def gather(self, counters: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Single ``take`` on the flattened counter matrix."""
        rows, buckets = counters.shape
        flat = _flat_indices(indices, buckets)
        return counters.reshape(-1).take(flat).reshape(rows, indices.shape[1])

    def sign_sum(self, signs: np.ndarray) -> np.ndarray:
        """Row sums of the ±1 matrix with an explicit float64 accumulator."""
        return signs.sum(axis=1, dtype=np.float64)

    def sign_dot(
        self,
        signs: np.ndarray,
        weights: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``signs @ weights`` via one matmul into the caller's buffer."""
        dense = signs.astype(np.float64)
        if out is None:
            return dense @ weights
        np.matmul(dense, weights, out=out)
        return out

    def fused_update(self, plan, keys: np.ndarray, weights=None) -> None:
        """Stacked one-pass updates for the whole plan.

        Three stacked stages replace the per-sketch pipelines (layout
        precomputed once per plan by :func:`_build_fused_cache`):

        1. every fourwise sign row in the plan is evaluated in a single
           power-basis pass (:func:`_power_mod_p_k4`);
        2. every bucket row in a single ``_horner_all`` pass;
        3. every bucketed counter array gets a disjoint slot range and
           **one bincount scatters all of them at once** — per-slot
           partial sums are unchanged, so the result stays bit-identical
           to per-sketch ``update()`` calls.

        The unweighted AGMS delta also skips sign materialization:
        ``Σ signs = 2·#odd − n`` counted straight off the hash parity
        bits (exact integer arithmetic, bit-identical to ``sign_sum``
        over the int8 signs).  EH3-signed entries replay through the
        separate-path primitives (counter arrays are disjoint across
        entries, so interleaving replays is still exact).
        """
        from ..hashing.signs import _parity_signs

        cache = getattr(plan, "_numpy_cache", None)
        if cache is None:
            cache = _build_fused_cache(plan)
            plan._numpy_cache = cache
        if keys.dtype != np.uint64:
            # Hash-key API dtype, not an accumulator.
            keys = keys.astype(np.uint64)  # repro: noqa(REP002)
        n = keys.size

        if weights is None:
            # Unweighted updates reduce to *integer* counts, which add
            # associatively — so huge chunks can be processed in
            # L2-resident key blocks and the per-block counts summed,
            # still bit-identical to the one-shot chunk.
            odd_total = None
            counts_total = None
            for start in range(0, n, cache.block):
                part = keys[start : start + cache.block]
                odd, counts = self._fused_counts(cache, part)
                if start == 0:
                    odd_total, counts_total = odd, counts
                else:
                    if odd is not None:
                        odd_total += odd
                    if counts is not None:
                        counts_total += counts
            if odd_total is not None:
                deltas = 2.0 * odd_total - np.float64(n)
                for entry, start, stop in cache.agms_entries:
                    entry.counters += deltas[start:stop]
            if counts_total is not None:
                deltas = counts_total[1::2] - counts_total[0::2]
                for entry, start, stop in cache.scatter_entries:
                    entry.counters += deltas[start:stop].reshape(
                        entry.counters.shape
                    )
        else:
            # Float accumulation is not associative, so the weighted path
            # runs one pass over the whole chunk — exactly the partial
            # sums the separate per-sketch path produces.
            a = cache.agms_rows
            sign_block = (
                _power_mod_p_k4(cache.poly_coefficients, keys)
                if cache.poly_coefficients is not None
                else None
            )
            if a:
                signs = _parity_signs(sign_block[:a])
                for entry, start, stop in cache.agms_entries:
                    entry.counters += self.sign_dot(
                        signs[start:stop], weights, out=entry.scratch
                    )
            if cache.bucket_coefficients is not None:
                indices = self._fused_slots(cache, keys)
                f = cache.fagms_rows
                folded = np.empty(indices.shape, dtype=np.float64)
                if f:
                    signs = _parity_signs(sign_block[a:])
                    np.multiply(signs, weights, out=folded[:f])
                folded[f:] = weights
                deltas = np.bincount(
                    indices.reshape(-1),
                    weights=folded.reshape(-1),
                    minlength=cache.total_slots,
                )
                for entry, start, stop in cache.scatter_entries:
                    entry.counters += deltas[start:stop].reshape(
                        entry.counters.shape
                    )

        for entry in cache.fallback:
            entry.replay(self, keys, weights)

    def _fused_slots(self, cache, keys: np.ndarray) -> np.ndarray:
        """Stacked bucket indices offset into the plan-wide slot ranges."""
        from ..hashing.families import _bucket_reduce, _horner_all

        hashed = _horner_all(cache.bucket_coefficients, keys)
        if len(cache.bucket_segments) == 1:
            indices = _bucket_reduce(hashed, cache.bucket_segments[0][2])
        else:
            indices = np.empty(hashed.shape, dtype=np.int64)
            for start, stop, buckets in cache.bucket_segments:
                indices[start:stop] = _bucket_reduce(hashed[start:stop], buckets)
        # `indices` is scratch we own (a view of `hashed` or fresh).
        indices += cache.slot_offsets[:, None]
        return indices

    def _fused_counts(self, cache, keys: np.ndarray):
        """One unweighted key block: AGMS odd-parity counts + slot counts."""
        from ..hashing.signs import _parity_signs

        a = cache.agms_rows
        sign_block = (
            _power_mod_p_k4(cache.poly_coefficients, keys)
            if cache.poly_coefficients is not None
            else None
        )
        odd = (
            np.count_nonzero(sign_block[:a] & np.uint64(1), axis=1)
            if a
            else None
        )
        counts = None
        if cache.bucket_coefficients is not None:
            indices = self._fused_slots(cache, keys)
            # Sign-split slots over the whole plan: even slot = −1s, odd
            # slot = +1s; unsigned Count-Min rows always land odd.
            np.left_shift(indices, 1, out=indices)
            f = cache.fagms_rows
            if f:
                indices[:f] += _parity_signs(sign_block[a:]) > 0
            indices[f:] += 1
            counts = np.bincount(
                indices.reshape(-1), minlength=2 * cache.total_slots
            )
        return odd, counts


register_backend(NumpyKernelBackend())
