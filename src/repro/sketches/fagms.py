"""The Fast-AGMS sketch (Count-Sketch) — refs [3], [4] of the paper.

F-AGMS keeps ``rows × buckets`` counters.  Each row has a 2-universal hash
``h`` spreading keys over buckets and an independent ±1 family ξ; a tuple
with key ``i`` adds ``ξ(i)`` to counter ``[row, h(i)]``.  Per row:

* size of join:   ``Σ_b S_F[row, b] · S_G[row, b]``
* self-join size: ``Σ_b S[row, b]²``

Each row behaves like ``buckets`` averaged AGMS estimators at the cost of a
*single* counter update per tuple — this is why the paper uses F-AGMS with
5,000–10,000 buckets for all experiments ("equivalent to averaging 5,000 or
10,000 basic estimators").  Rows are combined with the median (default).

The paper's Section VII-D documents an F-AGMS quirk this implementation
reproduces: when the sketched multiset grows (e.g. sketching 100% of a
stream instead of a 10% sample), *bucket contention* — many distinct heavy
keys colliding per bucket — can make estimates worse even though more data
was seen.  See ``benchmarks/test_ablation_bucket_contention.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..hashing import BucketHashFamily, EH3SignFamily, FourWiseSignFamily, SignFamily
from ..kernels import fused_estimate, fused_update
from ..rng import SeedLike, as_seed_sequence, derive_seed
from ._combine import combine_estimates, exact_median, validate_combine
from .base import Sketch

__all__ = ["FagmsSketch"]

_SIGN_FAMILIES = {"fourwise": FourWiseSignFamily, "eh3": EH3SignFamily}


class FagmsSketch(Sketch):
    """F-AGMS / Count-Sketch with ``rows`` rows of ``buckets`` counters.

    Parameters
    ----------
    buckets:
        Counters per row.  The paper's experiments use 5,000 or 10,000.
    rows:
        Independent rows combined by ``combine`` (median by default, the
        standard F-AGMS combiner).  The paper effectively uses one row.
    seed:
        Seed for both the bucket hashes and ξ families; sketches to be
        compared or merged must share it.
    sign_family:
        ``"fourwise"`` (default) or ``"eh3"`` — see :class:`AgmsSketch`.
    """

    __slots__ = (
        "rows",
        "buckets",
        "seed_id",
        "seed_entropy",
        "seed_spawn_key",
        "sign_family",
        "combine",
        "groups",
        "_counters",
        "_bucket_hash",
        "_signs",
    )

    def __init__(
        self,
        buckets: int,
        rows: int = 1,
        seed: SeedLike = None,
        *,
        sign_family: str = "fourwise",
        combine: str = "median",
        groups: int = 1,
    ) -> None:
        if buckets < 1:
            raise ConfigurationError(f"buckets must be >= 1, got {buckets}")
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        if sign_family not in _SIGN_FAMILIES:
            raise ConfigurationError(
                f"unknown sign_family {sign_family!r}; "
                f"expected one of {tuple(_SIGN_FAMILIES)}"
            )
        validate_combine(combine, rows, groups)
        root = as_seed_sequence(seed)
        children = root.spawn(2)
        self.rows = rows
        self.buckets = buckets
        self.seed_id = derive_seed(root)
        self.seed_entropy = root.entropy
        self.seed_spawn_key = tuple(root.spawn_key)
        self.sign_family = sign_family
        self.combine = combine
        self.groups = groups
        self._bucket_hash = BucketHashFamily(buckets, rows, children[0])
        self._signs: SignFamily = _SIGN_FAMILIES[sign_family](rows, children[1])
        self._counters = np.zeros((rows, buckets), dtype=np.float64)

    # ------------------------------------------------------------------

    @property
    def counters(self) -> np.ndarray:
        """The ``(rows, buckets)`` counter matrix (inspection only)."""
        return self._counters

    def update(self, keys, weights=None) -> None:
        fused_update(self._update_plan(), keys, weights)

    # ------------------------------------------------------------------

    def row_second_moments(self) -> np.ndarray:
        """Per-row self-join estimates ``Σ_b counter²`` (before combining)."""
        return (self._counters**2).sum(axis=1, dtype=np.float64)

    def row_inner_products(self, other: "FagmsSketch") -> np.ndarray:
        """Per-row join estimates ``Σ_b S_F·S_G`` (before combining)."""
        self.check_compatible(other)
        return (self._counters * other._counters).sum(axis=1)

    def second_moment(self) -> float:
        return combine_estimates(self.row_second_moments(), self.combine, self.groups)

    def inner_product(self, other: Sketch) -> float:
        if not isinstance(other, FagmsSketch):
            raise TypeError("inner_product requires another FagmsSketch")
        return combine_estimates(
            self.row_inner_products(other), self.combine, self.groups
        )

    # ------------------------------------------------------------------
    # Point queries (the original Count-Sketch use)
    # ------------------------------------------------------------------

    def estimate_frequencies(self, keys) -> np.ndarray:
        """Unbiased point-frequency estimates for a batch of keys.

        Per row, the estimate of ``f_key`` is ``ξ(key)·counter[h(key)]``;
        rows are combined by the median (the Count-Sketch estimator).  With
        one row this is unbiased but noisy (variance ≈ F₂/buckets); with
        several rows the median gives the classic ``±sqrt(F₂/buckets)``
        guarantee w.h.p.
        """
        keys = np.asarray(keys, dtype=np.int64)
        return np.median(fused_estimate(self._update_plan(), keys), axis=0)

    def point_estimate(self, key: int) -> float:
        """Unbiased estimate of a single key's frequency (median over rows)."""
        return exact_median(self._point_reads(key))

    # ------------------------------------------------------------------

    def copy_empty(self) -> "FagmsSketch":
        clone = object.__new__(FagmsSketch)
        clone.rows = self.rows
        clone.buckets = self.buckets
        clone.seed_id = self.seed_id
        clone.seed_entropy = self.seed_entropy
        clone.seed_spawn_key = self.seed_spawn_key
        clone.sign_family = self.sign_family
        clone.combine = self.combine
        clone.groups = self.groups
        clone._bucket_hash = self._bucket_hash
        clone._signs = self._signs
        clone._counters = np.zeros((self.rows, self.buckets), dtype=np.float64)
        return clone

    def _state(self) -> np.ndarray:
        return self._counters

    def _fused_descriptor(self):
        """This sketch's entry for :func:`repro.kernels.fused.fused_update`."""
        from ..kernels.fused import FusedEntry

        poly = self.sign_family == "fourwise"
        return FusedEntry(
            kind="fagms",
            counters=self._counters,
            rows=self.rows,
            buckets=self.buckets,
            bucket_coefficients=self._bucket_hash._family.coefficients,
            sign_kind="poly" if poly else "eh3",
            sign_coefficients=self._signs._family.coefficients if poly else None,
            sign_family=self._signs,
            key_bound=(
                2**31 - 1 if poly else min(2**31 - 1, 2**self._signs.bits)
            ),
        )

    def _family_fingerprint(self) -> tuple:
        return super()._family_fingerprint() + (self.sign_family,)

    def __repr__(self) -> str:
        return (
            f"FagmsSketch(buckets={self.buckets}, rows={self.rows}, "
            f"combine={self.combine!r}, seed_id={self.seed_id})"
        )
