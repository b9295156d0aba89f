"""The basic AGMS (AMS / tug-of-war) sketch — refs [1], [2] of the paper.

One basic AGMS estimator keeps a single counter ``S = Σᵢ fᵢ ξᵢ`` where ξ is
a 4-wise independent ±1 family (Eq. 12).  Then (Props 7–8):

* ``S_F · S_G``   is unbiased for the size of join ``Σᵢ fᵢ gᵢ``;
* ``S²``          is unbiased for the self-join size ``Σᵢ fᵢ²``;

with the variances given by Eqs. 14 and 16.  A practical sketch keeps
``rows`` independent counters (independent ξ families) and combines the
basic estimates (see :mod:`._combine`).

Update cost is ``O(rows)`` *per tuple* — every counter is touched — which
is exactly the cost the paper's load-shedding application (Section VI-A)
seeks to amortize by sketching a sample.  Bulk updates go through the
fused kernel seam (:func:`repro.kernels.fused_update`), which counts the
per-row sign sums over the whole key batch in one pass.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..hashing import EH3SignFamily, FourWiseSignFamily, SignFamily
from ..kernels import fused_update
from ..rng import SeedLike, as_seed_sequence, derive_seed
from ._combine import combine_estimates, validate_combine
from .base import Sketch

__all__ = ["AgmsSketch"]

_SIGN_FAMILIES = {"fourwise": FourWiseSignFamily, "eh3": EH3SignFamily}


class AgmsSketch(Sketch):
    """Array of ``rows`` basic AGMS estimators.

    Parameters
    ----------
    rows:
        Number of independent basic estimators.  Variance of the combined
        estimate over a full stream falls as ``1/rows`` (mean combining).
    seed:
        Seed for the ξ families.  Two sketches that must be compared
        (:meth:`inner_product`) or merged must be built with the same seed.
    sign_family:
        ``"fourwise"`` (degree-3 polynomial, the analyzed construction) or
        ``"eh3"`` (3-wise, faster; the practical recommendation of the
        paper's ref [17]).
    combine:
        ``"mean"`` (default, matches the paper's averaging analysis),
        ``"median"``, or ``"median-of-means"`` with ``groups`` groups.
    """

    __slots__ = (
        "rows",
        "seed_id",
        "seed_entropy",
        "seed_spawn_key",
        "sign_family",
        "combine",
        "groups",
        "_counters",
        "_signs",
        "_scratch",
    )

    def __init__(
        self,
        rows: int,
        seed: SeedLike = None,
        *,
        sign_family: str = "fourwise",
        combine: str = "mean",
        groups: int = 1,
    ) -> None:
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        if sign_family not in _SIGN_FAMILIES:
            raise ConfigurationError(
                f"unknown sign_family {sign_family!r}; "
                f"expected one of {tuple(_SIGN_FAMILIES)}"
            )
        validate_combine(combine, rows, groups)
        root = as_seed_sequence(seed)
        self.rows = rows
        self.seed_id = derive_seed(root)
        self.seed_entropy = root.entropy
        self.seed_spawn_key = tuple(root.spawn_key)
        self.sign_family = sign_family
        self.combine = combine
        self.groups = groups
        self._signs: SignFamily = _SIGN_FAMILIES[sign_family](rows, root.spawn(1)[0])
        self._counters = np.zeros(rows, dtype=np.float64)
        self._scratch = np.empty(rows, dtype=np.float64)

    # ------------------------------------------------------------------

    @property
    def counters(self) -> np.ndarray:
        """The raw counter vector ``Sₖ`` (read for inspection, not mutation)."""
        return self._counters

    def update(self, keys, weights=None) -> None:
        fused_update(self._update_plan(), keys, weights)

    # ------------------------------------------------------------------

    def row_second_moments(self) -> np.ndarray:
        """Per-row basic self-join estimates ``Sₖ²`` (Prop 8, before combining)."""
        return self._counters**2

    def row_inner_products(self, other: "AgmsSketch") -> np.ndarray:
        """Per-row basic join estimates ``Sₖ·Tₖ`` (Prop 7, before combining)."""
        self.check_compatible(other)
        return self._counters * other._counters

    def second_moment(self) -> float:
        return combine_estimates(self.row_second_moments(), self.combine, self.groups)

    def inner_product(self, other: Sketch) -> float:
        if not isinstance(other, AgmsSketch):
            raise TypeError("inner_product requires another AgmsSketch")
        return combine_estimates(
            self.row_inner_products(other), self.combine, self.groups
        )

    def estimate_frequencies(self, keys) -> np.ndarray:
        """Unbiased point-frequency estimates for a batch of keys.

        Per row, ``ξ(key)·S`` is unbiased for ``f_key`` (cross terms cancel
        in expectation); rows are combined by the configured combiner.
        Variance per row is ``F₂ − f_key²`` — much noisier than F-AGMS
        point queries at equal budget, included for completeness.
        """
        keys = np.asarray(keys, dtype=np.int64)
        signs = self._signs(keys).astype(np.float64)  # (rows, n)
        estimates = signs * self._counters[:, None]
        return np.array(
            [
                combine_estimates(estimates[:, j], self.combine, self.groups)
                for j in range(keys.size)
            ]
        )

    def point_estimate(self, key: int) -> float:
        """Unbiased estimate of a single key's frequency."""
        return float(self.estimate_frequencies(np.asarray([key]))[0])

    # ------------------------------------------------------------------

    def copy_empty(self) -> "AgmsSketch":
        clone = object.__new__(AgmsSketch)
        clone.rows = self.rows
        clone.seed_id = self.seed_id
        clone.seed_entropy = self.seed_entropy
        clone.seed_spawn_key = self.seed_spawn_key
        clone.sign_family = self.sign_family
        clone.combine = self.combine
        clone.groups = self.groups
        clone._signs = self._signs  # immutable family, safe to share
        clone._counters = np.zeros(self.rows, dtype=np.float64)
        clone._scratch = np.empty(self.rows, dtype=np.float64)
        return clone

    def _state(self) -> np.ndarray:
        return self._counters

    def _fused_descriptor(self):
        """This sketch's entry for :func:`repro.kernels.fused.fused_update`."""
        from ..kernels.fused import FusedEntry

        if self.sign_family == "fourwise":
            return FusedEntry(
                kind="agms",
                counters=self._counters,
                rows=self.rows,
                sign_kind="poly",
                sign_coefficients=self._signs._family.coefficients,
                sign_family=self._signs,
                scratch=self._scratch,
            )
        return FusedEntry(
            kind="agms",
            counters=self._counters,
            rows=self.rows,
            sign_kind="eh3",
            sign_family=self._signs,
            scratch=self._scratch,
            key_bound=min(2**31 - 1, 2**self._signs.bits),
        )

    def _family_fingerprint(self) -> tuple:
        return super()._family_fingerprint() + (self.sign_family,)

    def __repr__(self) -> str:
        return (
            f"AgmsSketch(rows={self.rows}, combine={self.combine!r}, "
            f"seed_id={self.seed_id})"
        )
