"""Combining per-row basic estimates into a single sketch estimate.

A sketch holds ``rows`` independent basic estimators.  The classic ways to
combine them (Section IV / refs [1], [2]):

* ``mean`` — average all rows; variance drops by the number of rows (for
  sketches over full streams; Props 11–12 quantify the weaker improvement
  over samples).
* ``median`` — median of the rows; turns Chebyshev bounds into
  exponentially small failure probability, and is the standard combiner for
  F-AGMS rows (ref [3]).
* ``median-of-means`` — partition rows into groups, average within groups,
  take the median of group means; the textbook (ε, δ) estimator.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["combine_estimates", "exact_median", "validate_combine"]

_METHODS = ("mean", "median", "median-of-means")


def validate_combine(method: str, rows: int, groups: int) -> None:
    """Validate a combining configuration at sketch-construction time."""
    if method not in _METHODS:
        raise ConfigurationError(
            f"unknown combine method {method!r}; expected one of {_METHODS}"
        )
    if groups < 1:
        raise ConfigurationError(f"groups must be >= 1, got {groups}")
    if method == "median-of-means":
        if rows % groups != 0:
            raise ConfigurationError(
                f"median-of-means needs rows divisible by groups: "
                f"rows={rows}, groups={groups}"
            )
    elif groups != 1:
        raise ConfigurationError(
            f"groups={groups} only makes sense with combine='median-of-means'"
        )


def combine_estimates(values: np.ndarray, method: str, groups: int = 1) -> float:
    """Collapse per-row estimates into one number.

    *values* is the 1-D array of basic estimates (one per row); *method*
    and *groups* as validated by :func:`validate_combine`.
    """
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError(
            f"expected a non-empty 1-D estimate array, got shape {values.shape}"
        )
    if method == "mean":
        return float(values.mean())
    if method == "median":
        return float(np.median(values))
    group_means = values.reshape(groups, -1).mean(axis=1)
    return float(np.median(group_means))


def exact_median(reads: np.ndarray) -> float:
    """``np.median(reads, axis=0)`` of a ``(rows, 1)`` column, bit for bit.

    A scalar point query's rows fit in a Python list, where sorting and
    picking the middle (the mean of the middle two for an even count)
    costs far less than ``np.median``'s partition and ``mean`` machinery.
    Floats that compare equal but differ in bits are only signed zeros,
    and a NaN anywhere makes ``np.median`` NaN; in those cases (a zero
    median, or a NaN sum) the answer is handed back to ``np.median``,
    whose reduction then decides the sign of the zero.
    """
    values = reads.ravel().tolist()
    values.sort()
    half = len(values) // 2
    if len(values) % 2:
        middle = values[half]
    else:
        middle = (values[half - 1] + values[half]) / 2
    total = sum(values)
    # Exact by design: a signed zero is the one tie that needs numpy.
    if middle == 0.0 or total != total:  # repro: noqa(REP004)
        return float(np.median(reads, axis=0)[0])
    return middle
