"""Upper record values and their extraction from raw sequences."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import InvalidDataError
from .rng import check_seed, exp_record_matrix


@dataclass(frozen=True)
class RecordSeries:
    """A strictly increasing sequence of positive upper record values.

    ``n`` follows the indexing convention in which the series holds
    records ``r_0, ..., r_n``, i.e. ``n = len(values) - 1``.
    """

    values: NDArray[np.float64] = field(repr=False)
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidDataError("record series must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidDataError("record values must be finite")
        if arr[0] <= 0.0:
            raise InvalidDataError("record values must be strictly positive")
        if np.any(np.diff(arr) <= 0.0):
            raise InvalidDataError("record values must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        """Index of the last record (series length minus one)."""
        return self.values.size - 1

    def __len__(self) -> int:
        return self.values.size


def log_to_max(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """``log(r / max r)`` over the leading axis of positive values.

    Where ``r >= max r / 2`` the difference ``r - max r`` is exact, so
    ``log1p`` of its quotient keeps the spread of records whose float
    logarithms tie; elsewhere ``log r - log max r`` is below log(1/2)
    and accurate to a few ulps.  The maximum maps to exactly 0.
    """
    top = np.max(values, axis=0)
    out = np.log(values) - np.log(top)
    np.log1p((values - top) / top, out=out, where=values >= 0.5 * top)
    return out


def _record_sum(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sum over the leading (record) axis, adding rows in index order.

    numpy picks its summation algorithm from the array's layout: a sum
    over axis 0 of a (k, n) array adds rows in order, but the same sum
    of a (k, 1) array, or of a 1-d array, is pairwise once k >= 8.
    Spelling the order out makes each entry's sum independent of how
    many entries share its batch, and gives the shape MLE and the pivot
    solver one rounding of one statistic.  The first row is copied, so
    a single record is its own sum.
    """
    total = np.array(a[0])
    for row in a[1:]:
        total += row
    return total


def extract_upper_records(data: ArrayLike, label: str = "") -> RecordSeries:
    """Extract the upper record values from a raw observation sequence.

    The first observation is always a record; afterwards an observation
    is a record only if it strictly exceeds every earlier one.  Ties do
    not set new records.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidDataError("raw data must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidDataError("raw data must be finite")
    if arr[0] <= 0.0:
        raise InvalidDataError("observations must be strictly positive")
    running = np.maximum.accumulate(arr)
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    keep[1:] = arr[1:] > running[:-1]
    return RecordSeries(arr[keep], label=label)


def exponential_records(n: int, seed: int, stream_id: int = 0) -> RecordSeries:
    """Records ``r_0..r_n`` of a unit-rate exponential distribution.

    Exploits the memoryless property: successive record increments are
    independent standard exponentials, so the records are partial sums.
    ``seed`` and ``stream_id`` are integers in [0, 2**64).
    """
    if n < 0:
        raise InvalidDataError("n must be non-negative")
    return RecordSeries(exp_record_matrix(
        check_seed(seed), check_seed(stream_id, "stream_id"), n + 1)[:, 0])


def weibull_records(n: int, alpha: float, beta: float, seed: int,
                    stream_id: int = 0) -> RecordSeries:
    """Simulate records ``r_0..r_n`` from a Weibull distribution.

    If ``S`` is an exponential record value then ``alpha * S**(1/beta)``
    is the corresponding Weibull record value, because the monotone map
    preserves the record structure.  Parameters under which the records
    leave the float range or round to ties raise ``InvalidDataError``
    naming both.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidDataError(
                f"{name} must be positive and finite, got {value}")
    s = exponential_records(n, seed, stream_id).values
    with np.errstate(over="ignore"):
        r = alpha * s ** (1.0 / beta)
    if not (np.all(np.isfinite(r)) and r[0] > 0.0):
        problem = "take the records out of the float range"
    elif np.any(np.diff(r) <= 0.0):
        problem = "round distinct records to ties"
    else:
        return RecordSeries(r)
    raise InvalidDataError(f"alpha = {alpha!r} and beta = {beta!r} {problem}")
