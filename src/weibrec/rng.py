"""Counter-based pseudo-random streams.

Every variate produced by this package is a pure function of
``(seed, stream_id, counter)``.  A 64-bit key is hashed with the
SplitMix64 output finalizer, so any stream position can be generated
independently of every other position.  That is what makes results
bitwise reproducible no matter how work is chunked across threads:
threads only decide *who* computes a word, never *which* word is
computed.

All integer arithmetic is done on uint64 numpy arrays, where overflow
wraps silently mod 2**64 (numpy warns on scalar uint64 overflow, so
scalars are promoted to 1-element arrays internally).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.typing import NDArray

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(GOLDEN)
_STREAM_SALT = np.uint64(0x6A09E667F3BCC909)
_DERIVE_SALT = np.uint64(0xBB67AE8584CAA73B)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
_U01_SCALE = 2.0 ** -53


def _u64(x) -> NDArray[np.uint64]:
    """Coerce ints / int arrays to a uint64 array, wrapping mod 2**64."""
    if isinstance(x, np.ndarray) and x.dtype == np.uint64:
        return np.atleast_1d(x)
    if np.isscalar(x):
        return np.asarray([int(x) & MASK64], dtype=np.uint64)
    arr = np.asarray(x)
    if arr.dtype == np.uint64:
        return np.atleast_1d(arr)
    return np.atleast_1d(np.asarray(
        [int(v) & MASK64 for v in arr.ravel()], dtype=np.uint64
    ).reshape(arr.shape))


def mix64(z: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """SplitMix64 finalizer: a bijective avalanche mix of 64-bit words."""
    z = (z ^ (z >> _SHIFT_30)) * _MIX_M1
    z = (z ^ (z >> _SHIFT_27)) * _MIX_M2
    return z ^ (z >> _SHIFT_31)


def stream_base(seed, stream_ids) -> NDArray[np.uint64]:
    """Hash (seed, stream_id) pairs into per-stream base keys."""
    s = mix64(_u64(seed) + _GOLDEN)
    return mix64(s ^ mix64(_u64(stream_ids) ^ _STREAM_SALT))


def stream_words(seed, stream_id: int, start: int, count: int) -> NDArray[np.uint64]:
    """Words ``start .. start+count-1`` of one stream, as raw uint64."""
    base = stream_base(seed, stream_id)
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return mix64(base + counters * _GOLDEN)


def words_to_uniforms(words: NDArray[np.uint64]) -> NDArray[np.float64]:
    """Map 64-bit words to doubles strictly inside (0, 1)."""
    return ((words >> _SHIFT_11).astype(np.float64) + 0.5) * _U01_SCALE


def stream_uniforms(seed, stream_id: int, start: int, count: int) -> NDArray[np.float64]:
    return words_to_uniforms(stream_words(seed, stream_id, start, count))


def stream_exponentials(seed, stream_id: int, start: int, count: int) -> NDArray[np.float64]:
    """Standard exponential variates from one stream."""
    u = stream_uniforms(seed, stream_id, start, count)
    return -np.log1p(-u)


def exp_records(seed, stream_ids, n_values: int) -> Iterator[NDArray[np.float64]]:
    """Unit-rate exponential record values, one record at a time.

    Record values of a unit exponential are partial sums of independent
    standard exponentials, so each (seed, stream) pair yields the running
    sum of its first ``n_values`` exponential draws.  The seed and stream
    arguments broadcast against each other, and record ``j`` (from 1)
    of every stream is yielded as one array of the broadcast shape.
    The generator keeps only the current record, and each yielded array
    is new, so a consumer may keep it.
    """
    base = stream_base(seed, stream_ids)
    record = 0.0
    for step in np.arange(1, n_values + 1, dtype=np.uint64) * _GOLDEN:
        record = record - np.log1p(-words_to_uniforms(mix64(base + step)))
        yield record


def exp_record_matrix(seed, stream_ids, n_values: int) -> NDArray[np.float64]:
    """The records of :func:`exp_records` along a new trailing axis.

    E.g. a scalar seed with ``k`` stream ids gives shape ``(k, n_values)``.
    The result is record-major in memory: it is a view of a C-ordered
    ``(n_values, ...)`` array, so ``np.moveaxis(result, -1, 0)`` is
    contiguous and a sum over records is ``n_values - 1`` vector adds.
    Each stream's values are those of the cumulative sum of its
    :func:`stream_exponentials`, whatever the layout.  The pivot targets
    do not use this matrix: they reduce :func:`exp_records` as it runs.
    """
    return np.moveaxis(np.stack(list(exp_records(seed, stream_ids, n_values))),
                       0, -1)


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed, yielding an independent child seed."""
    s = _u64(seed)
    for tag in tags:
        s = mix64((s + _GOLDEN) ^ mix64(_u64(tag) ^ _DERIVE_SALT))
    return int(s[0])


def derive_seed_array(seed, tags) -> NDArray[np.uint64]:
    """Vectorized :func:`derive_seed` for one tag level.

    Either argument may be an array; they broadcast against each other.
    """
    s = _u64(seed)
    t = _u64(tags)
    return mix64((s + _GOLDEN) ^ mix64(t ^ _DERIVE_SALT))
