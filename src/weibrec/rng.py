"""Counter-based pseudo-random streams.

Every variate produced by this package is a pure function of
``(seed, stream_id, counter)``.  A 64-bit key is hashed with the
SplitMix64 output finalizer, so any stream position can be generated
independently of every other position.  That is what makes results
bitwise reproducible no matter how work is chunked across threads:
threads only decide *who* computes a word, never *which* word is
computed.

Word ``j`` of a stream maps to one float in (0, 1] (see
``_unit_floats``), and :func:`uniforms` yields those floats, one word of
every stream at a time.  Both kinds of draw read it: the pivot targets
reduce the uniforms as they run, and :func:`exp_record_matrix` sums
their exponentials into the records of the simulated data series.

All integer arithmetic is done on uint64 numpy arrays, where overflow
wraps silently mod 2**64 (numpy warns on scalar uint64 overflow, so
scalars are promoted to 1-element arrays internally).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidDataError

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
# The largest uniform whose exponential exp_record_matrix takes.
_U_MAX = 1.0 - 2.0 ** -53


def _integer(value, name: str) -> int:
    """``value`` as an int, if it is a Python or numpy integer, not a bool.

    Otherwise it raises ``InvalidDataError`` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidDataError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str):
    """``value`` as it is, if it is a Python or numpy real number, not a bool.

    Otherwise it raises ``InvalidDataError`` naming ``name``, so that a
    string or None is refused as the other invalid values are, and not
    with a bare ``TypeError`` from the comparison that would check it.
    """
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise InvalidDataError(f"{name} must be a number, got {value!r}")
    return value


def check_seed(value, name: str = "seed") -> int:
    """``value`` as an int, if it is a Python or numpy integer in [0, 2**64).

    The library's seeded entry points take their seeds and stream ids
    through here.  ``_u64`` folds any integer mod 2**64, so without this
    check -1 would run as 2**64 - 1 and 1.5 as 1.  Bools, floats and
    other types, and integers outside the range, raise
    ``InvalidDataError``.
    """
    value = _integer(value, name)
    if not 0 <= value < 2 ** 64:
        raise InvalidDataError(f"{name} must be in [0, 2**64), got {value}")
    return value


def _u64(x) -> NDArray[np.uint64]:
    """Coerce ints / int arrays to a uint64 array, wrapping mod 2**64."""
    arr = np.atleast_1d(np.asarray(x))
    if arr.dtype == np.uint64:
        return arr
    return np.array([int(v) & MASK64 for v in arr.ravel()],
                    dtype=np.uint64).reshape(arr.shape)


def mix64(z: NDArray[np.uint64], scratch=None) -> NDArray[np.uint64]:
    """SplitMix64 finalizer: a bijective avalanche mix of 64-bit words.

    ``z`` is left as it is and its mix returned, unless a uint64
    ``scratch`` array of its shape is given: then ``z`` is mixed in
    place, through ``scratch``, and returned.
    """
    if scratch is None:
        z = z.copy()
        scratch = np.empty_like(z)
    z ^= np.right_shift(z, _SHIFT_30, out=scratch)
    z *= _MIX_M1
    z ^= np.right_shift(z, _SHIFT_27, out=scratch)
    z *= _MIX_M2
    z ^= np.right_shift(z, _SHIFT_31, out=scratch)
    return z


def stream_base(seed, stream_ids, out=None, scratch=None) -> NDArray[np.uint64]:
    """Hash (seed, stream_id) pairs into per-stream base keys.

    The keys, of the broadcast shape, go into the uint64 array ``out``,
    mixed through ``scratch``; each is fresh when not given.
    """
    s = mix64(_u64(seed) + _GOLDEN)
    z = np.bitwise_xor(s, mix64(_u64(stream_ids) ^ _STREAM_SALT), out=out)
    return mix64(z, np.empty_like(z) if scratch is None else scratch)


def _unit_floats(word, out) -> NDArray[np.float64]:
    """``out = (top 53 bits of word + 0.5) / 2**53``, ``word`` shifted in place.

    This is the one map from words to floats, a uniform ``u`` in (0, 1]:
    ``word >> 11`` is below 2**53, so its int64 view converts exactly, and
    faster than uint64, but the half rounds to even above 2**52, so the
    top three shifted words 2**53 - 3, 2**53 - 2 and 2**53 - 1 give ``1 -
    2**-52``, ``1 - 2**-52`` and exactly 1.0.
    """
    word >>= _SHIFT_11
    np.add(word.view(np.int64), 0.5, out=out)
    out *= _U01_SCALE
    return out


def uniforms(seed, stream_ids, n_values: int,
             scratch=(None, None, None)) -> Iterator[NDArray[np.float64]]:
    """Uniforms in (0, 1], one word of every stream at a time.

    Word ``j`` (from 1) of each (seed, stream) pair maps to ``u_j = (top
    53 bits + 0.5) / 2**53``; the top three words round to ``1 - 2**-52``
    and 1.0 (see :func:`_unit_floats`).  The seed and stream arguments
    broadcast against each other.  Every step yields the same array,
    updated in place, and allocates nothing.  A call holds three uint64
    arrays of the broadcast shape, ``scratch`` if given: the base keys,
    the words, which are free while a value is yielded, and the mixed
    words, whose float view is yielded.
    """
    base, word, mixed = scratch
    base = stream_base(seed, stream_ids, base, mixed)
    word = np.empty_like(base) if word is None else word
    mixed = np.empty_like(base) if mixed is None else mixed
    x = mixed.view(np.float64)
    for step in np.arange(1, n_values + 1, dtype=np.uint64) * _GOLDEN:
        mix64(np.add(base, step, out=word), mixed)
        yield _unit_floats(word, x)


def exp_record_matrix(seed, stream_ids, n_values: int) -> NDArray[np.float64]:
    """Unit-rate exponential record values, on a new leading record axis.

    Record values of a unit exponential are partial sums of independent
    standard exponentials, so each (seed, stream) pair gets the running
    sum of its first ``n_values`` exponential draws, ``-log1p(-u_j)`` of
    the uniforms ``u_j`` of :func:`uniforms`.  Each ``u_j`` is capped at
    ``1 - 2**-53``: the one word that maps to 1.0 gets ``53 log 2`` (about
    36.74) in place of ``inf``, and every other word is unchanged.

    The seed and stream arguments broadcast against each other; e.g. a
    scalar seed with ``k`` stream ids gives shape ``(n_values, k)``.  The
    result is record-major and C-ordered, so a sum over records is
    ``n_values - 1`` vector adds.  Each record is written straight into
    its row, from the row before it (from 0.0 for the first).
    """
    rows = None
    for j, u in enumerate(uniforms(seed, stream_ids, n_values)):
        if rows is None:
            rows = np.empty((n_values,) + u.shape)
        np.log1p(np.negative(np.minimum(u, _U_MAX, out=u), out=u), out=u)
        np.subtract(rows[j - 1] if j else 0.0, u, out=rows[j])
    return rows


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed, yielding an independent child seed."""
    return int(reduce(derive_seed_array, tags, _u64(seed))[0])


def derive_seed_array(seed, tags) -> NDArray[np.uint64]:
    """Vectorized :func:`derive_seed` for one tag level.

    Either argument may be an array; they broadcast against each other.
    """
    s = _u64(seed)
    t = _u64(tags)
    return mix64((s + _GOLDEN) ^ mix64(t ^ _DERIVE_SALT))
