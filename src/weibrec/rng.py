"""Counter-based pseudo-random streams.

Every variate produced by this package is a pure function of
``(seed, stream_id, counter)``.  A 64-bit key is hashed with the
SplitMix64 output finalizer, so any stream position can be generated
independently of every other position.  That is what makes results
bitwise reproducible no matter how work is chunked across threads:
threads only decide *who* computes a word, never *which* word is
computed.

Word ``j`` of a stream maps to one float in (0, 1] (see
``_unit_floats``).  :func:`uniforms` yields those floats, from which the
pivot targets are drawn; :func:`exp_records` turns them into the
exponential records of the simulated data series.

All integer arithmetic is done on uint64 numpy arrays, where overflow
wraps silently mod 2**64 (numpy warns on scalar uint64 overflow, so
scalars are promoted to 1-element arrays internally).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce

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


def _unit_floats(word, out, scale) -> NDArray[np.float64]:
    """``out = (top 53 bits of word + 0.5) * scale``, ``word`` shifted in place.

    This is the one map from words to floats.  With ``scale = 2**-53`` it
    gives a uniform ``u`` in (0, 1]: ``word >> 11`` is below 2**53, so its
    int64 view converts exactly, and faster than uint64, but the half
    rounds to even above 2**52, so the top three shifted words 2**53 - 3,
    2**53 - 2 and 2**53 - 1 give ``1 - 2**-52``, ``1 - 2**-52`` and
    exactly 1.0.  A power-of-two scale is exact, so ``-2**-53`` gives
    ``-u`` at no extra pass.
    """
    word >>= _SHIFT_11
    np.add(word.view(np.int64), 0.5, out=out)
    out *= scale
    return out


def _mapped_words(base, n_values: int, scale, word=None,
                  scratch=None) -> Iterator[NDArray[np.float64]]:
    """Words 1 to ``n_values`` of the streams keyed by ``base``, through
    :func:`_unit_floats`, each yielded in one float array updated in place.

    The words are formed in ``word`` and mixed through ``scratch``, whose
    float view is the yielded array; both are uint64 arrays like ``base``,
    fresh when not given.  ``word`` is free while a value is yielded.
    """
    word = np.empty_like(base) if word is None else word
    scratch = np.empty_like(base) if scratch is None else scratch
    x = scratch.view(np.float64)
    for step in np.arange(1, n_values + 1, dtype=np.uint64) * _GOLDEN:
        mix64(np.add(base, step, out=word), scratch)
        yield _unit_floats(word, x, scale)


def uniforms(seed, stream_ids, n_values: int,
             scratch=(None, None, None)) -> Iterator[NDArray[np.float64]]:
    """Uniforms in (0, 1], one word of every stream at a time.

    Word ``j`` (from 1) of each (seed, stream) pair maps to ``u_j = (top
    53 bits + 0.5) / 2**53``, as in :func:`exp_records`; the top three
    words round to ``1 - 2**-52`` and 1.0 (see :func:`_unit_floats`).
    The seed and stream arguments broadcast against each other.  Every
    step yields the same array, updated in place, and allocates nothing.
    A call holds three uint64 arrays of the broadcast shape, ``scratch``
    if given: the base keys, the words, which are free while a value is
    yielded, and the mixed words, whose float view is yielded.
    """
    base, word, mixed = scratch
    return _mapped_words(stream_base(seed, stream_ids, base, mixed), n_values,
                         _U01_SCALE, word, mixed)


def exp_records(seed, stream_ids, n_values: int) -> Iterator[NDArray[np.float64]]:
    """Unit-rate exponential record values, one record at a time.

    Record values of a unit exponential are partial sums of independent
    standard exponentials, so each (seed, stream) pair yields the running
    sum of its first ``n_values`` exponential draws.  The seed and stream
    arguments broadcast against each other, and record ``j`` (from 1)
    of every stream is yielded as one array of the broadcast shape.

    Every step yields the same array, updated in place to the next
    record, so a consumer that keeps a record must copy it.  Each call
    holds four arrays of the broadcast shape -- the base keys, a word
    buffer, a scratch buffer that also holds the negated uniforms, and
    the record -- and each step allocates nothing.  Word ``j`` of a
    stream maps to the uniform ``u_j`` in (0, 1] of :func:`uniforms`,
    and its exponential is ``-log1p(-u_j)``, which is ``inf`` for the
    one word that maps to 1.0.
    """
    base = stream_base(seed, stream_ids)
    # Not np.zeros: a fresh page of it faults once when read and again
    # when written.
    record = np.full(base.shape, 0.0)
    for x in _mapped_words(base, n_values, -_U01_SCALE):
        record -= np.log1p(x, out=x)
        yield record


def exp_record_matrix(seed, stream_ids, n_values: int) -> NDArray[np.float64]:
    """The records of :func:`exp_records` copied onto a new leading axis.

    E.g. a scalar seed with ``k`` stream ids gives shape ``(n_values, k)``.
    The result is record-major and C-ordered, so a sum over records is
    ``n_values - 1`` vector adds.  Stream ``s`` of ``seed`` holds the
    cumulative sum of the standard exponentials ``-log1p(-u_j)``, where
    ``u_j`` is word ``j`` (from 1) of the stream mapped into (0, 1].  The
    pivot targets do not use this matrix: they reduce :func:`uniforms`
    as it runs.
    """
    out = None
    for j, record in enumerate(exp_records(seed, stream_ids, n_values)):
        if out is None:
            out = np.empty((n_values,) + record.shape)
        out[j] = record
    return out


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
