"""Counter-based stream behavior: determinism, ranges, independence."""

import numpy as np
import pytest

from weibrec import rng, sample_pivotal, sample_shape_pivot
from weibrec.errors import InvalidDataError
from weibrec.records import RecordSeries, exponential_records, weibull_records
from weibrec.rng import (
    GOLDEN,
    derive_seed,
    derive_seed_array,
    exp_record_matrix,
    mix64,
    stream_base,
    uniforms,
)


# One stream read word by word from its counter: the independent oracle
# for the uniforms that ``uniforms`` draws one word of every stream at a
# time, and for the records that ``exp_record_matrix`` sums from them.

def stream_words(seed, stream_id: int, start: int, count: int):
    """Words ``start .. start+count-1`` of one stream, as raw uint64."""
    base = stream_base(seed, stream_id)
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return mix64(base + counters * np.uint64(GOLDEN))


def words_to_uniforms(words):
    """Map 64-bit words to doubles in (0, 1]: the top 53 bits, plus one
    half, over 2**53.  The half rounds to even above 2**52, so the top
    word gives exactly 1.0."""
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def stream_uniforms(seed, stream_id: int, start: int, count: int):
    return words_to_uniforms(stream_words(seed, stream_id, start, count))


def stream_exponentials(seed, stream_id: int, start: int, count: int):
    """Standard exponential variates from one stream."""
    u = stream_uniforms(seed, stream_id, start, count)
    return -np.log1p(-u)


def test_words_are_pure_functions_of_position():
    full = stream_words(123, 7, start=0, count=100)
    tail = stream_words(123, 7, start=60, count=40)
    np.testing.assert_array_equal(full[60:], tail)


def test_streams_do_not_collide():
    a = stream_words(123, 0, 0, 1000)
    b = stream_words(123, 1, 0, 1000)
    assert not np.any(a == b)


def test_seed_changes_everything():
    a = stream_words(1, 0, 0, 1000)
    b = stream_words(2, 0, 0, 1000)
    assert not np.any(a == b)


def test_uniforms_strictly_inside_unit_interval():
    u = stream_uniforms(9, 0, 0, 200_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 3.0 * np.sqrt(1.0 / 12.0 / u.size)


def test_mix64_is_a_bijection_sample():
    words = np.arange(100_000, dtype=np.uint64)
    mixed = mix64(words)
    np.testing.assert_array_equal(words, np.arange(100_000, dtype=np.uint64))
    assert np.unique(mixed).size == words.size
    # With a scratch array the words are mixed in place, to the same values.
    assert mix64(words, np.empty_like(words)) is words
    np.testing.assert_array_equal(words, mixed)


def test_negative_and_huge_seeds_wrap():
    a = stream_words(-1, 0, 0, 4)
    b = stream_words(0xFFFFFFFFFFFFFFFF, 0, 0, 4)
    np.testing.assert_array_equal(a, b)
    c = stream_words(2**64 + 5, 0, 0, 4)
    d = stream_words(5, 0, 0, 4)
    np.testing.assert_array_equal(c, d)


def test_derive_seed_scalar_matches_array():
    tags = np.arange(50)
    vec = derive_seed_array(12345, tags)
    for t in (0, 1, 17, 49):
        assert derive_seed(12345, t) == int(vec[t])


def test_derive_seed_chains_tags():
    assert derive_seed(7, 1, 2) == derive_seed(derive_seed(7, 1), 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_exp_record_matrix_broadcasts():
    # scalar seed + vector streams
    a = exp_record_matrix(5, np.arange(4), 6)
    assert a.shape == (6, 4)
    # vector seeds + scalar stream
    seeds = derive_seed_array(5, np.arange(3))
    b = exp_record_matrix(seeds, 0, 6)
    assert b.shape == (6, 3)
    # outer broadcast
    c = exp_record_matrix(seeds[:, None], np.arange(4)[None, :], 6)
    assert c.shape == (6, 3, 4)
    np.testing.assert_array_equal(c[:, 0], exp_record_matrix(int(seeds[0]), np.arange(4), 6))


def test_rows_are_positive_increasing():
    rows = exp_record_matrix(11, np.arange(100), 8)
    assert np.all(rows[0] > 0)
    assert np.all(np.diff(rows, axis=0) > 0)


def test_exp_record_rows_are_stream_partial_sums():
    for k in (2, 7, 9, 16):
        rows = exp_record_matrix(21, np.arange(30), k)
        for s in range(30):
            np.testing.assert_array_equal(
                rows[:, s], np.cumsum(stream_exponentials(21, s, 0, k)))
        # record-major memory: the record axis is outermost
        assert rows.flags.c_contiguous


def test_record_rows_match_the_stream_oracle_and_weibull_records():
    rows = exp_record_matrix(3, np.arange(50), 6)
    assert np.all(np.diff(rows, axis=0) > 0)
    for s in (0, 49):
        np.testing.assert_array_equal(
            rows[:, s], np.cumsum(stream_exponentials(3, s, 0, 6)))
    series = weibull_records(5, 2.0, 1.5, seed=3, stream_id=7).values
    assert np.all(np.diff(series) > 0)
    np.testing.assert_array_equal(
        series, 2.0 * np.cumsum(stream_exponentials(3, 7, 0, 6)) ** (1.0 / 1.5))


def test_uniforms_yield_one_array_of_the_stream_words():
    ids = np.arange(50)
    yielded = [(u, u.copy()) for u in uniforms(3, ids, 6)]
    assert all(u is yielded[0][0] for u, _ in yielded)
    steps = np.array([copy for _, copy in yielded])
    for s in (0, 17, 49):
        np.testing.assert_array_equal(steps[:, s], stream_uniforms(3, s, 0, 6))
    seeds = derive_seed_array(5, np.arange(3))[:, None]
    grid = np.array([u.copy() for u in uniforms(seeds, ids, 4)])
    assert grid.shape == (4, 3, 50)
    np.testing.assert_array_equal(grid[:, 1, 7], stream_uniforms(seeds[1], 7, 0, 4))


def test_top_three_words_map_to_one_minus_ulp_and_one():
    # Above 2**52 the half rounds to even: shifted words 2**53 - 3 and
    # 2**53 - 2 give 1 - 2**-52, and 2**53 - 1 gives exactly 1.0, whose
    # exponential -log1p(-1.0) is inf.
    words = (np.arange(2 ** 53 - 4, 2 ** 53, dtype=np.uint64) << np.uint64(11)
             | np.uint64(0x7FF))
    want = [1.0 - 2.0 ** -51, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -52, 1.0]
    assert rng._unit_floats(words.copy(), np.empty(4)).tolist() == want
    assert words_to_uniforms(words).tolist() == want


def test_exp_records_stay_finite_at_the_word_that_maps_to_one(monkeypatch):
    # Every word 2**64 - 1: each shifts to 2**53 - 1, whose uniform is
    # exactly 1.0 and whose exponential -log1p(-1.0) would be inf.  The
    # clamp gives it -log1p(-(1 - 2**-53)) = 53 log 2 instead.
    def saturated(z, scratch=None):
        z = z.copy() if scratch is None else z
        z[...] = np.uint64(2 ** 64 - 1)
        return z

    monkeypatch.setattr(rng, "mix64", saturated)
    # The suite turns RuntimeWarnings into errors, so a log1p(-1.0) raises.
    rows = exp_record_matrix(3, np.arange(4, dtype=np.uint64), 3)
    assert np.all(np.isfinite(rows))
    assert np.all(np.diff(rows, axis=0) > 0)
    want = -np.log1p(-(1.0 - 2.0 ** -53))
    assert want == pytest.approx(53 * np.log(2.0), rel=1e-15)
    np.testing.assert_array_equal(rows[0], want)


class TestSeedDomain:
    """The library's seeded calls refuse seeds and stream ids outside
    [0, 2**64), which the stream hash would fold onto other seeds."""

    SERIES = RecordSeries([1.0, 2.0, 5.0])

    def draws(self, seed):
        return [sample_pivotal(self.SERIES, self.SERIES, "ratio", 50,
                               seed=seed).values,
                sample_shape_pivot(self.SERIES, 50, seed=seed).values]

    @pytest.mark.parametrize("seed", [2 ** 64 + 7, 2 ** 64, -1])
    def test_samplers_refuse_seeds_out_of_range(self, seed):
        with pytest.raises(InvalidDataError,
                           match=r"^seed must be in \[0, 2\*\*64\), got "):
            sample_pivotal(self.SERIES, self.SERIES, "ratio", 50, seed=seed)
        with pytest.raises(InvalidDataError,
                           match=r"^seed must be in \[0, 2\*\*64\), got "):
            sample_shape_pivot(self.SERIES, 50, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 7.0, np.float64(7.0), True,
                                      np.True_, "7"])
    def test_samplers_refuse_seeds_that_are_not_integers(self, seed):
        with pytest.raises(InvalidDataError,
                           match="^seed must be an integer, got "):
            sample_pivotal(self.SERIES, self.SERIES, "ratio", 50, seed=seed)
        with pytest.raises(InvalidDataError,
                           match="^seed must be an integer, got "):
            sample_shape_pivot(self.SERIES, 50, seed=seed)

    @pytest.mark.parametrize("name, value, message", [
        ("seed", 2 ** 64 + 7, r"^seed must be in \[0, 2\*\*64\)"),
        ("seed", -1, r"^seed must be in \[0, 2\*\*64\)"),
        ("seed", 1.5, "^seed must be an integer"),
        ("stream_id", 2 ** 64, r"^stream_id must be in \[0, 2\*\*64\)"),
        ("stream_id", -3, r"^stream_id must be in \[0, 2\*\*64\)"),
        ("stream_id", 2.0, "^stream_id must be an integer"),
        ("stream_id", False, "^stream_id must be an integer"),
    ])
    def test_record_draws_refuse_seeds_and_streams_out_of_domain(
            self, name, value, message):
        kwargs = dict(seed=3, stream_id=4)
        kwargs[name] = value
        with pytest.raises(InvalidDataError, match=message):
            exponential_records(4, **kwargs)
        with pytest.raises(InvalidDataError, match=message):
            weibull_records(4, 2.0, 1.5, **kwargs)

    def test_python_and_numpy_integers_in_range_are_one_seed(self):
        for seed, same in ((2 ** 64 - 1, np.uint64(2 ** 64 - 1)),
                           (0, np.int8(0)), (7, np.int64(7))):
            for a, b in zip(self.draws(seed), self.draws(same)):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(
                exponential_records(4, seed, seed).values,
                exponential_records(4, same, same).values)
            assert rng.check_seed(same) == seed
            assert type(rng.check_seed(same)) is int
