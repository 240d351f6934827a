"""Record extraction, series validation, and record generation."""

import numpy as np
import pytest

from weibrec import (
    InvalidDataError,
    RecordSeries,
    exponential_records,
    extract_upper_records,
    weibull_records,
    weibull_cdf,
    WeibullParams,
)
from weibrec.rng import exp_record_matrix


class TestRecordSeries:
    def test_valid_series(self):
        s = RecordSeries(np.array([1.0, 2.0, 5.0]), label="a")
        assert s.n == 2
        assert len(s) == 3
        assert s.label == "a"

    def test_values_are_read_only(self):
        s = RecordSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidDataError, match="strictly increasing"):
            RecordSeries(np.array([1.0, 3.0, 3.0]))

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidDataError, match="positive"):
            RecordSeries(np.array([0.0, 1.0]))

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(InvalidDataError):
            RecordSeries(np.array([]))
        with pytest.raises(InvalidDataError, match="finite"):
            RecordSeries(np.array([1.0, np.inf]))

    def test_single_value_is_valid(self):
        assert RecordSeries(np.array([2.5])).n == 0


class TestExtractUpperRecords:
    def test_insulating_fluid_34kv(self, raw34):
        s = extract_upper_records(raw34)
        assert s.values.tolist() == [0.96, 4.15, 8.01, 31.75, 33.91, 36.71, 72.89]

    def test_insulating_fluid_36kv(self, raw36):
        s = extract_upper_records(raw36)
        assert s.values.tolist() == [1.97, 2.58, 2.71, 25.50]

    def test_first_observation_is_a_record(self):
        s = extract_upper_records([5.0, 1.0, 2.0, 3.0])
        assert s.values.tolist() == [5.0]

    def test_ties_are_not_records(self):
        s = extract_upper_records([1.0, 2.0, 2.0, 2.0, 3.0])
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_increasing_sequence_is_all_records(self):
        s = extract_upper_records([1.0, 2.0, 3.0])
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_non_positive_start(self):
        with pytest.raises(InvalidDataError):
            extract_upper_records([-1.0, 2.0])

    @pytest.mark.parametrize("data, message", [
        ([[1.0, 2.0], [3.0, 4.0]], "raw data must be a non-empty 1-d sequence"),
        ([1.0, np.nan, 3.0], "raw data must be finite"),
    ], ids=["2-d", "nan"])
    def test_rejects_malformed_data(self, data, message):
        with pytest.raises(InvalidDataError) as err:
            extract_upper_records(data)
        assert str(err.value) == message

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            data = rng.uniform(0.1, 10.0, size=rng.integers(1, 40))
            got = extract_upper_records(data).values.tolist()
            best, want = -np.inf, []
            for x in data:
                if x > best:
                    want.append(float(x))
                    best = x
            assert got == want


class TestGeneration:
    def test_exponential_records_are_increasing(self):
        s = exponential_records(10, seed=5)
        assert np.all(np.diff(s.values) > 0)
        assert s.n == 10

    def test_spacings_are_unit_exponential(self):
        # Spacings of unit-exponential records are i.i.d. Exp(1):
        # mean and variance within 3 MC standard errors of 1.
        draws = 100_000
        rows = exp_record_matrix(99, np.arange(draws), 3)
        spacings = np.diff(rows, axis=0).ravel()
        n = spacings.size
        assert abs(spacings.mean() - 1.0) < 3.0 / np.sqrt(n)
        # var(Exp(1)) = 1; se of sample variance uses E[(X-1)^4] - 1 = 8
        assert abs(spacings.var() - 1.0) < 3.0 * np.sqrt(8.0 / n)

    def test_mean_of_third_record_value(self):
        # The (n+1)-th record value is a sum of n+1 unit exponentials,
        # so its mean is n + 1 (3.0 for n = 2).
        draws = 100_000
        rows = exp_record_matrix(7, np.arange(draws), 3)
        last = rows[-1]
        se = last.std() / np.sqrt(draws)
        assert abs(last.mean() - 3.0) < 3.0 * se

    def test_weibull_records_transform(self):
        alpha, beta = 2.5, 0.7
        s_exp = exponential_records(6, seed=11, stream_id=4)
        s_wb = weibull_records(6, alpha, beta, seed=11, stream_id=4)
        np.testing.assert_allclose(
            s_wb.values, alpha * s_exp.values ** (1.0 / beta), rtol=1e-15
        )

    def test_weibull_records_valid_for_varied_params(self):
        rng = np.random.default_rng(42)
        for i in range(25):
            n = int(rng.integers(1, 12))
            alpha = float(rng.uniform(0.05, 20.0))
            beta = float(rng.uniform(0.1, 8.0))
            s = weibull_records(n, alpha, beta, seed=1000 + i)
            assert s.n == n
            assert np.all(np.diff(s.values) > 0)
            assert np.all(s.values > 0)

    @pytest.mark.parametrize("alpha, beta, problem", [
        (1.0, 1e20, "round distinct records to ties"),
        (1e308, 0.5, "take the records out of the float range"),
        (1e-300, 0.01, "take the records out of the float range"),
    ])
    def test_degenerate_transform_names_the_parameters(self, alpha, beta,
                                                       problem):
        # Valid, finite parameters whose records round to ties, overflow
        # or underflow; RuntimeWarnings are errors in this suite.
        with pytest.raises(InvalidDataError) as err:
            weibull_records(3, alpha, beta, seed=0)
        assert str(err.value) == (
            f"alpha = {alpha!r} and beta = {beta!r} {problem}")

    def test_first_record_follows_parent_distribution(self):
        # The first record is just the first observation, so across
        # streams it follows the parent Weibull law; KS test at 1%.
        alpha, beta, draws = 1.7, 0.8, 5000
        firsts = np.sort([
            weibull_records(1, alpha, beta, seed=3, stream_id=i).values[0]
            for i in range(draws)
        ])
        grid = weibull_cdf(firsts, WeibullParams(alpha=alpha, beta=beta))
        ranks = np.arange(1, draws + 1) / draws
        ks = np.max(np.maximum(np.abs(grid - ranks),
                               np.abs(grid - (ranks - 1.0 / draws))))
        assert ks < 1.628 / np.sqrt(draws)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidDataError):
            weibull_records(3, -1.0, 2.0, seed=0)
        with pytest.raises(InvalidDataError):
            weibull_records(3, 1.0, 0.0, seed=0)
        with pytest.raises(InvalidDataError):
            exponential_records(-1, seed=0)
        with pytest.raises(InvalidDataError, match="n must be non-negative"):
            weibull_records(-1, 1.0, 1.0, seed=0)
        for alpha, beta, name in ((np.inf, 1.0, "alpha"),
                                  (np.nan, 1.0, "alpha"),
                                  (1.0, np.inf, "beta"),
                                  (1.0, np.nan, "beta")):
            with pytest.raises(InvalidDataError,
                               match=rf"^{name} must be positive and finite"):
                weibull_records(3, alpha, beta, seed=0)
