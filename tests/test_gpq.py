"""Pivotal statistic, root solving, sampling, intervals, p-values."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from weibrec import (
    BracketError,
    InsufficientDrawsError,
    InvalidDataError,
    PivotalDraws,
    RecordSeries,
    am_gm_ratio,
    exponential_records,
    p_value_one_sided,
    p_value_two_sided,
    percentile_interval,
    percentile_ranks,
    pivotal_equation,
    sample_pivotal,
    sample_shape_pivot,
    solve_shape_pivot,
    weibull_records,
)
from weibrec import gpq, rng
from weibrec.rng import derive_seed_array, exp_record_matrix


def k2_root(values, exp_rows):
    """Closed-form pivot root for two records.

    With two records log W(beta) = log cosh(beta gap), so the root of
    log W(beta) = t is acosh(exp(t)) / gap, written here without
    cancellation for small t.  The gap is half of log(r1 / r0), taken
    as log1p of the exact difference r1 - r0 when r1 < 2 r0, so records
    whose float logarithms tie keep their spread.
    """
    r0, r1 = values
    if r1 < 2.0 * r0:
        gap = 0.5 * math.log1p((r1 - r0) / r0)
    else:
        gap = 0.5 * (math.log(r1) - math.log(r0))
    t = np.log(np.mean(exp_rows, axis=-1)) - np.mean(np.log(exp_rows), axis=-1)
    x = np.expm1(t)
    return np.log1p(x + np.sqrt(x * (x + 2.0))) / gap


def make_paired(exp_series: RecordSeries, alpha: float, beta0: float) -> RecordSeries:
    """Observed records whose pivot root is beta0 by construction."""
    return RecordSeries(alpha * exp_series.values ** (1.0 / beta0))


class TestAmGmRatio:
    def test_hand_values_on_two_point_series(self, tiny_series):
        want = (1.0 + math.e) / (2.0 * math.sqrt(math.e))
        assert am_gm_ratio(tiny_series, 1.0) == pytest.approx(want, rel=1e-12)
        assert am_gm_ratio(tiny_series, 2.0) == pytest.approx(math.cosh(1.0), rel=1e-12)

    def test_small_beta_limit_is_one(self, tiny_series):
        # true value is 1 + O(beta^2), below float resolution at 1e-8
        w = am_gm_ratio(tiny_series, 1e-8)
        assert 1.0 <= w < 1.0 + 1e-6

    def test_always_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            values = np.cumsum(rng.uniform(0.05, 3.0, size=rng.integers(2, 10)))
            s = RecordSeries(values)
            for beta in rng.uniform(0.01, 20.0, size=5):
                assert am_gm_ratio(s, float(beta)) >= 1.0

    def test_strictly_increasing_in_beta(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            values = np.cumsum(rng.uniform(0.05, 5.0, size=rng.integers(2, 12)))
            s = RecordSeries(values)
            grid = np.sort(rng.uniform(1e-3, 50.0, size=12))
            w = [am_gm_ratio(s, float(b)) for b in grid]
            assert np.all(np.diff(w) > 0)

    def test_scale_invariant(self, tiny_series):
        scaled = RecordSeries(tiny_series.values * 10.0)
        for beta in (0.3, 1.0, 4.0):
            assert am_gm_ratio(scaled, beta) == pytest.approx(
                am_gm_ratio(tiny_series, beta), rel=1e-14)

    def test_rejects_bad_input(self, tiny_series):
        with pytest.raises(InvalidDataError):
            am_gm_ratio(tiny_series, 0.0)
        with pytest.raises(InvalidDataError):
            am_gm_ratio(RecordSeries(np.array([2.0])), 1.0)


class TestPivotalEquation:
    def test_negative_in_small_beta_limit(self):
        exp_s = exponential_records(5, seed=21)
        obs = weibull_records(5, 2.0, 1.5, seed=22)
        assert pivotal_equation(obs, exp_s, 1e-8) < 0.0

    def test_zero_at_construction_point(self):
        exp_s = exponential_records(6, seed=23)
        obs = make_paired(exp_s, alpha=1.0, beta0=1.0)
        # both sides are the identical expression here
        assert pivotal_equation(obs, exp_s, 1.0) == 0.0
        obs2 = make_paired(exp_s, alpha=3.0, beta0=2.0)
        assert abs(pivotal_equation(obs2, exp_s, 2.0)) < 1e-12

    def test_single_sign_change_on_dense_grid(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            exp_s = exponential_records(4, seed=31 + seed)
            obs = weibull_records(4, float(rng.uniform(0.5, 3)),
                                  float(rng.uniform(0.3, 4)), seed=41 + seed)
            grid = np.logspace(-8, 6, 10_000)
            signs = np.sign([pivotal_equation(obs, exp_s, float(b)) for b in grid])
            changes = np.count_nonzero(np.diff(signs[signs != 0]))
            assert changes == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidDataError, match="record counts differ"):
            pivotal_equation(exponential_records(3, seed=1),
                             exponential_records(4, seed=2), 1.0)


class TestSolveShapePivot:
    def test_pairing_oracle_sample(self):
        rng = np.random.default_rng(11)
        for i in range(30):
            n = int(rng.integers(1, 15))
            alpha = float(rng.uniform(0.05, 50.0))
            beta0 = float(rng.uniform(0.05, 20.0))
            exp_s = exponential_records(n, seed=500 + i)
            obs = make_paired(exp_s, alpha, beta0)
            t = solve_shape_pivot(obs, exp_s)
            assert abs(t - beta0) <= 1e-9 * max(1.0, beta0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        for i in range(20):
            n = int(rng.integers(1, 12))
            exp_s = exponential_records(n, seed=700 + i)
            obs = weibull_records(n, 1.0, float(rng.uniform(0.2, 5.0)),
                                  seed=800 + i)
            scaled = RecordSeries(obs.values * 10.0)
            t1 = solve_shape_pivot(obs, exp_s)
            t2 = solve_shape_pivot(scaled, exp_s)
            assert abs(t1 - t2) <= 1e-12 * max(1.0, t1)

    def test_agrees_with_brentq_on_direct_formula(self):
        rng = np.random.default_rng(19)
        for i in range(10):
            n = int(rng.integers(1, 10))
            exp_s = exponential_records(n, seed=900 + i)
            obs = weibull_records(n, float(rng.uniform(0.5, 4.0)),
                                  float(rng.uniform(0.3, 4.0)), seed=950 + i)
            w_star = exp_s.values.mean() / math.exp(np.mean(np.log(exp_s.values)))

            def g(beta):
                powered = obs.values ** beta
                gm = math.exp(beta * np.mean(np.log(obs.values)))
                return powered.mean() / gm - w_star

            # direct-formula evaluation overflows for large beta, so the
            # oracle doubles its own bracket only as far as it needs
            hi = 8.0
            while g(hi) <= 0.0 and hi < 256.0:
                hi *= 2.0
            want = brentq(g, 1e-6, hi, xtol=1e-13, rtol=1e-14)
            got = solve_shape_pivot(obs, exp_s)
            assert got == pytest.approx(want, rel=1e-9)

    def test_upper_bracket_failure(self):
        # Regression: the root (about 2.3e9) lay above the old bracket cap.
        observed = RecordSeries(np.array([1.0, 1.0 + 1e-9]))
        exp_s = RecordSeries(np.array([1.0, 10.0]))
        got = solve_shape_pivot(observed, exp_s)
        want = float(k2_root(observed.values, exp_s.values))
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(2.302585e9, rel=1e-6)

    def test_lower_bracket_failure(self):
        # Regression: the root (about 7.2e-13) lay below the old lower
        # bracket endpoint 1e-8.
        observed = RecordSeries(np.array([1e-300, 1e300]))
        exp_s = RecordSeries(np.array([1.0, 1.0 + 1e-9]))
        got = solve_shape_pivot(observed, exp_s)
        want = float(k2_root(observed.values, exp_s.values))
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(7.238240e-13, rel=1e-6)

    @pytest.mark.parametrize("values", [
        [1.0, 3.0], [1e-300, 1e300], [1.0, 1.0 + 1e-9],
        [2.0, 2.0 * (1.0 + 1e-12)], [5.0, 5.000001],
        [3.0, np.nextafter(3.0, np.inf)],
        [math.exp(5.0), np.nextafter(math.exp(5.0), np.inf)],
        [1e300, np.nextafter(1e300, np.inf)],
    ])
    def test_two_record_closed_form(self, values):
        m, seed = 20_000, 5
        series = RecordSeries(np.array(values))
        got = sample_shape_pivot(series, m, seed=seed).values
        exp_rows = exp_record_matrix(seed, 2 * np.arange(m, dtype=np.uint64), 2)
        want = k2_root(series.values, exp_rows)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


class TestRecordOrderDeterminism:
    """Sums over records must not depend on how many entries share a batch.

    numpy sums a (k, 1) array pairwise once k >= 8 but a (k, n) array row
    by row, so these cases straddle that threshold.
    """

    KS = (2, 4, 7, 8, 9, 15, 16)

    @staticmethod
    def _series(k, count, seed):
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.uniform(0.01, 3.0, size=(count, k)), axis=-1)

    @pytest.mark.parametrize("k", KS)
    def test_batch_solve_equals_single_solves(self, k):
        d, gap = gpq._prep_log_records(self._series(k, 6, k))
        target = gpq._exp_log_am_gm(
            exp_record_matrix(3, np.arange(50, dtype=np.uint64), k))
        batch = gpq._solve_roots(d[:, None, :], gap[:, None], k, target)
        assert batch.shape == (6, 50)
        for i in range(6):
            for j in range(50):
                single = gpq._solve_roots(d[i], gap[i], k, target[j])
                assert single == batch[i, j], (i, j)

    @pytest.mark.parametrize("k", KS)
    def test_row_statistics_do_not_depend_on_batch(self, k):
        rows = exp_record_matrix(4, np.arange(40, dtype=np.uint64), k)
        target = gpq._exp_log_am_gm(rows)
        _, gap = gpq._prep_log_records(rows)
        for i in range(rows.shape[0]):
            assert gpq._exp_log_am_gm(rows[i]) == target[i]
            assert gpq._exp_log_am_gm(rows[i:i + 1])[0] == target[i]
            assert gpq._prep_log_records(rows[i])[1] == gap[i]

    @pytest.mark.parametrize("k", (4, 7, 9, 15))
    def test_draws_are_prefixes_across_chunk_edges(self, k):
        series = RecordSeries(self._series(k, 1, 100 + k)[0])
        full = sample_shape_pivot(series, 20_000, seed=12).values
        for m in (1, 100, 8191, 8192, 8193):
            part = sample_shape_pivot(series, m, seed=12).values
            np.testing.assert_array_equal(part, full[:m])
        threaded = sample_shape_pivot(series, 20_000, seed=12, threads=3)
        np.testing.assert_array_equal(threaded.values, full)


class TestStreamedTargets:
    """Targets drawn one record at a time are those of the record matrix."""

    @pytest.mark.parametrize("k", (2, 4, 7, 8, 9, 15, 16, 40))
    def test_equals_matrix_route_bit_for_bit(self, k):
        ids = 2 * np.arange(300, dtype=np.uint64) + np.uint64(1)
        seeds = derive_seed_array(k, np.arange(5, dtype=np.uint64))[:, None]
        for seed, stream_ids in ((k, ids), (seeds, ids[:200])):
            got = gpq._exp_targets(seed, stream_ids, k)
            want = gpq._exp_log_am_gm(exp_record_matrix(seed, stream_ids, k))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_footprint_does_not_grow_with_k(self):
        # Measured at 7 float64 rows of the 8192 streams; the record
        # matrix route took 46 at k = 15.
        ids = 2 * np.arange(8192, dtype=np.uint64)
        tracemalloc.start()
        try:
            gpq._exp_targets(42, ids, 15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * ids.size * 8, peak

    def test_sampling_never_builds_the_record_matrix(self, records34,
                                                     records36, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("pivot draws built the record matrix")

        for module in (rng, gpq):
            monkeypatch.setattr(module, "exp_record_matrix", no_matrix)
        draws = sample_pivotal(records34, records36, "ratio", 9000, seed=2,
                               threads=2)
        assert draws.m == 9000


class TestNewtonStart:
    """The per-series start table and the quadratic-convergence stop."""

    @staticmethod
    def _k2_root(gap, target):
        x = np.expm1(target)
        return np.log1p(x + x * np.sqrt(1.0 + 2.0 / x)) / gap

    @pytest.mark.parametrize("values", [[1.0, 3.0], [2.0, 2.0 * (1.0 + 1e-12)],
                                        [1e-300, 1e300]])
    def test_k2_closed_form_outside_the_table(self, values):
        d, gap = gpq._prep_log_records(np.array(values))
        _, h = gpq._start_table(d, np.asarray(gap), 2)
        # Below node 0's h the start is node 0 or beta0; above the last
        # node's h no node reaches the target and the start is beta0.
        target = np.array([h[0] * 1e-3, h[0] * 0.5, h[-1] * 1.5, h[-1] + 300.0])
        assert target[1] < h[0] < h[-1] < target[2]
        got = gpq._solve_roots(d, gap, 2, target)
        np.testing.assert_allclose(got, self._k2_root(gap, target),
                                   rtol=1e-10, atol=0.0)

    def test_nodes_past_the_float_range(self):
        # A log gap near 1e-307 (run_cell at beta1 = 1e307) makes the
        # upper nodes u / gap overflow to inf with a nan h, which must
        # raise no warning and leave the roots scaling with the gap.
        k, scale = 4, 1e307
        d, gap = gpq._prep_log_records(
            exp_record_matrix(31, np.arange(5, dtype=np.uint64), k))
        target = gpq._exp_log_am_gm(
            exp_record_matrix(32, np.arange(200, dtype=np.uint64), k))
        nodes, _ = gpq._start_table(np.moveaxis(d, -1, 0) / scale, gap / scale, k)
        assert np.any(np.isinf(nodes))
        got = gpq._solve_roots(d[:, None, :] / scale, gap[:, None] / scale, k,
                               target)
        want = gpq._solve_roots(d[:, None, :], gap[:, None], k, target)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got / scale, want, rtol=1e-12, atol=0.0)

    def test_table_is_increasing(self):
        for k in (2, 4, 8, 15):
            rows = exp_record_matrix(9, np.arange(20, dtype=np.uint64), k)
            d, gap = gpq._prep_log_records(rows)
            _, h = gpq._start_table(np.moveaxis(d, -1, 0), gap, k)
            assert np.all(np.diff(h, axis=-1) > 0.0)

    @pytest.mark.parametrize("k", (2, 4, 8, 15))
    def test_run_cell_shaped_batch_equals_row_solves(self, k):
        reps, m, beta = 7, 300, 0.7
        d, gap = gpq._prep_log_records(
            exp_record_matrix(21, np.arange(reps, dtype=np.uint64), k))
        target = gpq._exp_log_am_gm(exp_record_matrix(
            22, np.arange(reps * m, dtype=np.uint64), k)).reshape(reps, m)
        batch = gpq._solve_roots(d[:, None, :] / beta, gap[:, None] / beta,
                                 k, target)
        assert batch.shape == (reps, m)
        for i in range(reps):
            row = gpq._solve_roots(d[i] / beta, gap[i] / beta, k, target[i])
            np.testing.assert_array_equal(row, batch[i])

    def test_chunk_takes_at_most_five_passes(self, records34, monkeypatch):
        real, calls = gpq._record_sum, []
        monkeypatch.setattr(gpq, "_record_sum",
                            lambda a: calls.append(a.shape) or real(a))
        d, gap = gpq._prep_log_records(records34.values)
        k = len(records34)
        target = gpq._exp_log_am_gm(
            exp_record_matrix(42, 2 * np.arange(8192, dtype=np.uint64), k))
        calls.clear()
        gpq._solve_roots(d, gap, k, target)
        # One sum builds the start table; each Newton pass takes two.
        passes = (len(calls) - 1) // 2
        assert 1 <= passes <= 5, passes


class TestSamplePivotal:
    def test_shared_streams_identity(self, records34):
        draws = sample_pivotal(records34, records34, "ratio", 64, seed=5,
                               shared_streams=True)
        assert np.all(draws.values == 1.0)
        diffs = sample_pivotal(records34, records34, "difference", 64, seed=5,
                               shared_streams=True)
        assert np.all(diffs.values == 0.0)

    def test_thread_count_does_not_change_draws(self, records34, records36):
        m = 20_000  # spans multiple internal chunks
        serial = sample_pivotal(records34, records36, "ratio", m, seed=77)
        for threads in (2, 5):
            threaded = sample_pivotal(records34, records36, "ratio", m,
                                      seed=77, threads=threads)
            np.testing.assert_array_equal(serial.values, threaded.values)

    def test_seed_changes_draws(self, records34, records36):
        a = sample_pivotal(records34, records36, "ratio", 500, seed=1)
        b = sample_pivotal(records34, records36, "ratio", 500, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_ratio_and_difference_are_consistent(self, records34, records36):
        r = sample_pivotal(records34, records36, "ratio", 500, seed=3)
        d = sample_pivotal(records34, records36, "difference", 500, seed=3)
        # same streams underlie both, so signs must agree
        np.testing.assert_array_equal(r.values > 1.0, d.values > 0.0)

    def test_median_against_straight_line_reimplementation(self):
        # Independent implementation: numpy Generator randomness and
        # scipy brentq on the direct-formula statistic, no substreams.
        beta = 2.0
        s1 = weibull_records(7, 1.0, beta, seed=101)
        s2 = weibull_records(7, 1.0, beta, seed=102)
        m_main = 4000
        main = sample_pivotal(s1, s2, "ratio", m_main, seed=313)

        rng = np.random.default_rng(424)
        m_oracle = 4000
        log_gm1 = np.mean(np.log(s1.values))
        log_gm2 = np.mean(np.log(s2.values))

        def root(series, log_gm):
            exp_rec = np.cumsum(rng.standard_exponential(len(series)))
            w_star = exp_rec.mean() / math.exp(np.mean(np.log(exp_rec)))

            def g(b):
                return (series.values ** b).mean() / math.exp(b * log_gm) - w_star

            hi = 8.0
            while g(hi) <= 0.0 and hi < 256.0:
                hi *= 2.0
            return brentq(g, 1e-6, hi)

        oracle = np.array([
            root(s1, log_gm1) / root(s2, log_gm2) for _ in range(m_oracle)
        ])
        med = np.median(oracle)
        frac_below = np.mean(main.values < med)
        tol = 3.0 * math.sqrt(0.25 / m_main + 0.25 / m_oracle)
        assert abs(frac_below - 0.5) < tol

    def test_pivot_distribution_ignores_scale(self):
        # T is scale invariant, so the same exponential substreams give
        # (numerically) identical draws whatever the data scale.
        base = None
        for alpha in (0.1, 1.0, 10.0):
            s1 = weibull_records(5, 1.0, 1.4, seed=61)
            s2 = weibull_records(4, 1.0, 2.2, seed=62)
            s1 = RecordSeries(s1.values * alpha)
            s2 = RecordSeries(s2.values * alpha)
            draws = sample_pivotal(s1, s2, "ratio", 800, seed=99)
            if base is None:
                base = draws.values
            else:
                np.testing.assert_allclose(draws.values, base, rtol=1e-12)

    def test_rejects_bad_requests(self, records34, records36):
        with pytest.raises(InvalidDataError):
            sample_pivotal(records34, records36, "product", 10, seed=0)
        with pytest.raises(InvalidDataError):
            sample_pivotal(records34, records36, "ratio", 0, seed=0)
        one = RecordSeries(np.array([4.0]))
        with pytest.raises(InvalidDataError):
            sample_pivotal(records34, one, "ratio", 10, seed=0)

    def test_bracket_failure_reports_replicate(self, tie_stream):
        # replicate 17 of population 2 reads stream 2 * 17 + 1
        tie_stream(gpq, 35)
        bad = RecordSeries(np.array([1.0, 3.0]))
        other = RecordSeries(np.array([1.0, 3.0, 7.0]))
        with pytest.raises(BracketError) as err:
            sample_pivotal(other, bad, "ratio", 50, seed=8)
        assert err.value.replicate == 17
        assert "replicate 17" in str(err.value)

    def test_single_shape_pivot(self, records34):
        draws = sample_shape_pivot(records34, 600, seed=44)
        assert draws.kind == "single-shape"
        assert np.all(draws.values > 0)
        same = sample_shape_pivot(records34, 600, seed=44, threads=3)
        np.testing.assert_array_equal(draws.values, same.values)
        ci = percentile_interval(draws, 0.1)
        assert ci.estimand == "beta"
        assert ci.lower < 0.5990 < ci.upper


class TestPivotalDraws:
    def test_invariants(self):
        with pytest.raises(InvalidDataError):
            PivotalDraws(values=np.array([1.0, -2.0]), kind="ratio", m=2, seed=0)
        with pytest.raises(InvalidDataError):
            PivotalDraws(values=np.array([1.0, np.nan]), kind="difference",
                         m=2, seed=0)
        with pytest.raises(InvalidDataError):
            PivotalDraws(values=np.array([1.0]), kind="typo", m=1, seed=0)
        draws = PivotalDraws(values=np.array([1.0, -2.0]), kind="difference",
                             m=2, seed=0)
        with pytest.raises(ValueError):
            draws.values[0] = 0.0


class TestPercentileInterval:
    def test_fixture_1_to_100(self):
        draws = PivotalDraws(values=np.arange(1.0, 101.0), kind="ratio",
                             m=100, seed=0)
        ci = percentile_interval(draws, 0.10)
        assert (ci.lower, ci.upper) == (5.0, 95.0)
        assert ci.level == pytest.approx(0.90)

    def test_rank_snap_at_canonical_sizes(self):
        assert percentile_ranks(100_000, 0.05) == (2500, 97500)
        assert percentile_ranks(10_000, 0.05) == (250, 9750)
        assert percentile_ranks(2000, 0.05) == (50, 1950)

    def test_non_integral_ranks_round_inward(self):
        # gamma m / 2 = 2.5 -> lower rank 3; (1 - gamma/2) m = 97.5 -> 97
        assert percentile_ranks(100, 0.05) == (3, 97)

    def test_insufficient_draws(self):
        draws = PivotalDraws(values=np.arange(1.0, 11.0), kind="ratio",
                             m=10, seed=0)
        with pytest.raises(InsufficientDrawsError):
            percentile_interval(draws, 0.1)

    def test_equivariance_under_increasing_map(self, records34, records36):
        draws = sample_pivotal(records34, records36, "ratio", 400, seed=6)
        ci = percentile_interval(draws, 0.05)
        mapped = PivotalDraws(values=np.log(draws.values), kind="difference",
                              m=draws.m, seed=draws.seed)
        ci_mapped = percentile_interval(mapped, 0.05)
        assert ci_mapped.lower == math.log(ci.lower)
        assert ci_mapped.upper == math.log(ci.upper)

    def test_gamma_validation(self, records34, records36):
        draws = sample_pivotal(records34, records36, "ratio", 400, seed=6)
        for gamma in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(InvalidDataError):
                percentile_interval(draws, gamma)


class TestPValues:
    @staticmethod
    def _draws(values):
        return PivotalDraws(values=np.asarray(values, dtype=float),
                            kind="ratio", m=len(values), seed=0)

    def test_extremes(self):
        draws = self._draws([1.0, 2.0, 3.0, 4.0])
        assert p_value_one_sided(draws, 0.5).p_value == 0.0
        assert p_value_one_sided(draws, 9.0).p_value == 1.0
        assert p_value_two_sided(draws, 9.0).p_value == 0.0
        assert p_value_two_sided(draws, 0.5).p_value == 0.0

    def test_median_behavior(self):
        draws = self._draws([1.0, 2.0, 3.0, 4.0])
        assert p_value_one_sided(draws, 2.5).p_value == 0.5
        assert p_value_two_sided(draws, 2.5).p_value == 1.0

    def test_two_sided_maximal_at_median(self, records34, records36):
        draws = sample_pivotal(records34, records36, "ratio", 501, seed=12)
        med = float(np.median(draws.values))
        p_med = p_value_two_sided(draws, med).p_value
        for pi0 in np.quantile(draws.values, [0.1, 0.3, 0.7, 0.9]):
            assert p_value_two_sided(draws, float(pi0)).p_value <= p_med

    def test_one_sided_pair_sums_to_one_without_ties(self):
        draws = self._draws([0.5, 1.5, 2.5, 3.5, 4.5])
        pi0 = 2.0
        below = p_value_one_sided(draws, pi0).p_value
        above = np.mean(draws.values > pi0)
        assert below + above == 1.0

    def test_ties_count_to_neither_side(self):
        draws = self._draws([1.0, 2.0, 2.0, 3.0])
        assert p_value_one_sided(draws, 2.0).p_value == 0.25
        assert p_value_two_sided(draws, 2.0).p_value == 0.5

    def test_monte_carlo_error(self):
        draws = self._draws([1.0, 2.0, 3.0, 4.0])
        # p = 1/2 of 4 draws: sqrt(1/2 * 1/2 / 4) = 1/4.
        assert p_value_one_sided(draws, 2.5).mc_se == 0.25
        # One draw of 4 below 1.5, so q = 1/4 and p = 1/2; the error is
        # that of 2 q: 2 sqrt(1/4 * 3/4 / 4) = sqrt(3) / 4.
        two = p_value_two_sided(draws, 1.5)
        assert two.p_value == 0.5
        assert two.mc_se == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)
        assert p_value_two_sided(draws, 9.0).mc_se == 0.0

    def test_metadata(self):
        draws = self._draws([1.0, 2.0])
        res = p_value_two_sided(draws, 1.5)
        assert res.sidedness == "two-sided"
        assert res.m == 2
        one = p_value_one_sided(draws, 1.5)
        assert one.sidedness == "one-sided-greater"
