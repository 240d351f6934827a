"""Pivotal statistic, root solving, sampling, intervals, p-values."""

import copy
import math
import pickle
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import ks_2samp, kstest

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
from weibrec.datasets import INSULATING_FLUID
from weibrec.records import extract_upper_records
from weibrec.rng import derive_seed_array, exp_record_matrix

from conftest import searchsorted_index, target_rows
from test_rng import stream_uniforms


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
    t = np.log(np.mean(exp_rows, axis=0)) - np.mean(np.log(exp_rows), axis=0)
    x = np.expm1(t)
    return np.log1p(x + np.sqrt(x * (x + 2.0))) / gap


def make_paired(exp_series: RecordSeries, alpha: float, beta0: float) -> RecordSeries:
    """Observed records whose pivot root is beta0 by construction."""
    return RecordSeries(alpha * exp_series.values ** (1.0 / beta0))


def matrix_log_am_gm(rows):
    """Reference log W_exp(1) of record-major ``rows``: the matrix form,
    each mean taken in ``_record_sum`` order."""
    k = len(rows)
    return np.log(gpq._record_sum(rows) / k) - gpq._record_sum(np.log(rows)) / k


@st.composite
def record_vectors(draw):
    """2 to 30 increasing records, spread within 1e-300..1e300 or near-tied."""
    k = draw(st.integers(2, 30))
    if draw(st.booleans()):
        lo = draw(st.floats(-300.0, 300.0))
        exps = st.floats(lo, draw(st.floats(lo, 300.0)))
        values = np.sort(10.0 ** np.array(
            draw(st.lists(exps, min_size=k, max_size=k))))
    else:
        ratios = 10.0 ** np.array(draw(st.lists(
            st.floats(-15.0, -6.0), min_size=k, max_size=k)))
        values = 10.0 ** draw(st.floats(-300.0, 299.0)) * np.cumprod(1.0 + ratios)
    assume(np.all(np.diff(values) > 0.0))
    return values


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

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_rejects_a_shape_that_is_not_finite(self, tiny_series, beta):
        # An infinite shape formed inf * 0.0 at the largest record, so
        # both read nan.
        message = "^beta must be positive and finite$"
        with pytest.raises(InvalidDataError, match=message):
            am_gm_ratio(tiny_series, beta)
        with pytest.raises(InvalidDataError, match=message):
            pivotal_equation(tiny_series,
                             exponential_records(tiny_series.n, seed=1), beta)

    @settings(max_examples=300, deadline=None)
    @given(values=record_vectors(),
           beta=st.one_of(st.sampled_from([1e-8, 1e-5]),
                          st.floats(-8.0, math.log10(50.0)).map(
                              lambda e: 10.0 ** e)))
    def test_log_am_gm_against_mpmath(self, values, beta):
        # The error is measured in units of eps * beta * spread: log W sums
        # terms of size beta * gap, and where a record lies below half the
        # largest, d = log(r / max r) carries the rounding of log r, about
        # eps |log max r|, so spread adds that.  Measured at most 4.2 over
        # 6,000 random cases; the bound 16 is a 4x margin.  The log-sum-exp
        # form this replaced reached 6e5 to 1e16 such units on those cases.
        with mpmath.workdps(120):
            logs = [mpmath.log(mpmath.mpf(float(v))) for v in values]
            d = [x - max(logs) for x in logs]
            b, k = mpmath.mpf(beta), len(d)
            exact = (mpmath.log(mpmath.fsum(mpmath.exp(b * x) for x in d) / k)
                     - b * mpmath.fsum(d) / k)
            spread = -mpmath.fsum(d) / k
            if values[0] < 0.5 * values[-1]:
                spread += abs(max(logs))
            got = mpmath.mpf(float(gpq._log_am_gm(values, beta)))
            err = float(abs(got - exact) / (2.0 ** -52 * b * spread))
        assert err <= 16.0, err

    @pytest.mark.parametrize("k", (2, 4, 7, 8, 9, 15, 30))
    def test_log_am_gm_is_the_solvers_log_w(self, k):
        # One spelling of log W: bit for bit the start table's h at its own
        # nodes, whether beta comes as an array or one value at a time.
        rng = np.random.default_rng(k)
        values = np.cumsum(rng.uniform(0.01, 3.0, k)) * 10.0 ** rng.uniform(-9, 9)
        d, gap = gpq._prep_log_records(values[:, None])
        h = gpq._start_table(d, gap).h[0]
        betas = gpq._START_NODES / gap[0]
        assert gpq._log_am_gm(values, betas).tobytes() == h.tobytes()
        assert all(gpq._log_am_gm(values, b) == x for b, x in zip(betas, h))


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
        exp_rows = target_rows(seed, 2 * np.arange(m, dtype=np.uint64), 2)
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
        d, gap = gpq._prep_log_records(self._series(k, 6, k).T)
        target = gpq._exp_log_am_gm(
            exp_record_matrix(3, np.arange(50, dtype=np.uint64), k))
        batch = gpq._solve_roots(gpq._start_table(d, gap),
                                 np.broadcast_to(target, (6, 50)))
        assert batch.shape == (6, 50)
        for i in range(6):
            for j in range(50):
                single = gpq._solve_roots(
                    gpq._start_table(d[:, i:i + 1], gap[i:i + 1]),
                    target[None, j:j + 1])
                assert single[0, 0] == batch[i, j], (i, j)

    @pytest.mark.parametrize("k", KS)
    def test_row_statistics_do_not_depend_on_batch(self, k):
        rows = exp_record_matrix(4, np.arange(40, dtype=np.uint64), k)
        target = gpq._exp_log_am_gm(rows)
        _, gap = gpq._prep_log_records(rows)
        for i in range(rows.shape[1]):
            assert gpq._exp_log_am_gm(rows[:, i]) == target[i]
            assert gpq._exp_log_am_gm(rows[:, i:i + 1])[0] == target[i]
            assert gpq._prep_log_records(rows[:, i])[1] == gap[i]

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
    """Targets drawn one uniform at a time are those of the stream matrix
    ``(1, U_1, ..., U_{k-1})``."""

    @pytest.mark.parametrize("k", (2, 4, 7, 8, 9, 15, 16, 40))
    def test_equals_matrix_route_bit_for_bit(self, k):
        ids = 2 * np.arange(300, dtype=np.uint64) + np.uint64(1)
        seeds = derive_seed_array(k, np.arange(5, dtype=np.uint64))[:, None]
        for seed, stream_ids in ((k, ids), (seeds, ids[:200])):
            got = gpq._exp_targets(seed, stream_ids, k)
            rows = target_rows(seed, stream_ids, k)
            for want in (gpq._exp_log_am_gm(rows), matrix_log_am_gm(rows)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("reps, k", ((32, 4), (8, 15)))
    def test_run_cell_shaped_batch_bit_for_bit(self, reps, k):
        # The shape of a run_cell batch at M = 2000: each per-value array
        # is 512 or 128 KB, and the one that uniforms yields is reused.
        seeds = derive_seed_array(reps, np.arange(reps, dtype=np.uint64))[:, None]
        ids = 2 * np.arange(2000, dtype=np.uint64)
        got = gpq._exp_targets(seeds, ids, k)
        # The stream oracle, read word by word.
        oracle = stream_uniforms(seeds[..., None], ids[:, None], 0, k - 1)
        rows = np.concatenate([np.ones((1, reps, 2000)),
                               oracle.transpose(2, 0, 1)])
        np.testing.assert_array_equal(target_rows(seeds, ids, k), rows)
        for want in (gpq._exp_log_am_gm(target_rows(seeds, ids, k)),
                     matrix_log_am_gm(rows)):
            assert got.shape == want.shape == (reps, 2000)
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


class TestTargetLaw:
    """Targets from k - 1 uniforms have the law of targets from k records."""

    N = 200_000

    def test_k2_matches_the_exact_law(self):
        # With two values the target is T(U) = log((1 + U) / 2) - log(U) / 2,
        # decreasing in U, so P(T <= t) = 1 - u(t) with T(u(t)) = t:
        # sqrt(u) = e^t - sqrt(e^(2t) - 1).
        t = gpq._exp_targets(2101, np.arange(self.N, dtype=np.uint64), 2)

        def cdf(t):
            return 1.0 - (np.exp(t) - np.sqrt(np.expm1(2.0 * t))) ** 2

        assert kstest(t, cdf).pvalue > 1e-3

    @pytest.mark.parametrize("k", (4, 8, 15))
    def test_matches_the_record_recipe(self, k):
        ids = np.arange(self.N, dtype=np.uint64)
        t = gpq._exp_targets(2100 + k, ids, k)
        records = gpq._exp_log_am_gm(exp_record_matrix(3100 + k, ids, k))
        assert ks_2samp(t, records).pvalue > 1e-3

    def test_k2_target_is_positive_below_the_top_three_words(self):
        # The top three words give the uniforms 1 - 2**-52 and 1.0 (see
        # test_rng); the 10**5 words below them give positive targets, and
        # a target only grows as U falls further below 1.
        words = np.arange(2 ** 53 - 100_003, 2 ** 53 - 3, dtype=np.uint64)
        u = rng._unit_floats(words << np.uint64(11), np.empty(words.size))
        assert np.all(gpq._exp_log_am_gm(np.stack([np.ones_like(u), u])) > 0.0)


class TestNewtonStart:
    """The per-series start table and the quadratic-convergence stop."""

    @staticmethod
    def _k2_root(gap, target):
        x = np.expm1(target)
        return np.log1p(x + x * np.sqrt(1.0 + 2.0 / x)) / gap

    @pytest.mark.parametrize("values", [[1.0, 3.0], [2.0, 2.0 * (1.0 + 1e-12)],
                                        [1e-300, 1e300]])
    def test_k2_closed_form_outside_the_table(self, values):
        d, gap = gpq._prep_log_records(np.array(values)[:, None])
        h = gpq._start_table(d, gap).h[0]
        # Below node 0's h the start is node 0 or beta0; above the last
        # node's h no node reaches the target and the start is beta0.
        target = np.array([h[0] * 1e-3, h[0] * 0.5, h[-1] * 1.5, h[-1] + 300.0])
        assert target[1] < h[0] < h[-1] < target[2]
        got = gpq._solve_roots(gpq._start_table(d, gap), target[None])[0]
        np.testing.assert_allclose(got, self._k2_root(gap, target),
                                   rtol=1e-10, atol=0.0)

    def test_table_is_increasing(self):
        for k in (2, 4, 8, 15):
            rows = exp_record_matrix(9, np.arange(20, dtype=np.uint64), k)
            d, gap = gpq._prep_log_records(rows)
            h = gpq._start_table(d, gap).h
            assert np.all(np.diff(h, axis=-1) > 0.0)

    @pytest.mark.parametrize("k", (2, 4, 8, 15))
    def test_run_cell_shaped_batch_equals_row_solves(self, k):
        reps, m, beta = 7, 300, 0.7
        d, gap = gpq._prep_log_records(
            exp_record_matrix(21, np.arange(reps, dtype=np.uint64), k))
        target = gpq._exp_log_am_gm(exp_record_matrix(
            22, np.arange(reps * m, dtype=np.uint64), k)).reshape(reps, m)
        batch = gpq._solve_roots(gpq._start_table(d / beta, gap / beta),
                                 target)
        assert batch.shape == (reps, m)
        for i in range(reps):
            row = gpq._solve_roots(
                gpq._start_table(d[:, i:i + 1] / beta, gap[i:i + 1] / beta),
                target[i:i + 1])
            np.testing.assert_array_equal(row[0], batch[i])

    def test_chunk_takes_at_most_five_passes(self, records34, monkeypatch):
        real, calls = gpq._record_sum, []
        monkeypatch.setattr(gpq, "_record_sum",
                            lambda a: calls.append(a.shape) or real(a))
        d, gap = gpq._prep_log_records(records34.values[:, None])
        k = len(records34)
        target = gpq._exp_log_am_gm(
            exp_record_matrix(42, 2 * np.arange(8192, dtype=np.uint64), k))
        calls.clear()
        gpq._solve_roots(gpq._start_table(d, gap), target[None])
        # One sum builds the start table; each Newton pass takes two.
        passes = (len(calls) - 1) // 2
        assert 1 <= passes <= 5, passes


@st.composite
def adversarial_series(draw, k=None):
    """Records with near ties (ratios 1 + 1e-15 to 1 + 1e-6), dynamic
    ranges up to 1e+-300, or both, for k from 2 to 1000 unless given."""
    if k is None:
        k = draw(st.one_of(st.integers(2, 20), st.integers(21, 1000)))
    shape = draw(st.sampled_from(["tied", "wide", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tied = np.log1p(10.0 ** rng.uniform(-15.0, -6.0, k - 1))
    wide = rng.uniform(0.0, 1.0, k - 1)
    wide *= draw(st.floats(1.0, 1380.0)) / wide.sum()
    mixed = np.where(rng.uniform(size=k - 1) < 0.5, tied, wide)
    steps = {"tied": tied, "wide": wide, "mixed": mixed}[shape]
    logs = np.concatenate([[0.0], np.cumsum(steps)])
    logs += draw(st.floats(0.0, max(0.0, 1380.0 - logs[-1]))) - 690.0
    values = np.exp(logs)
    for i in range(1, k):
        values[i] = max(values[i], np.nextafter(values[i - 1], np.inf))
    assert np.all(np.isfinite(values)) and values[0] > 0.0
    return values


def mp_root(d, gap, k, target, above):
    """The root of log W_obs = target in 50-digit arithmetic.

    Evaluates the float inputs exactly, by Newton's method from a point
    right of the root, which descends monotonically onto it.
    """
    with mpmath.workdps(50):
        d = [mpmath.mpf(float(x)) for x in d]
        gap, t = mpmath.mpf(float(gap)), mpmath.mpf(float(target))

        def newton_step(beta):
            e = [mpmath.expm1(beta * x) for x in d]
            s = mpmath.fsum(e)
            g = beta * gap + mpmath.log1p(s / k) - t
            slope = (mpmath.fdot(e, d) + gap * s) / (k + s)
            return g, g / slope

        beta = mpmath.mpf(float(above))
        if newton_step(beta)[0] < 0:
            beta = (t + mpmath.log(k)) / gap
        for _ in range(200):
            _, step = newton_step(beta)
            beta -= step
            if abs(step) <= beta * mpmath.mpf(10) ** -30:
                return beta
        raise AssertionError("50-digit Newton did not converge")


class TestBracket:
    """The bracket holds the float root and the 50-digit root."""

    @settings(max_examples=30, deadline=None)
    @given(values=adversarial_series(), frac=st.floats(0.0, 1.0),
           nodes=st.lists(st.integers(0, 127), min_size=2, max_size=2))
    def test_certified_bracket_holds_the_roots(self, values, frac, nodes):
        k = values.size
        d, gap = gpq._prep_log_records(values[:, None])
        h = gpq._start_table(d, gap).h[0]
        t_min = gpq._certified_target(k)
        # Targets at and just above a node's h put the root on that node,
        # where the lower bound is tightest.
        target = np.array([
            1e-300, 1e-30, 1e-12, 0.5 * h[0], t_min * (1 - 1e-9),
            t_min * (1 + 1e-9), 4.0 * t_min,
            h[0] * (h[-1] / h[0]) ** frac, h[-1] * 1.5, h[-1] + 50.0,
            *h[nodes], *np.nextafter(h[nodes], np.inf),
        ])
        table = gpq._start_table(d, gap)
        high, low = (a[0] for a in gpq._bracket_roots(table, target[None]))
        roots = gpq._newton(d, gap, target, high.copy())
        certified = ~np.isnan(low)
        np.testing.assert_array_equal(
            certified, (target >= t_min) & (target > h[0]))
        np.testing.assert_array_equal(
            roots, gpq._solve_roots(table, target[None])[0])
        for i in np.flatnonzero(certified):
            assert 0.0 < low[i] <= roots[i] <= high[i], i
            above = high[i] * (1 + 2 * gpq._SLACK)
            exact = mp_root(d[:, 0], gap[0], k, target[i], above)
            assert low[i] <= exact <= high[i] * (1 + gpq._SLACK), i
            assert abs(roots[i] - exact) <= gpq._SLACK * exact, i

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 16), series=st.integers(1, 4),
           rows=st.lists(st.integers(0, 3), min_size=1, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_row_gather_equals_own_series(self, k, series, rows, seed):
        # Target row i read through rows[i] is bracketed and solved, bit
        # for bit, as against a table of its series alone.
        rows = np.array(rows)[:, None] % series
        gen = np.random.default_rng(seed)
        values = (np.cumsum(gen.uniform(0.01, 3.0, (k, series)), axis=0)
                  * 10.0 ** gen.uniform(-9.0, 9.0, series))
        table = gpq._start_table(*gpq._prep_log_records(values))
        ids = np.arange(rows.size * 40, dtype=np.uint64).reshape(-1, 40)
        # Scaled down to below the certified range and up past the table.
        target = (gpq._exp_targets(seed, ids, k)
                  * 10.0 ** gen.uniform(-20.0, 2.0, ids.shape))
        start, lower = gpq._bracket_roots(table, target, rows)
        roots = gpq._solve_roots(table, target, rows)
        for i, r in enumerate(rows[:, 0]):
            own = gpq._start_table(*gpq._prep_log_records(values[:, [r]]))
            want_start, want_lower = gpq._bracket_roots(own, target[i:i + 1])
            assert start[i].tobytes() == want_start[0].tobytes()
            assert lower[i].tobytes() == want_lower[0].tobytes()
            assert (roots[i].tobytes()
                    == gpq._solve_roots(own, target[i:i + 1])[0].tobytes())

    def test_zero_gap_has_no_root(self):
        # Two records that tie in float give the log gap -0.0: no beta
        # solves the pivotal equation, and the table raises no warning.
        d, gap = gpq._prep_log_records(np.array([[1.0], [1.0]]))
        table = gpq._start_table(d, gap)
        with pytest.raises(BracketError, match="observed log gap"):
            gpq._bracket_roots(table, np.array([[0.5]]))

    def test_certified_target_grows_with_k(self):
        mins = [gpq._certified_target(k) for k in (2, 8, 16, 100, 1000)]
        assert 0.0 < mins[0] and mins == sorted(mins)
        assert mins[-1] < 0.05
        assert gpq._certified_target(10 ** 6) == math.inf


@st.composite
def lookup_batch(draw):
    """Series of one k, as ``(d, gap)``, with targets for each.

    The series are adversarial or subnormal records.  Targets run from
    the subnormals and 1e-300 past the last node, and sit on, just above
    and just below the nodes' ``h``.
    """
    k = draw(st.one_of(st.integers(2, 20), st.integers(21, 1000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    series = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            series.append(draw(adversarial_series(k=k)))
        else:
            steps = rng.integers(1, 1000, k)
            series.append(np.cumsum(steps) * 5e-324)
    d, gap = gpq._prep_log_records(np.array(series).T)
    h = gpq._start_table(d, gap).h
    targets = []
    for row in h:
        top = np.nanmax(row, initial=1.0)
        on = rng.choice(np.append(row[row > 0.0], top), 40)
        targets.append(np.concatenate([
            [1e-300, top * 1.5, top + 50.0],
            10.0 ** rng.uniform(-300.0, np.log10(top) + 1.0, 60),
            rng.integers(1, 2 ** 20, 8) * 5e-324,
            on, np.nextafter(on, np.inf), np.nextafter(on, 0.0),
        ]))
    return d, gap, np.array(targets)


class TestStartLookup:
    """The bin index finds each start as a per-row binary search does."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(batch=lookup_batch())
    def test_equals_searchsorted(self, batch):
        d, gap, target = batch
        table = gpq._start_table(d, gap)
        np.testing.assert_array_equal(gpq._node_index(table, target),
                                      searchsorted_index(table, target))

    @staticmethod
    def _table(monkeypatch, h):
        """A start table over the hand-made ``h``, one row per series."""
        monkeypatch.setattr(gpq, "_log_w", lambda *args: (h, None))
        return gpq._start_table(np.zeros((2, len(h))), np.ones(len(h)))

    @staticmethod
    def _targets(h):
        finite = np.unique(h[h > 0.0])
        below, above = np.nextafter(finite, 0.0), np.nextafter(finite, np.inf)
        grid = np.geomspace(1e-300, 1e3, 500)
        target = np.concatenate([finite, below, above, grid])
        return np.broadcast_to(target, (len(h), target.size))

    def test_crowded_bin(self, monkeypatch):
        # Four entries in one bin, entries at and below zero, and nan last.
        row = np.geomspace(1e-6, 1e2, 128)
        row[60:64] = row[59] * (1.0 + np.array([1e-3, 2e-3, 3e-3, 4e-3]))
        row[:2] = -1e-18, 0.0
        row[-3:] = np.nan
        h = np.array([row, np.geomspace(1e-3, 1e3, 128)])
        table = self._table(monkeypatch, h)
        assert table.h_pad.shape[1] - h.shape[1] == 5
        target = self._targets(h)
        np.testing.assert_array_equal(gpq._node_index(table, target),
                                      searchsorted_index(table, target))

    def test_out_of_order_rows_read_their_running_maximum(self, monkeypatch):
        # Rows whose float h is out of order: a swapped pair, and dips to
        # an earlier entry and to zero.  Each target's start is the first
        # node whose own h reaches it, whatever other keys share its batch.
        ordered = np.geomspace(1e-6, 1e2, 128)
        swapped, dipped = ordered.copy(), ordered.copy()
        swapped[[40, 41]] = swapped[[41, 40]]
        dipped[[70, 71, 90]] = dipped[50], dipped[69], 0.0
        h = np.array([ordered, swapped, dipped])
        table = self._table(monkeypatch, h.copy())
        np.testing.assert_array_equal(table.h,
                                      np.maximum.accumulate(h, axis=1))
        target = self._targets(h)
        reached = h[:, :, None] >= target[:, None, :]
        first = np.where(reached.any(axis=1), reached.argmax(axis=1),
                         h.shape[1])
        np.testing.assert_array_equal(gpq._node_index(table, target), first)
        # Each key alone, then every key in one permuted batch.
        rows = np.broadcast_to(np.arange(len(h))[:, None], target.shape)
        rows, keys = rows.reshape(-1, 1), target.reshape(-1, 1)
        want = first.ravel()
        alone = [gpq._node_index(table, keys[i:i + 1], rows[i:i + 1])[0, 0]
                 for i in range(len(keys))]
        np.testing.assert_array_equal(alone, want)
        perm = np.random.default_rng(3).permutation(len(keys))
        np.testing.assert_array_equal(
            gpq._node_index(table, keys[perm], rows[perm])[:, 0], want[perm])

    @pytest.mark.parametrize("k", (2, 4, 15, 1000))
    def test_one_node_per_bin(self, k):
        rows = exp_record_matrix(9, np.arange(500, dtype=np.uint64), k)
        table = gpq._start_table(*gpq._prep_log_records(rows))
        assert table.h_pad.shape == (500, gpq._START_NODES.size + 1)

    def test_bracket_footprint(self):
        # tracemalloc peak of building the table and bracketing a
        # run_cell-shaped batch: 16 replicates of 2000 draws at k = 4.
        # The row-by-row searchsorted that the bin index replaced peaked
        # at 642,664 B here, with its table built inside _bracket_roots;
        # that figure is the bound, with no margin added.  The bin index
        # measured 637,908 B, 0.7% under it.
        seeds = derive_seed_array(12345, np.arange(16, dtype=np.uint64))
        k = 4
        d, gap = gpq._prep_log_records(
            exp_record_matrix(derive_seed_array(seeds, 1), 0, k))
        target = gpq._exp_targets(derive_seed_array(seeds, 2)[:, None],
                                  2 * np.arange(2000, dtype=np.uint64), k)

        def bracket():
            return gpq._bracket_roots(gpq._start_table(d, gap), target)

        bracket()
        tracemalloc.start()
        try:
            bracket()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 642_664, peak


class TestSamplePivotal:
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
        tie_stream(35)
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


def full_interval(values, gamma):
    """Endpoints read from the sorted, fully solved draws."""
    lo_rank, hi_rank = percentile_ranks(values.size, gamma)
    ordered = np.sort(values)
    return ordered[lo_rank - 1], ordered[hi_rank - 1]


def full_tails(values, pi0):
    """Counts of fully solved draws below and above ``pi0``."""
    return (int(np.count_nonzero(values < pi0)),
            int(np.count_nonzero(values > pi0)))


class TestCandidates:
    """Draws outside the candidates may sit anywhere inside their bounds."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 300), ranks=st.lists(st.integers(0, 299),
                                                 min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans())
    def test_ranks_and_tails_do_not_move(self, m, ranks, seed, ties):
        ranks = [r % m for r in ranks]
        gen = np.random.default_rng(seed)
        exact = gen.normal(size=m)
        if ties:
            exact = np.round(exact, 1)
        below = exact - gen.exponential(size=m) * gen.integers(0, 2, m)
        above = exact + gen.exponential(size=m) * gen.integers(0, 2, m)
        inside = np.clip(below + gen.random(m) * (above - below), below, above)
        # Uncertified draws: infinite bounds, and any value at all.
        wide = gen.random(m) < 0.1
        below[wide], above[wide] = -np.inf, np.inf
        inside[wide] = gen.normal(size=int(wide.sum())) * 1e6
        pi0 = float(gen.choice(exact))
        for polish, check in (
                (gpq._candidates(below, above, ranks), "ranks"),
                (gpq._candidates(below, above, pi0=pi0), "tails")):
            moved = np.where(polish, exact, inside)
            if check == "ranks":
                assert np.array_equal(np.sort(moved)[ranks],
                                      np.sort(exact)[ranks])
            else:
                assert full_tails(moved, pi0) == full_tails(exact, pi0)

    def test_rows_select_on_their_own_ranks(self):
        below = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]])
        polish = gpq._candidates(below, below + 0.5, [1])
        np.testing.assert_array_equal(
            polish, [[False, True, False, False], [False, False, True, False]])


class TestSelectivePolish:
    """Intervals and p-values polish only what they read, bit for bit."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(k1=st.integers(2, 16), k2=st.integers(2, 16),
           kind=st.sampled_from(["ratio", "difference", "single-shape"]),
           m=st.integers(40, 3000), gamma=st.floats(0.02, 0.5),
           threads=st.sampled_from([1, 2, 3]),
           chunk=st.sampled_from([64, 1000, 8192]),
           seed=st.integers(0, 2 ** 64 - 1), tiny=st.booleans(),
           at=st.floats(0.0, 1.0), on_draw=st.booleans())
    def test_equals_full_solve_bit_for_bit(self, k1, k2, kind, m, gamma,
                                           threads, chunk, seed, tiny, at,
                                           on_draw, monkeypatch):
        assume(gamma * m / 2.0 >= 1.0)
        s1 = exponential_records(k1 - 1, seed % 1000, 0)
        s2 = weibull_records(k2 - 1, 2.0, 0.7, seed % 997, 1)
        exp_targets = gpq._exp_targets

        def shrunk(seed, stream_ids, k, *work):
            # Every 7th pivot target below the certified range: its root
            # has no certified lower bound and must be polished.
            target = exp_targets(seed, stream_ids, k, *work)
            target[..., np.asarray(stream_ids) % 7 == 0] *= 1e-12
            return target

        def sample():
            if kind == "single-shape":
                return sample_shape_pivot(s1, m, seed, threads=threads)
            return sample_pivotal(s1, s2, kind, m, seed, threads=threads)

        with monkeypatch.context() as patch:
            patch.setattr(gpq, "_CHUNK", chunk)
            if tiny:
                patch.setattr(gpq, "_exp_targets", shrunk)
            full = sample().values
            draws = sample()
            pi0 = float(full[int(at * (m - 1))] if on_draw
                        else np.quantile(full, at))
            ci = percentile_interval(draws, gamma)
            one = p_value_one_sided(draws, pi0)
            two = p_value_two_sided(draws, pi0)
            # Solved last, so that the results above came from the bounds.
            assert draws.values.tobytes() == full.tobytes()
        want_lo, want_hi = full_interval(full, gamma)
        below, above = full_tails(full, pi0)
        assert (ci.lower, ci.upper) == (want_lo, want_hi)
        assert one.p_value == below / m
        assert two.p_value == min(1.0, 2.0 * min(below, above) / m)
        assert np.all((draws.below <= full) & (full <= draws.above))


class TestSampleWorkspace:
    """The command-line sampler brackets every chunk in one workspace."""

    @pytest.mark.parametrize("poison", ["nan", "previous chunk"])
    @pytest.mark.parametrize("m", [300, 9001])
    @pytest.mark.parametrize("chunk", [64, 1000, 8192])
    @pytest.mark.parametrize("kind", ["ratio", "difference", "single-shape"])
    def test_poisoned_workspace_moves_no_bit(self, kind, chunk, m, poison,
                                             records34, records36,
                                             monkeypatch):
        # Before each chunk the workspace holds NaN, or the bytes that the
        # previous chunk left in it, the first chunk those of another
        # sample's last: a row read before it is written would move a bound.
        real, blocks, left = gpq._bracket, [], []

        def poisoned(kind, tables, seeds, draws, work):
            blocks.append(work)
            if poison == "nan" or not left:
                work.fill(np.nan)
            else:
                np.copyto(work, left[-1])
            got = real(kind, tables, seeds, draws, work)
            left[:] = [work.copy()]
            return got

        def sample(seed):
            if kind == "single-shape":
                return sample_shape_pivot(records34, m, seed)
            return sample_pivotal(records34, records36, kind, m, seed)

        with monkeypatch.context() as patch:
            patch.setattr(gpq, "_CHUNK", chunk)
            want = sample(11)
            patch.setattr(gpq, "_bracket", poisoned)
            sample(12)
            blocks.clear()
            got = sample(11)
        assert got.below.tobytes() == want.below.tobytes()
        assert got.above.tobytes() == want.above.tobytes()
        assert len(blocks) == -(-m // chunk)
        assert all(block is blocks[0] for block in blocks)
        assert blocks[0].shape == (gpq._WORK_ROWS, min(m, chunk))


@pytest.fixture(scope="module")
def fluid_draws():
    """Bracketed ratio and difference draws, insulating fluid, M = 1e5."""
    s1, s2 = (extract_upper_records(INSULATING_FLUID[label], label=label)
              for label in ("kv34", "kv36"))
    return {kind: sample_pivotal(s1, s2, kind, 100_000, seed=42)
            for kind in ("ratio", "difference")}


class TestSelectivePolishAtScale:
    def test_polished_share(self, fluid_draws):
        # Measured at 6.0% (ratio), 7.4% (difference) and 10.2% (ratio
        # draws straddling pi0 = 1); a bracket that certified nothing
        # would polish every draw.
        ranks = [r - 1 for r in percentile_ranks(100_000, 0.05)]
        shares = {kind: np.count_nonzero(
                      gpq._candidates(draws.below, draws.above, ranks))
                  for kind, draws in fluid_draws.items()}
        ratio = fluid_draws["ratio"]
        shares["pi0 = 1"] = np.count_nonzero(
            gpq._candidates(ratio.below, ratio.above, pi0=1.0))
        for name, count in shares.items():
            assert 0 < count < 0.15 * 100_000, (name, count)

    def test_reading_values_moves_no_result(self, records34, records36):
        draws = sample_pivotal(records34, records36, "ratio", 100_000,
                               seed=7, threads=2)
        before = (percentile_interval(draws, 0.05),
                  p_value_one_sided(draws, 1.0), p_value_two_sided(draws, 1.0))
        values = draws.values
        after = (percentile_interval(draws, 0.05),
                 p_value_one_sided(draws, 1.0), p_value_two_sided(draws, 1.0))
        assert before == after
        assert (before[0].lower, before[0].upper) == full_interval(values, 0.05)
        below, above = full_tails(values, 1.0)
        assert before[1].p_value == below / 100_000
        assert before[2].p_value == min(1.0, 2.0 * min(below, above) / 100_000)


class TestReportChecks:
    """The report types and the single-shape sampler refuse bad values."""

    @pytest.mark.parametrize("lower, upper, level, message", [
        (2.0, 1.0, 0.95, "interval endpoints are out of order"),
        (1.0, 2.0, 1.0, "confidence level must be in (0, 1)"),
        (1.0, 2.0, 0.0, "confidence level must be in (0, 1)"),
    ])
    def test_interval_estimate(self, lower, upper, level, message):
        with pytest.raises(InvalidDataError) as err:
            gpq.IntervalEstimate(lower=lower, upper=upper, level=level, m=10,
                                 estimand="pi")
        assert str(err.value) == message

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_test_result(self, p):
        with pytest.raises(InvalidDataError) as err:
            gpq.TestResult(p_value=p, pi0=1.0, sidedness="two-sided", m=10,
                           mc_se=0.0)
        assert str(err.value) == "p-value must lie in [0, 1]"

    def test_shape_pivot_needs_a_draw(self, records34):
        with pytest.raises(InvalidDataError) as err:
            sample_shape_pivot(records34, 0, seed=1)
        assert str(err.value) == "m must be at least 1"


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

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(InvalidDataError) as err:
            PivotalDraws(values=np.ones((2, 2)), kind="ratio", m=4, seed=0)
        assert str(err.value) == "draws must be a 1-d array of length m >= 1"

    @pytest.mark.parametrize("duplicate", [
        lambda draws: pickle.loads(pickle.dumps(draws)), copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("kind", ["ratio", "difference"])
    @pytest.mark.parametrize("sampled", [False, True], ids=["explicit", "sampled"])
    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_copies_report_bit_for_bit(self, duplicate, kind, sampled, read,
                                       records34, records36):
        m = 3000
        if sampled:
            draws = sample_pivotal(records34, records36, kind, m, seed=11)
        else:
            values = np.random.default_rng(3).normal(size=m)
            draws = PivotalDraws(np.exp(values) if kind == "ratio" else values,
                                 kind, m, seed=0)
        if read:
            draws.values
        twin = duplicate(draws)
        assert twin is not draws and twin != draws

        def reports(d):
            ci = percentile_interval(d, 0.05)
            pi0 = float(np.median(d.below))
            return (ci.lower.hex(), ci.upper.hex(),
                    p_value_one_sided(d, pi0).p_value.hex(),
                    p_value_two_sided(d, pi0).p_value.hex())

        # The twin reports first, so that an unread twin reads its bounds.
        assert reports(twin) == reports(draws)
        assert (twin.kind, twin.m, twin.seed) == (draws.kind, draws.m, draws.seed)
        assert twin.values.tobytes() == draws.values.tobytes()
        for array in (twin.below, twin.above, twin.values):
            assert not array.flags.writeable
        with pytest.raises(AttributeError, match="read-only"):
            twin.kind = "difference"

    @pytest.mark.parametrize("sampled", [False, True], ids=["explicit", "read"])
    def test_known_values_select_no_draw(self, sampled, records34, records36,
                                         monkeypatch):
        m, gamma = 3000, 0.05
        if sampled:
            draws = sample_pivotal(records34, records36, "ratio", m, seed=11)
            draws.values
        else:
            values = np.exp(np.random.default_rng(3).normal(size=m))
            draws = PivotalDraws(values, "ratio", m, seed=0)
        full = draws.values
        pi0 = float(full[m // 3])
        calls = []
        monkeypatch.setattr(gpq, "_candidates",
                            lambda *args, **kw: calls.append(args))
        ci = percentile_interval(draws, gamma)
        one = p_value_one_sided(draws, pi0)
        two = p_value_two_sided(draws, pi0)
        assert calls == []
        below, above = full_tails(full, pi0)
        assert (ci.lower, ci.upper) == full_interval(full, gamma)
        assert one.p_value == below / m
        assert two.p_value == min(1.0, 2.0 * min(below, above) / m)
        # The pi0 check still comes first.
        with pytest.raises(InvalidDataError, match="pi0 must be finite"):
            p_value_one_sided(draws, math.inf)

    def test_repr_names_kind_count_and_seed(self):
        draws = sample_pivotal(RecordSeries([1.0, 2.0, 5.0]),
                               RecordSeries([1.0, 3.0, 4.0]), "ratio", 10, 3)
        assert repr(draws) == "PivotalDraws(kind='ratio', m=10, seed=3)"


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

    @pytest.mark.parametrize("m, gamma, ranks", [
        (10 ** 6, 0.050000001, (25001, 974999)),
        (10 ** 7, 0.0500000001, (250001, 9749999)),
        (10 ** 8, 0.05000000001, (2500001, 97499999)),
    ])
    def test_ranks_are_exact_near_integral_products(self, m, gamma, ranks):
        # gamma m / 2 lies 5e-4 above an integer, far above float noise.
        assert percentile_ranks(m, gamma) == ranks

    def test_non_integral_ranks_round_inward(self):
        # gamma m / 2 = 2.5 -> lower rank 3; (1 - gamma/2) m = 97.5 -> 97
        assert percentile_ranks(100, 0.05) == (3, 97)

    @pytest.mark.parametrize("m, gamma", [(3, 0.9), (3, 0.8), (5, 0.9)])
    def test_ranks_out_of_order(self, m, gamma):
        with pytest.raises(InsufficientDrawsError,
                           match=r"lower rank \d+ exceeds the upper rank \d+"):
            percentile_ranks(m, gamma)

    def test_equal_ranks(self):
        # gamma m / 2 = 1.2: ceil gives 2, and floor(4 - 1.2) gives 2.
        assert percentile_ranks(4, 0.6) == (2, 2)

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

    @pytest.mark.parametrize("pi0", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p_value", [p_value_one_sided, p_value_two_sided])
    def test_non_finite_pi0_rejected(self, p_value, pi0, records34, records36):
        for draws in (self._draws([1.0, 2.0, 3.0, 4.0]),
                      sample_pivotal(records34, records36, "ratio", 50, seed=3)):
            with pytest.raises(InvalidDataError, match="pi0"):
                p_value(draws, pi0)

    def test_finite_pi0_of_any_sign_is_answered(self):
        draws = self._draws([1.0, 2.0, 3.0, 4.0])
        for pi0 in (-1.0, 0.0, -0.0):
            assert p_value_one_sided(draws, pi0).p_value == 0.0
            assert p_value_two_sided(draws, pi0).p_value == 0.0

    def test_metadata(self):
        draws = self._draws([1.0, 2.0])
        res = p_value_two_sided(draws, 1.5)
        assert res.sidedness == "two-sided"
        assert res.m == 2
        one = p_value_one_sided(draws, 1.5)
        assert one.sidedness == "one-sided-greater"
