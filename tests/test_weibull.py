"""Likelihood, closed-form estimation, and information-matrix checks."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weibrec import gpq
from weibrec import (
    DegenerateDataError,
    FloatRangeError,
    InvalidDataError,
    RecordSeries,
    SingularInformationError,
    WeibullParams,
    mle_records,
    observed_information,
    pooled_loglik,
    pooled_mle,
    record_loglik,
    se_from_hessian,
    shape_mle,
    weibull_cdf,
)
from weibrec.records import log_to_max, weibull_records


class TestWeibullParams:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidDataError):
            WeibullParams(alpha=0.0, beta=1.0)
        with pytest.raises(InvalidDataError):
            WeibullParams(alpha=1.0, beta=-2.0)
        with pytest.raises(InvalidDataError):
            WeibullParams(alpha=np.inf, beta=1.0)


class TestCdf:
    def test_known_values(self):
        p = WeibullParams(alpha=2.0, beta=3.0)
        assert weibull_cdf(2.0, p) == pytest.approx(1.0 - math.exp(-1.0))
        assert weibull_cdf(0.0, p) == 0.0
        assert weibull_cdf(-1.0, p) == 0.0

    def test_monotone_to_one(self):
        p = WeibullParams(alpha=1.5, beta=0.8)
        x = np.linspace(0.01, 50, 300)
        f = weibull_cdf(x, p)
        assert np.all(np.diff(f) > 0)
        assert f[-1] < 1.0
        assert weibull_cdf(1e6, p) == pytest.approx(1.0)


class TestLoglik:
    def test_reduces_to_minus_last_record_at_unit_params(self):
        s = RecordSeries(np.array([0.5, 1.2, 4.0, 9.0]))
        got = record_loglik(s, WeibullParams(alpha=1.0, beta=1.0))
        assert got == pytest.approx(-9.0, rel=1e-14)

    def test_matches_joint_density_of_records(self):
        # The joint density of upper records is the parent density at
        # the last record times the hazard at each earlier record.
        s = RecordSeries(np.array([0.7, 1.9, 2.4, 6.1]))
        for alpha, beta in [(1.0, 1.0), (2.5, 0.6), (0.8, 3.2), (5.0, 1.7)]:
            r = s.values
            z = (r / alpha) ** beta
            log_pdf_last = (math.log(beta / alpha)
                            + (beta - 1.0) * math.log(r[-1] / alpha)
                            - z[-1])
            log_hazards = sum(
                math.log(beta / alpha) + (beta - 1.0) * math.log(rj / alpha)
                for rj in r[:-1]
            )
            want = log_pdf_last + log_hazards
            got = record_loglik(s, WeibullParams(alpha=alpha, beta=beta))
            assert got == pytest.approx(want, rel=1e-12)

    def test_gradient_vanishes_at_mle(self, tiny_series):
        fit = mle_records(tiny_series)
        alpha, beta = fit.params.alpha, fit.params.beta

        def surface(theta):
            return record_loglik(
                tiny_series, WeibullParams(alpha=theta[0], beta=theta[1])
            )

        h = 1e-6
        for i in range(2):
            up = np.array([alpha, beta])
            dn = up.copy()
            up[i] += h
            dn[i] -= h
            grad = (surface(up) - surface(dn)) / (2.0 * h)
            assert abs(grad) < 1e-6


class TestMle:
    def test_two_point_series(self, tiny_series):
        fit = mle_records(tiny_series)
        assert fit.params.beta == pytest.approx(2.0, rel=1e-14)
        assert fit.params.alpha == pytest.approx(math.e / math.sqrt(2.0), rel=1e-14)
        assert fit.model_tag == "separate"

    def test_insulating_fluid_estimates(self, records34, records36):
        f1, f2 = mle_records(records34), mle_records(records36)
        assert f"{f1.params.beta:.4f}" == "0.5990"
        assert f"{f1.params.alpha:.4f}" == "2.8303"
        assert f"{f2.params.beta:.4f}" == "0.5639"
        assert f"{f2.params.alpha:.4f}" == "2.1822"

    def test_single_record_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            mle_records(RecordSeries(np.array([3.0])))

    def test_mle_maximizes_own_likelihood(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = np.sort(rng.uniform(0.2, 30.0, size=6))
            if np.any(np.diff(values) <= 0):
                continue
            s = RecordSeries(values)
            fit = mle_records(s)
            best = fit.loglik
            for da, db in [(0.9, 1.0), (1.1, 1.0), (1.0, 0.9), (1.0, 1.1)]:
                other = record_loglik(s, WeibullParams(
                    alpha=fit.params.alpha * da, beta=fit.params.beta * db))
                assert other < best


class TestSolverSum:
    """The MLE sums the log spacings as the pivot solver does."""

    @settings(max_examples=200, deadline=None)
    @given(start=st.floats(1e-3, 1e3),
           increments=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=39))
    def test_shape_mle_divides_the_solvers_sum(self, start, increments):
        values = np.cumsum([start, *increments])
        series = RecordSeries(values)
        k = len(values)
        total = -gpq._record_sum(log_to_max(values))
        assert shape_mle(series) == k / total
        # A one-record series adds nothing to the pooled sum.
        single = RecordSeries(values[:1])
        assert pooled_mle(single, series).beta == (k + 1) / total


class TestPooledMle:
    def test_identical_series_matches_single_fit(self, records34):
        single = mle_records(records34)
        pooled = pooled_mle(records34, records34)
        assert pooled.beta == single.params.beta
        assert pooled.alpha1 == pooled.alpha2

    def test_insulating_fluid_pooled(self, records34, records36):
        fit = pooled_mle(records34, records36)
        assert f"{fit.beta:.4f}" == "0.5857"
        assert f"{fit.alpha1:.4f}" == "2.6297"
        assert f"{fit.alpha2:.4f}" == "2.3916"
        assert fit.model_tag == "pooled"

    def test_grid_search_cannot_beat_closed_form(self, records34, records36):
        fit = pooled_mle(records34, records36)
        best = pooled_loglik(records34, records36,
                             fit.beta, fit.alpha1, fit.alpha2)
        scales = np.linspace(0.8, 1.2, 41)
        for b in fit.beta * scales:
            for a1 in fit.alpha1 * scales:
                vals = [pooled_loglik(records34, records36, b, a1, a2)
                        for a2 in fit.alpha2 * scales]
                assert max(vals) <= best + 1e-9

    def test_degenerate_pair(self):
        one = RecordSeries(np.array([2.0]))
        with pytest.raises(DegenerateDataError):
            pooled_mle(one, one)


class TestInformation:
    def test_beta_curvature_matches_analytic(self, records34):
        # d2/dbeta2 of the log-likelihood is
        # -(n+1)/beta^2 - (r_n/alpha)^beta * log(r_n/alpha)^2.
        r = records34.values
        n = records34.n
        for alpha, beta in [(2.8303, 0.5990), (2.0, 1.0), (4.0, 0.3)]:
            def surface(theta):
                return record_loglik(
                    records34, WeibullParams(alpha=theta[0], beta=theta[1]))

            info = observed_information(surface, [alpha, beta])
            ratio = r[-1] / alpha
            analytic = (n + 1) / beta ** 2 + ratio ** beta * math.log(ratio) ** 2
            assert info[1, 1] == pytest.approx(analytic, rel=1e-5)

    def test_standard_errors_reproduce_worked_example(self, records34, records36):
        f1, f2 = mle_records(records34), mle_records(records36)
        assert abs(f1.se_beta - 0.2264) < 0.005
        assert abs(f1.se_alpha - 3.9072) < 0.005
        assert abs(f2.se_beta - 0.2820) < 0.005
        assert abs(f2.se_alpha - 3.3074) < 0.005
        pooled = pooled_mle(records34, records36)
        assert abs(pooled.se_beta - 0.1766) < 0.005
        assert abs(pooled.se_alpha1 - 3.1333) < 0.005
        assert abs(pooled.se_alpha2 - 2.6609) < 0.005

    def test_closed_form_se_match_finite_differences(self, records34,
                                                     records36):
        # Worked example plus 30 seeded series whose fits are well
        # conditioned for the finite-difference oracle.
        rng = np.random.default_rng(2024)
        series = [records34, records36]
        while len(series) < 32:
            s = weibull_records(int(rng.integers(1, 15)),
                                alpha=float(rng.uniform(1.0, 20.0)),
                                beta=float(rng.uniform(0.3, 5.0)),
                                seed=int(rng.integers(2 ** 32)))
            fit = mle_records(s)
            if fit.params.alpha >= 1.0 and 0.3 <= fit.params.beta <= 5.0:
                series.append(s)
        for s in series:
            fit = mle_records(s)

            def surface(theta, s=s):
                return record_loglik(
                    s, WeibullParams(alpha=theta[0], beta=theta[1]))

            want = se_from_hessian(surface, [fit.params.alpha, fit.params.beta])
            np.testing.assert_allclose([fit.se_alpha, fit.se_beta], want,
                                       rtol=1e-5)
        for s1, s2 in zip(series[::2], series[1::2]):
            fit = pooled_mle(s1, s2)

            def surface(theta, s1=s1, s2=s2):
                return pooled_loglik(s1, s2, theta[0], theta[1], theta[2])

            want = se_from_hessian(surface, [fit.beta, fit.alpha1, fit.alpha2])
            np.testing.assert_allclose(
                [fit.se_beta, fit.se_alpha1, fit.se_alpha2], want, rtol=1e-5)

    def test_rejects_non_stationary_point(self, records34):
        def surface(theta):
            return record_loglik(
                records34, WeibullParams(alpha=theta[0], beta=theta[1]))

        with pytest.raises(InvalidDataError, match="stationary"):
            se_from_hessian(surface, [1.0, 3.0])

    def test_saddle_point_raises_singular_information(self):
        def surface(theta):
            return float(theta[0] ** 2 - theta[1] ** 2)

        with pytest.raises(SingularInformationError):
            se_from_hessian(surface, [0.0, 0.0])

    def test_information_is_symmetric(self, records34):
        fit = mle_records(records34)

        def surface(theta):
            return record_loglik(
                records34, WeibullParams(alpha=theta[0], beta=theta[1]))

        info = observed_information(
            surface, [fit.params.alpha, fit.params.beta])
        np.testing.assert_array_equal(info, info.T)


class TestFloatRange:
    """The closed forms at the edges of the float range."""

    def test_small_shape_scale_matches_mpmath(self):
        values = [1e-300, 1e-299, 1e300, 1.7e308]
        fit = mle_records(RecordSeries(np.array(values)))
        with mpmath.workdps(60):
            logs = [mpmath.log(mpmath.mpf(v)) for v in values]
            beta = 4 / mpmath.fsum(logs[-1] - x for x in logs)
            alpha = mpmath.exp(logs[-1] - mpmath.log(4) / beta)
        assert fit.params.alpha == pytest.approx(float(alpha), rel=1e-13)
        assert math.isfinite(fit.se_alpha) and math.isfinite(fit.loglik)

    def test_scale_below_the_float_range(self):
        series = RecordSeries(np.array([5e-324, 1e-323, 1.5e-323, 1e-300]))
        with pytest.raises(FloatRangeError, match=r"exp\(-745\.95"):
            mle_records(series)
        with pytest.raises(FloatRangeError, match="outside the float range"):
            pooled_mle(series, series)

    def test_subnormal_scale_still_answers(self):
        # log alpha_hat = log(1e-310) - log(2) / beta_hat is about -720.
        series = RecordSeries(np.array([1e-318, 1e-310]))
        alpha = mle_records(series).params.alpha
        assert 0.0 < alpha < sys.float_info.min

    def test_loglik_is_the_likelihood_at_the_optimum(self, records34,
                                                     records36):
        fit = mle_records(records34)
        assert fit.loglik == pytest.approx(
            record_loglik(records34, fit.params), abs=math.ulp(fit.loglik))
        pooled = pooled_mle(records34, records36)
        want = pooled_loglik(records34, records36,
                             pooled.beta, pooled.alpha1, pooled.alpha2)
        assert pooled.loglik == pytest.approx(want, abs=math.ulp(want))
