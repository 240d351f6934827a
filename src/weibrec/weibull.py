"""Weibull likelihood primitives and record-data estimation.

The joint density of upper records r_0 < ... < r_n factorizes through
the hazard, giving the log-likelihood

    l(alpha, beta) = (n+1) log beta - beta (n+1) log alpha
                     + (beta - 1) sum_j log r_j - (r_n / alpha)**beta

which admits closed-form maximum likelihood estimates.  Series
i = 1..m with k_i = n_i + 1 records that share one shape fit as

    beta = K / sum_i S_i,   alpha_i = r_n,i / k_i**(1/beta),

where K = sum_i k_i and S_i = sum_j log(r_n,i / r_ij).  The separate
fit is the case m = 1, so K = k; the pooled fit is m = 2.  Because
(r_n,i / alpha_i)**beta = k_i at the MLE, the inverse observed
information is closed-form too: se_beta = beta / sqrt(K) and
se_alpha_i = alpha_i sqrt(1 / k_i + ln(k_i)**2 / K) / beta, and the
log-likelihood, in which beta sum_i S_i = K, is
sum_i [k_i log(beta k_i) - 2 k_i - sum_j log r_ij].  An alpha_i that
rounds to zero, or a standard error that overflows, raises
FloatRangeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (DegenerateDataError, FloatRangeError, InvalidDataError,
                     SingularInformationError)
from .records import RecordSeries, _record_sum, log_to_max

_FD_REL_STEP = 1e-4


@dataclass(frozen=True)
class WeibullParams:
    """Scale ``alpha`` and shape ``beta`` of a Weibull distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidDataError("alpha must be positive and finite")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise InvalidDataError("beta must be positive and finite")


@dataclass(frozen=True)
class WeibullFit:
    """One-sample fit: point estimates, standard errors, optimum value."""

    params: WeibullParams
    se_alpha: float
    se_beta: float
    loglik: float
    model_tag: str = "separate"


@dataclass(frozen=True)
class PooledFit:
    """Two-sample fit under a common shape parameter."""

    beta: float
    alpha1: float
    alpha2: float
    se_beta: float
    se_alpha1: float
    se_alpha2: float
    loglik: float
    model_tag: str = "pooled"


def weibull_cdf(x, params: WeibullParams) -> NDArray[np.float64]:
    """Distribution function ``1 - exp(-(x/alpha)**beta)`` for x > 0."""
    x = np.asarray(x, dtype=np.float64)
    out = -np.expm1(-((np.maximum(x, 0.0) / params.alpha) ** params.beta))
    return np.where(x > 0.0, out, 0.0)


def record_loglik(series: RecordSeries, params: WeibullParams) -> float:
    """Log-likelihood of a record series under one Weibull distribution."""
    r = series.values
    n = series.n
    alpha, beta = params.alpha, params.beta
    log_r = np.log(r)
    return float(
        (n + 1) * np.log(beta)
        - beta * (n + 1) * np.log(alpha)
        + (beta - 1.0) * np.sum(log_r)
        - (r[-1] / alpha) ** beta
    )


def _log_ratio_sum(series: RecordSeries) -> float:
    """sum_j log(r_n / r_j) over j = 0..n (the j = n term is zero).

    Summed in record order, as the pivot solver sums the same terms.
    """
    return -float(_record_sum(log_to_max(series.values)))


def _common_shape(series: Sequence[RecordSeries]) -> float:
    """``K / sum_i S_i`` over series sharing one shape, with ``K`` records
    in all and ``S_i`` the log-ratio sum of series ``i``."""
    s = sum(_log_ratio_sum(x) for x in series)
    if s == 0.0:
        raise DegenerateDataError(
            "at least two record values are needed to estimate the shape"
        )
    return sum(len(x) for x in series) / s


def _common_shape_fit(series: Sequence[RecordSeries]
                      ) -> tuple[float, float, list[tuple[float, float]], float]:
    """Closed-form fit of record series sharing one shape.

    Returns ``beta_hat``, ``se_beta``, one ``(alpha_hat, se_alpha)`` per
    series and the summed log-likelihood at the optimum.
    """
    beta = _common_shape(series)
    big_k = sum(len(x) for x in series)
    scales, loglik = [], 0.0
    for x in series:
        k, r_n = len(x), float(x.values[-1])
        # alpha_hat = r_n / k**(1/beta_hat) = r_n * 2**-e, scaled by the
        # fraction of e first and its integer part last, so it can
        # underflow but never overflow.
        e = math.log2(k) / beta
        n = math.floor(e)
        alpha = math.ldexp(r_n * 2.0 ** (n - e), -n)
        se_alpha = alpha * math.sqrt(1.0 / k + math.log(k) ** 2 / big_k) / beta
        if alpha == 0.0 or not math.isfinite(se_alpha):
            who = f"population {x.label!r}" if x.label else "a series"
            raise FloatRangeError(
                f"the scale estimate of {who}, "
                f"exp({math.log(r_n) - math.log(k) / beta:.6g}), or its "
                f"standard error lies outside the float range")
        scales.append((alpha, se_alpha))
        # record_loglik at the optimum, where (r_n / alpha_hat)**beta_hat
        # = k and beta_hat sum_i S_i = K.
        loglik += k * math.log(beta * k) - 2 * k - float(np.sum(np.log(x.values)))
    return beta, beta / math.sqrt(big_k), scales, loglik


def shape_mle(series: RecordSeries) -> float:
    """Closed-form shape estimate ``(n+1) / sum_j log(r_n / r_j)``.

    Cheaper than :func:`mle_records` when standard errors are not
    needed, and robust on series whose curvature is ill-conditioned.
    """
    return _common_shape([series])


def mle_records(series: RecordSeries) -> WeibullFit:
    """Closed-form maximum likelihood fit from one record series.

    ``beta_hat = (n+1) / sum_j log(r_n / r_j)`` and
    ``alpha_hat = r_n / (n+1)**(1/beta_hat)``.  Standard errors are the
    closed-form inverse observed information at the optimum.
    """
    beta, se_beta, [(alpha, se_alpha)], loglik = _common_shape_fit([series])
    return WeibullFit(params=WeibullParams(alpha=alpha, beta=beta),
                      se_alpha=se_alpha, se_beta=se_beta, loglik=loglik)


def pooled_loglik(series1: RecordSeries, series2: RecordSeries,
                  beta: float, alpha1: float, alpha2: float) -> float:
    """Joint log-likelihood of two record series sharing one shape."""
    return record_loglik(series1, WeibullParams(alpha=alpha1, beta=beta)) + \
        record_loglik(series2, WeibullParams(alpha=alpha2, beta=beta))


def pooled_mle(series1: RecordSeries, series2: RecordSeries) -> PooledFit:
    """Maximum likelihood fit of two record series with a common shape.

    ``beta_hat = (n1 + n2 + 2) / (S1 + S2)`` where ``S_i`` is the
    per-series log-ratio sum, and each scale keeps its one-sample form
    evaluated at the pooled shape.
    """
    beta, se_beta, [(alpha1, se1), (alpha2, se2)], loglik = \
        _common_shape_fit([series1, series2])
    return PooledFit(beta=beta, alpha1=alpha1, alpha2=alpha2, se_beta=se_beta,
                     se_alpha1=se1, se_alpha2=se2, loglik=loglik)


def _fd_steps(at: NDArray[np.float64]) -> NDArray[np.float64]:
    return _FD_REL_STEP * np.maximum(np.abs(at), 1.0)


def _fd_gradient(surface: Callable[[NDArray[np.float64]], float],
                 at: NDArray[np.float64]) -> NDArray[np.float64]:
    h = _fd_steps(at)
    grad = np.empty(at.size)
    for i in range(at.size):
        up, dn = at.copy(), at.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        grad[i] = (surface(up) - surface(dn)) / (2.0 * h[i])
    return grad


def observed_information(surface: Callable[[NDArray[np.float64]], float],
                         at: Sequence[float]) -> NDArray[np.float64]:
    """Negative Hessian of a log-likelihood surface at a point.

    Uses central finite differences with per-coordinate relative steps
    and symmetrizes the result.
    """
    at = np.asarray(at, dtype=np.float64)
    h = _fd_steps(at)
    k = at.size
    hess = np.empty((k, k))
    f0 = surface(at)
    for i in range(k):
        up, dn = at.copy(), at.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        hess[i, i] = (surface(up) - 2.0 * f0 + surface(dn)) / h[i] ** 2
    for i in range(k):
        for j in range(i + 1, k):
            pp, pm, mp, mm = at.copy(), at.copy(), at.copy(), at.copy()
            pp[[i, j]] += h[[i, j]]
            mm[[i, j]] -= h[[i, j]]
            pm[i] += h[i]
            pm[j] -= h[j]
            mp[i] -= h[i]
            mp[j] += h[j]
            val = (surface(pp) - surface(pm) - surface(mp) + surface(mm)) \
                / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    return -0.5 * (hess + hess.T)


def se_from_hessian(surface: Callable[[NDArray[np.float64]], float],
                    at: Sequence[float]) -> NDArray[np.float64]:
    """Standard errors from the inverse observed information at an optimum.

    Requires ``at`` to be a stationary point; the information matrix
    must be positive definite, otherwise the failure is reported rather
    than patched over.
    """
    at = np.asarray(at, dtype=np.float64)
    grad = _fd_gradient(surface, at)
    tol = 1e-4 * (1.0 + abs(surface(at)))
    if np.max(np.abs(grad)) > tol:
        raise InvalidDataError(
            f"standard errors requested away from a stationary point "
            f"(|gradient| = {np.max(np.abs(grad)):.3g})"
        )
    info = observed_information(surface, at)
    try:
        lower = np.linalg.cholesky(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(
            "observed information is not positive definite"
        ) from exc
    inv_lower = np.linalg.inv(lower)
    cov = inv_lower.T @ inv_lower
    return np.sqrt(np.diag(cov))
