"""Weibull likelihood primitives and record-data estimation.

The joint density of upper records r_0 < ... < r_n factorizes through
the hazard, giving the log-likelihood

    l(alpha, beta) = (n+1) log beta - beta (n+1) log alpha
                     + (beta - 1) sum_j log r_j - (r_n / alpha)**beta

which admits closed-form maximum likelihood estimates.  Because
(r_n / alpha)**beta = k = n + 1 at the MLE, the inverse observed
information is closed-form too: se_beta = beta / sqrt(k) and
se_alpha = alpha sqrt((1 + ln(k)**2) / k) / beta.  Under a common shape,
with K = k1 + k2, se_beta = beta / sqrt(K) and
se_alpha_i = alpha_i sqrt(1 / k_i + ln(k_i)**2 / K) / beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateDataError, InvalidDataError, SingularInformationError
from .records import RecordSeries

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
    """sum_j log(r_n / r_j) over j = 0..n (the j = n term is zero)."""
    r = series.values
    return float(np.sum(np.log(r[-1]) - np.log(r[:-1])))


def shape_mle(series: RecordSeries) -> float:
    """Closed-form shape estimate ``(n+1) / sum_j log(r_n / r_j)``.

    Cheaper than :func:`mle_records` when standard errors are not
    needed, and robust on series whose curvature is ill-conditioned.
    """
    if series.n == 0:
        raise DegenerateDataError(
            "at least two record values are needed to estimate the shape"
        )
    return (series.n + 1) / _log_ratio_sum(series)


def mle_records(series: RecordSeries) -> WeibullFit:
    """Closed-form maximum likelihood fit from one record series.

    ``beta_hat = (n+1) / sum_j log(r_n / r_j)`` and
    ``alpha_hat = r_n / (n+1)**(1/beta_hat)``.  Standard errors are the
    closed-form inverse observed information at the optimum.
    """
    n = series.n
    if n == 0:
        raise DegenerateDataError(
            "at least two record values are needed to estimate the shape"
        )
    k = n + 1
    beta = shape_mle(series)
    alpha = float(series.values[-1]) / k ** (1.0 / beta)
    params = WeibullParams(alpha=alpha, beta=beta)
    return WeibullFit(
        params=params,
        se_alpha=alpha * math.sqrt((1.0 + math.log(k) ** 2) / k) / beta,
        se_beta=beta / math.sqrt(k),
        loglik=record_loglik(series, params),
    )


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
    if series1.n == 0 and series2.n == 0:
        raise DegenerateDataError(
            "at least one series needs two or more record values"
        )
    s = _log_ratio_sum(series1) + _log_ratio_sum(series2)
    if s <= 0.0:
        raise DegenerateDataError("pooled log-ratio sum must be positive")
    k1, k2 = series1.n + 1, series2.n + 1
    beta = (k1 + k2) / s
    alpha1 = float(series1.values[-1]) / k1 ** (1.0 / beta)
    alpha2 = float(series2.values[-1]) / k2 ** (1.0 / beta)
    return PooledFit(
        beta=beta,
        alpha1=alpha1,
        alpha2=alpha2,
        se_beta=beta / math.sqrt(k1 + k2),
        se_alpha1=alpha1 * math.sqrt(1.0 / k1 + math.log(k1) ** 2 / (k1 + k2)) / beta,
        se_alpha2=alpha2 * math.sqrt(1.0 / k2 + math.log(k2) ** 2 / (k1 + k2)) / beta,
        loglik=pooled_loglik(series1, series2, beta, alpha1, alpha2),
    )


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
