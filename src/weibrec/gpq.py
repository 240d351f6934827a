"""Generalized pivotal inference for Weibull shapes from record values.

The workhorse statistic is the arithmetic-mean / geometric-mean ratio
of the powered records,

    W(beta) = sum_j r_j**beta / [(n+1) * (prod_j r_j)**(beta/(n+1))],

which is strictly increasing in beta, equals 1 in the beta -> 0 limit,
and is invariant to rescaling the records (the scale factor cancels).
Matching W evaluated on the observed records against the same
functional evaluated on simulated unit-exponential records (at beta=1)
yields one equation with a unique positive root.  The root plays the
role of a pivotal quantity for the shape: ratios and differences of
roots from two populations give Monte Carlo draws whose percentiles
form confidence intervals and whose tail frequencies form p-values.

Everything is evaluated in log space.  Writing D_j = log r_j - max_j
log r_j <= 0, the summands exp(beta * D_j) stay in (0, 1], so the
evaluation cannot overflow even while the bracketing phase probes
beta = 10**6.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import BracketError, InsufficientDrawsError, InvalidDataError
from .records import RecordSeries
from .rng import exp_record_matrix

_BETA_LO = 1e-8
_BETA_HI_CAP = 1e6
_BISECT_ITERS = 60
_CHUNK = 8192

_KINDS = ("ratio", "difference", "single-shape")
_ESTIMAND_FOR_KIND = {"ratio": "pi", "difference": "delta", "single-shape": "beta"}


@dataclass(frozen=True)
class PivotalDraws:
    """Monte Carlo draws of a pivotal quantity, ordered by replicate."""

    values: NDArray[np.float64] = field(repr=False)
    kind: str
    m: int
    seed: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidDataError(f"unknown draw kind {self.kind!r}")
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size != self.m or self.m < 1:
            raise InvalidDataError("draws must be a 1-d array of length m >= 1")
        if not np.all(np.isfinite(arr)):
            raise InvalidDataError("draws must be finite")
        if self.kind == "ratio" and np.any(arr <= 0.0):
            raise InvalidDataError("ratio draws must be strictly positive")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class IntervalEstimate:
    """Two-sided percentile interval with its Monte Carlo metadata."""

    lower: float
    upper: float
    level: float
    m: int
    estimand: str

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise InvalidDataError("interval endpoints are out of order")
        if not 0.0 < self.level < 1.0:
            raise InvalidDataError("confidence level must be in (0, 1)")


@dataclass(frozen=True)
class TestResult:
    """Generalized p-value for a hypothesized ratio or difference."""

    p_value: float
    pi0: float
    sidedness: str
    m: int

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidDataError("p-value must lie in [0, 1]")


def _prep_log_records(values: NDArray[np.float64]):
    """Precompute the pieces of log W for record vectors on the last axis.

    Returns ``(d, gap)`` where ``d = log r - max log r`` and
    ``gap = max log r - mean log r``, so that
    ``log W(beta) = beta * gap - log k + log sum exp(beta * d)``.
    ``gap`` drops the last axis; a 1-d input gives a scalar ``gap``.
    """
    log_r = np.log(values)
    mx = np.max(log_r, axis=-1, keepdims=True)
    return log_r - mx, mx[..., 0] - np.mean(log_r, axis=-1)


def _log_am_gm(values: NDArray[np.float64], beta) -> NDArray[np.float64]:
    """log W(beta) for one record vector, vectorized over beta."""
    d, gap = _prep_log_records(values)
    beta = np.asarray(beta, dtype=np.float64)
    k = values.size
    return beta * gap - math.log(k) + np.log(
        np.sum(np.exp(beta[..., None] * d), axis=-1)
    )


def am_gm_ratio(series: RecordSeries, beta: float) -> float:
    """The ratio of arithmetic to geometric mean of ``r_j**beta``.

    Always >= 1, strictly increasing in beta, approaching 1 as beta
    tends to 0, and invariant to rescaling the records.
    """
    if not beta > 0.0:
        raise InvalidDataError("beta must be positive")
    if series.n < 1:
        raise InvalidDataError("need at least two record values")
    with np.errstate(over="ignore"):
        return float(np.exp(_log_am_gm(series.values, beta)))


def pivotal_equation(observed: RecordSeries, exp_records: RecordSeries,
                     beta: float) -> float:
    """W(observed, beta) minus W(exp_records, 1): zero at the pivot root."""
    if exp_records.n != observed.n:
        raise InvalidDataError(
            f"record counts differ: observed n = {observed.n}, "
            f"exponential n = {exp_records.n}"
        )
    return am_gm_ratio(observed, beta) - am_gm_ratio(exp_records, 1.0)


def _solve_roots(log_obs_d, log_obs_gap, k: int, target) -> NDArray[np.float64]:
    """Vectorized root solve of log W_obs(beta) = target.

    ``log_obs_d`` has shape (..., k) with the last axis holding
    ``log r - max log r`` for each observed series; ``log_obs_gap``
    and ``target`` broadcast against its leading axes.  Returns the
    roots with the broadcast leading shape.

    Bracketing doubles upward from 1 (capped), then bisects on log beta
    for a fixed iteration count, which is deterministic and reaches
    relative accuracy far below 1e-10.
    """
    log_obs_d = np.asarray(log_obs_d, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    gap = np.asarray(log_obs_gap, dtype=np.float64)

    def f(beta):
        beta = np.asarray(beta, dtype=np.float64)
        s = np.sum(np.exp(beta[..., None] * log_obs_d), axis=-1)
        return beta * gap - math.log(k) + np.log(s) - target

    shape = np.broadcast_shapes(log_obs_d.shape[:-1], gap.shape, target.shape)
    f_lo = np.broadcast_to(f(np.asarray(_BETA_LO)), shape)
    bad = f_lo >= 0.0
    if np.any(bad):
        idx = int(np.argmax(bad.ravel()))
        g_lo = float(np.exp((f_lo + target).ravel()[idx]) -
                     np.exp(target.ravel()[idx]))
        raise BracketError(
            f"pivotal equation is non-negative at the lower bracket "
            f"endpoint {_BETA_LO:g}",
            replicate=idx, lo=_BETA_LO, hi=_BETA_HI_CAP, g_lo=g_lo,
        )

    # Doubling sweep: hi candidates 1, 2, 4, ..., 2**19, then the cap.
    candidates = [2.0 ** j for j in range(20)] + [_BETA_HI_CAP]
    hi_log = np.full(shape, np.nan)
    lo_log = np.full(shape, math.log(_BETA_LO))
    prev_log = None
    unresolved = np.ones(shape, dtype=bool)
    for cand in candidates:
        f_c = np.broadcast_to(f(np.asarray(cand)), shape)
        newly = unresolved & (f_c > 0.0)
        hi_log[newly] = math.log(cand)
        if prev_log is not None:
            lo_log[newly] = prev_log
        unresolved &= ~newly
        prev_log = math.log(cand)
        if not np.any(unresolved):
            break
    if np.any(unresolved):
        idx = int(np.argmax(unresolved.ravel()))
        f_hi = float(np.broadcast_to(f(np.asarray(_BETA_HI_CAP)),
                                     shape).ravel()[idx])
        t = float(target.ravel()[idx])
        raise BracketError(
            f"no sign change up to the bracket cap {_BETA_HI_CAP:g}",
            replicate=idx, lo=_BETA_LO, hi=_BETA_HI_CAP,
            g_lo=float(np.exp(f_lo.ravel()[idx] + t) - np.exp(t)),
            g_hi=f_hi,
        )

    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo_log + hi_log)
        pos = f(np.exp(mid)) > 0.0
        hi_log = np.where(pos, mid, hi_log)
        lo_log = np.where(pos, lo_log, mid)
    return np.exp(0.5 * (lo_log + hi_log))


def solve_shape_pivot(observed: RecordSeries, exp_records: RecordSeries) -> float:
    """The unique positive root of the pivotal equation in beta."""
    if exp_records.n != observed.n:
        raise InvalidDataError(
            f"record counts differ: observed n = {observed.n}, "
            f"exponential n = {exp_records.n}"
        )
    if observed.n < 1:
        raise InvalidDataError("need at least two record values")
    d, gap = _prep_log_records(observed.values)
    target = _log_am_gm(exp_records.values, 1.0)
    root = _solve_roots(d[None, :], gap, observed.values.size,
                        np.asarray([target]))
    return float(root[0])


def _exp_log_am_gm(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """log W at beta = 1 for each row of exponential record values."""
    return np.log(np.mean(rows, axis=-1)) - np.mean(np.log(rows), axis=-1)


def _map_spans(fn, total: int, size: int, threads: int | None) -> list:
    """``fn(start, stop)`` for each span of ``size`` covering ``[0, total)``,
    in span order; spans run on ``threads`` threads but never depend on it.
    """
    spans = [(s, min(s + size, total)) for s in range(0, total, size)]
    if threads is not None and threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda span: fn(*span), spans))
    return [fn(s, e) for s, e in spans]


def _solve_span(series: RecordSeries, seed: int, offset: int, start: int,
                stop: int) -> NDArray[np.float64]:
    """Pivot roots of one population for replicates ``[start, stop)``.

    Replicate ``i`` reads stream ``2 i + offset`` of ``seed``.
    """
    ids = 2 * np.arange(start, stop, dtype=np.uint64) + np.uint64(offset)
    target = _exp_log_am_gm(exp_record_matrix(seed, ids, len(series)))
    d, gap = _prep_log_records(series.values)
    try:
        return _solve_roots(d, gap, len(series), target)
    except BracketError as exc:
        rep = start + (exc.replicate or 0)
        raise BracketError(
            f"replicate {rep}: {exc}", replicate=rep,
            lo=exc.lo, hi=exc.hi, g_lo=exc.g_lo, g_hi=exc.g_hi,
        ) from exc


def sample_pivotal(series1: RecordSeries, series2: RecordSeries, kind: str,
                   m: int, seed: int, threads: int | None = None,
                   shared_streams: bool = False) -> PivotalDraws:
    """Monte Carlo draws of the shape ratio or difference pivot.

    Replicate ``i`` of population ``p`` (1-based) reads the dedicated
    stream ``2 i + (p - 1)`` of ``seed``, so the draw vector is a pure
    function of the inputs: any ``threads`` value, including None for
    serial execution, yields bitwise-identical output.  A bracketing
    failure in any replicate aborts the whole sample, because silently
    dropping replicates would bias the pivotal distribution.

    ``shared_streams`` makes population 2 reuse population 1's
    exponential records; it exists for diagnostics (identical series
    then give ratio draws exactly 1 and difference draws exactly 0).
    """
    if kind not in ("ratio", "difference"):
        raise InvalidDataError(f"kind must be 'ratio' or 'difference', got {kind!r}")
    if m < 1:
        raise InvalidDataError("m must be at least 1")
    if series1.n < 1 or series2.n < 1:
        raise InvalidDataError("each series needs at least two record values")

    def chunk(start: int, stop: int) -> NDArray[np.float64]:
        t1 = _solve_span(series1, seed, 0, start, stop)
        t2 = _solve_span(series2, seed, 0 if shared_streams else 1, start, stop)
        return t1 / t2 if kind == "ratio" else t1 - t2

    values = np.concatenate(_map_spans(chunk, m, _CHUNK, threads))
    return PivotalDraws(values=values, kind=kind, m=m, seed=seed)


def sample_shape_pivot(series: RecordSeries, m: int, seed: int,
                       threads: int | None = None) -> PivotalDraws:
    """Monte Carlo draws of the single-population shape pivot."""
    if m < 1:
        raise InvalidDataError("m must be at least 1")
    if series.n < 1:
        raise InvalidDataError("need at least two record values")
    values = np.concatenate(_map_spans(
        lambda start, stop: _solve_span(series, seed, 0, start, stop),
        m, _CHUNK, threads))
    return PivotalDraws(values=values, kind="single-shape", m=m, seed=seed)


def _snap(x: float) -> float:
    """Remove float noise from rank products like 0.975 * 100000."""
    nearest = round(x)
    if abs(x - nearest) <= 1e-6 * max(1.0, abs(x)):
        return float(nearest)
    return x


def percentile_ranks(m: int, gamma: float) -> tuple[int, int]:
    """One-based order-statistic ranks of the equal-tail interval.

    Returns ``(ceil(gamma m / 2), floor((1 - gamma/2) m))`` after
    snapping away float noise in the products, so mathematically
    integral ranks are hit exactly.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidDataError("gamma must be in (0, 1)")
    half = _snap(gamma * m / 2.0)
    if half < 1.0:
        raise InsufficientDrawsError(
            f"need m * gamma / 2 >= 1 (got {half:g}); "
            f"increase the draw count or gamma"
        )
    return math.ceil(half), math.floor(_snap((1.0 - gamma / 2.0) * m))


def percentile_interval(draws: PivotalDraws, gamma: float) -> IntervalEstimate:
    """Equal-tail percentile interval from sorted pivotal draws.

    Uses the exact order statistics at one-based ranks
    ``ceil(gamma m / 2)`` and ``floor((1 - gamma/2) m)``; no
    interpolation, so when ``gamma m / 2`` is integral the ranks are
    exactly the classical percentile indices.
    """
    lo_rank, hi_rank = percentile_ranks(draws.m, gamma)
    ordered = np.sort(draws.values)
    return IntervalEstimate(
        lower=float(ordered[lo_rank - 1]),
        upper=float(ordered[hi_rank - 1]),
        level=1.0 - gamma,
        m=draws.m,
        estimand=_ESTIMAND_FOR_KIND[draws.kind],
    )


def p_value_one_sided(draws: PivotalDraws, pi0: float) -> TestResult:
    """Fraction of draws strictly below the hypothesized value.

    Small values are evidence that the estimand exceeds ``pi0``.  Draws
    exactly equal to ``pi0`` count to neither side.
    """
    p = float(np.count_nonzero(draws.values < pi0)) / draws.m
    return TestResult(p_value=p, pi0=pi0, sidedness="one-sided-greater",
                      m=draws.m)


def p_value_two_sided(draws: PivotalDraws, pi0: float) -> TestResult:
    """Twice the smaller tail frequency around ``pi0``, capped at 1."""
    below = float(np.count_nonzero(draws.values < pi0))
    above = float(np.count_nonzero(draws.values > pi0))
    p = min(1.0, 2.0 * min(below, above) / draws.m)
    return TestResult(p_value=p, pi0=pi0, sidedness="two-sided", m=draws.m)
