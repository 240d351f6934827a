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

Everything is evaluated in log space.  Writing D_j = log(r_j / max_j
r_j) <= 0, the summands exp(beta * D_j) stay in (0, 1], so the
evaluation cannot overflow at any beta.  D_j is formed from the exact
difference r_j - max r_j where that is at most half of max r_j, so
records whose float logarithms tie still have a positive log gap.
log W is convex in beta, and the root solve is a Newton iteration that
descends onto the root from a starting point that is always to its
right.  The start is read from a small table of log W for each
observed series at fixed multiples of 1 / (its log gap), so it lies
within one table step (9.5%) of a root inside the table's range, and
a root stops once its Newton step falls to 2**-26 of its value, after
which the error is below rounding.  A batch of roots then takes about
four passes.  The solve is split in two: :func:`_bracket_roots` finds
each start and a certified lower bound, the table node below the root
less a slack for float error, and :func:`_newton` polishes from the
start.  A caller that needs only some order statistics of the roots'
ratios can polish just the draws whose brackets reach them.

Record arrays keep their records on the last axis in every signature
here, but are record-major in memory through the solver: the records
are the outermost axis, so a sum over them is ``k - 1`` vector adds
across the whole batch instead of one short row sum per entry.  Every
such sum adds the records in index order (see ``_record_sum``), so each
value is independent of the batch it is computed in; for up to seven
records that order is also the one a row-by-row numpy sum uses, so the
values are unchanged by the layout.  Such record arrays exist only for
observed and simulated data series.  The simulated targets log W_exp(1)
are drawn one record at a time (see ``_exp_targets``), in the same
order, so no array of them has a record axis.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import BracketError, InsufficientDrawsError, InvalidDataError
from .records import RecordSeries, log_to_max
# exp_record_matrix is not called here, but perfbench/tracer.py wraps it
# at this import site.
from .rng import exp_record_matrix, exp_records  # noqa: F401

_CHUNK = 8192

# Start nodes of the root solve in units of 1 / gap, where h >= u.
_START_NODES = np.geomspace(1e-3, 1e2, 128)
# A Newton step at most this fraction of beta leaves an error below rounding.
_CONVERGED = 2.0 ** -26
# Relative margin of a certified lower bound below its table node.
_SLACK = 2.0 ** -20

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
    """Generalized p-value for a hypothesized ratio or difference.

    ``mc_se`` is the Monte Carlo standard error of ``p_value`` over the
    ``m`` draws.
    """

    p_value: float
    pi0: float
    sidedness: str
    m: int
    mc_se: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidDataError("p-value must lie in [0, 1]")


def _record_sum(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sum over the leading (record) axis, adding rows in index order.

    numpy picks its summation algorithm from the array's layout: a sum
    over axis 0 of a (k, n) array adds rows in order, but the same sum
    of a (k, 1) array is pairwise once k >= 8.  Spelling the order out
    makes each entry's sum independent of how many entries share its
    batch, which the draws' prefix and thread-count contract needs.
    """
    total = a[0] + a[1]
    for row in a[2:]:
        total += row
    return total


def _prep_log_records(values: NDArray[np.float64]):
    """Precompute the pieces of log W for record vectors on the last axis.

    Returns ``(d, gap)`` where ``d = log(r / max r)`` and
    ``gap = -mean d = max log r - mean log r``, so that
    ``log W(beta) = beta * gap - log k + log sum exp(beta * d)``.
    ``gap`` drops the last axis; a 1-d input gives a scalar ``gap``.
    ``d`` keeps the shape of ``values`` but is record-major in memory.
    """
    d = log_to_max(np.moveaxis(values, -1, 0))
    return np.moveaxis(d, 0, -1), -_record_sum(d) / len(d)


def _log_am_gm(values: NDArray[np.float64], beta) -> NDArray[np.float64]:
    """log W(beta) for one record vector, vectorized over beta."""
    d, gap = _prep_log_records(values)
    beta = np.asarray(beta, dtype=np.float64)
    k = values.size
    return beta * gap - math.log(k) + np.log(
        _record_sum(np.exp(np.multiply.outer(d, beta)))
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


def _start_table(d, gap, k: int):
    """Start nodes ``beta = u / gap`` of each series and log W_obs at them.

    ``d`` is record-major, ``(k,) + series``.  Returns ``(nodes, h)``,
    both ``series + (len(_START_NODES),)``, where ``h = beta gap +
    log1p(s / k)`` is spelled as in :func:`_newton`, so an
    entry whose target is at most ``h`` has ``g >= 0`` exactly there.
    """
    series = d.shape[1:]
    # A node past the float range (log gap below 6e-307) is inf, its h is
    # nan, and searchsorted orders nan last, so such entries keep beta0.
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = np.broadcast_to(_START_NODES / gap[..., None],
                                series + _START_NODES.shape)
        buf = np.expm1(nodes * d[..., None])
        return nodes, nodes * gap[..., None] + np.log1p(_record_sum(buf) / k)


def _certified_target(k: int) -> float:
    """Smallest target whose root :func:`_bracket_roots` bounds from below.

    See :func:`_bracket_roots`: with ``c = 8 eps k (k + 9)``, the bound
    holds once ``c (1 + log k / t) <= _SLACK``; for ``k`` so large that
    ``c >= _SLACK`` no target qualifies.
    """
    c = 8.0 * 2.0 ** -52 * k * (k + 9)
    return c * math.log(k) / (_SLACK - c) if c < _SLACK else math.inf


def _bracket_roots(log_obs_d, log_obs_gap, k: int, target):
    """Start and certified lower bound of each root of log W_obs = target.

    ``log_obs_d`` has shape (..., k) with the last axis holding
    ``log(r / max r)`` for each observed series; ``log_obs_gap`` and
    ``target`` broadcast against its leading axes.  Returns ``(start,
    lower)``, both of the broadcast leading shape.

    With ``s = sum expm1(beta d)``, ``g(beta) = beta gap + log1p(s / k)
    - target`` is convex and increasing, and ``g >= 0`` at ``beta0 =
    (target + log k) / gap`` because ``max d = 0``.  A closer start
    comes from a table per observed series: ``h = g + target`` at the
    fixed nodes ``u / gap``, ``u`` geometric over [1e-3, 1e2].  Each
    entry starts at the smaller of ``beta0`` and the first node whose
    ``h`` reaches its target, found by ``searchsorted``; ``h`` is
    evaluated exactly as :func:`_newton` evaluates it, so ``g >= 0``
    holds there in float arithmetic too.  The start depends only on the
    entry's series and target.  The descent from it never rises, so the
    start bounds the float root from above.

    ``lower`` is the node below the start's, less a relative
    ``_SLACK``, and bounds the float root from below; it is NaN where
    that cannot be certified: no node lies below the target, or the
    target is under :func:`_certified_target`.  The slack covers the
    float error of ``g``.  In units ``u = beta gap`` the terms of ``g``
    are at most ``u`` in size and ``1 + s / k >= 1 / k``, the largest
    record adding ``expm1(0) = 0``.  Rounding the products, the expm1
    terms (4 ulps each), the ``k - 1`` ordered adds, the quotient,
    log1p (4 ulps) and the last two adds then keeps the error of ``g``
    below ``E = eps k (k + 9) u`` for every ``k >= 2``, to first order
    in ``eps = 2**-52``.  ``h`` is convex with ``h(0) = 0``, so
    ``h(lambda u) <= lambda h(u)`` and ``h' >= h / u``: an error ``E``
    in ``g`` moves a root by at most a relative ``E / t``.  That bounds
    the exact root above the node whose float ``h`` lies below ``t``,
    and Newton's last step can undershoot the exact root by at most
    ``3 E / t``: ``E / t`` from ``g`` and ``2 E / t`` from the relative
    error of its derivative, below ``2 k (k + 4) eps`` in the small- and
    large-``u`` limits (and checked between them by the tests).  The
    float root is therefore above the node times ``1 - 4 E / t``.
    Every ``u`` involved is below ``beta0 gap = t + log k``,
    so ``8 E / t <= _SLACK`` -- twice the need -- holds for targets from
    :func:`_certified_target` on.  The same bound puts the exact root
    below ``start * (1 + _SLACK)``.
    """
    target = np.asarray(target, dtype=np.float64)
    gap = np.asarray(log_obs_gap, dtype=np.float64)
    log_obs_d = np.asarray(log_obs_d, dtype=np.float64)
    series = np.broadcast_shapes(log_obs_d.shape[:-1], gap.shape)
    shape = np.broadcast_shapes(series, target.shape)
    with np.errstate(divide="ignore", over="ignore"):
        start = np.broadcast_to((target + math.log(k)) / gap, shape).copy()
    solvable = (target > 0.0) & (start < np.inf)
    if not np.all(solvable):
        idx = int(np.argmin(solvable.ravel()))
        raise BracketError(
            "pivotal equation has no finite positive root: log W_exp(1) = "
            f"{np.broadcast_to(target, shape).ravel()[idx]:.17g}, observed "
            f"log gap = {np.broadcast_to(gap, shape).ravel()[idx]:.17g}",
            replicate=idx,
        )
    d = np.moveaxis(np.broadcast_to(log_obs_d, series + (k,)), -1, 0)
    nodes, h = _start_table(d, gap, k)
    # One lookup per series, over the entries that share it.  A target
    # above every node's h keeps beta0 through the inf column, and one
    # below node 0's h gets the NaN lower bound.
    lead = (1,) * (len(shape) - len(series)) + series
    lows = np.concatenate([np.full(series + (1,), np.nan),
                           nodes * (1.0 - _SLACK)], axis=-1)
    nodes = np.concatenate([nodes, np.full(series + (1,), np.inf)], axis=-1)
    nodes, lows = nodes.reshape(lead + (-1,)), lows.reshape(lead + (-1,))
    h = h.reshape(lead + h.shape[-1:])
    targets = np.broadcast_to(target, shape)
    lower = np.empty(shape)
    for idx in np.ndindex(lead):
        sel = tuple(i if n > 1 else slice(None) for i, n in zip(idx, lead))
        sel += (Ellipsis,)
        j = np.searchsorted(h[idx], targets[sel])
        np.minimum(start[sel], nodes[idx][j], out=start[sel])
        lower[sel] = lows[idx][j]
    np.copyto(lower, np.nan, where=targets < _certified_target(k))
    return start, lower


def _newton(d, gap, k: int, target, beta) -> NDArray[np.float64]:
    """Newton descent onto log W_obs(beta) = target from ``beta``.

    ``beta`` holds starts from :func:`_bracket_roots` and is overwritten
    with the roots; ``d`` is record-major, ``(k,) + shape`` after
    broadcasting against ``beta``, and ``gap`` and ``target`` broadcast
    against ``beta``.  Newton's method from the right of the root of the
    convex ``g`` descends monotonically onto it.  An entry stops once
    ``g <= 0``, a step no longer lowers its beta, or a step was at most
    2**-26 of beta: Newton's error after a step of relative size delta
    is of order delta**2, so the next step would be rounding noise.
    Each entry stops on its own values, so a root never depends on the
    other entries in a batch.

    The work buffer is record-major, ``(k,) + shape``, so each pass
    sums records with ``k - 1`` adds over the whole batch; the sums run
    in the fixed order of :func:`_record_sum`, so a root is the same
    whether it is solved alone or in a batch of any shape.
    """
    active = np.ones(beta.shape, dtype=bool)
    buf = np.empty((k,) + beta.shape)
    while True:
        np.multiply(beta, d, out=buf)
        np.expm1(buf, out=buf)
        s = _record_sum(buf)
        g = beta * gap + np.log1p(s / k) - target
        buf *= d
        # g'(beta) = (sum expm1(beta d) d + gap s) / (k + s)
        step = g * (k + s) / (_record_sum(buf) + gap * s)
        nxt = beta - step
        active &= (g > 0.0) & (nxt < beta)
        np.copyto(beta, nxt, where=active)
        active &= step > _CONVERGED * beta
        if not np.any(active):
            return beta


def _solve_roots(log_obs_d, log_obs_gap, k: int, target) -> NDArray[np.float64]:
    """Vectorized root solve of log W_obs(beta) = target.

    Shapes as in :func:`_bracket_roots`; returns the roots with the
    broadcast leading shape, each polished by :func:`_newton` from its
    start.
    """
    start, _ = _bracket_roots(log_obs_d, log_obs_gap, k, target)
    d = np.moveaxis(np.asarray(log_obs_d, dtype=np.float64), -1, 0)
    d = d.reshape(d.shape[:1] + (1,) * (start.ndim + 1 - d.ndim) + d.shape[1:])
    return _newton(d, np.asarray(log_obs_gap, dtype=np.float64), k,
                   np.asarray(target, dtype=np.float64), start)


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
    target = _exp_log_am_gm(exp_records.values[None, :])
    root = _solve_roots(d[None, :], gap, observed.values.size, target)
    return float(root[0])


def _exp_log_am_gm(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """log W at beta = 1 for each row of exponential record values.

    The means run over the record axis in :func:`_record_sum` order, so
    a row's value does not depend on the batch it is computed in.
    """
    r = np.moveaxis(rows, -1, 0)
    return np.log(_record_sum(r) / len(r)) - _record_sum(np.log(r)) / len(r)


def _exp_targets(seed, stream_ids, k: int) -> NDArray[np.float64]:
    """log W at beta = 1 of the exponential records of each stream.

    Bit for bit ``_exp_log_am_gm(exp_record_matrix(seed, stream_ids, k))``:
    the same records, added in :func:`_record_sum` order, but drawn one
    record at a time, so the only arrays alive are the size of one
    record of every stream, whatever ``k`` is.
    """
    total = log_total = 0.0
    for r in exp_records(seed, stream_ids, k):
        total += r
        log_total += np.log(r)
    return np.log(total / k) - log_total / k


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
    target = _exp_targets(seed, ids, len(series))
    d, gap = _prep_log_records(series.values)
    try:
        return _solve_roots(d, gap, len(series), target)
    except BracketError as exc:
        rep = start + (exc.replicate or 0)
        raise BracketError(f"replicate {rep}: {exc}", replicate=rep) from exc


def sample_pivotal(series1: RecordSeries, series2: RecordSeries, kind: str,
                   m: int, seed: int, threads: int | None = None,
                   shared_streams: bool = False) -> PivotalDraws:
    """Monte Carlo draws of the shape ratio or difference pivot.

    Replicate ``i`` of population ``p`` (1-based) reads the dedicated
    stream ``2 i + (p - 1)`` of ``seed``, so the draw vector is a pure
    function of the inputs: any ``threads`` value, including None for
    serial execution, yields bitwise-identical output.  A replicate
    whose pivotal equation has no positive root aborts the whole sample
    with ``BracketError``, because silently dropping replicates would
    bias the pivotal distribution.

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
                      m=draws.m, mc_se=math.sqrt(p * (1.0 - p) / draws.m))


def p_value_two_sided(draws: PivotalDraws, pi0: float) -> TestResult:
    """Twice the smaller tail frequency q around ``pi0``, capped at 1.

    Its Monte Carlo standard error is that of 2 q, not of a frequency p.
    """
    below = float(np.count_nonzero(draws.values < pi0))
    above = float(np.count_nonzero(draws.values > pi0))
    q = min(below, above) / draws.m
    return TestResult(p_value=min(1.0, 2.0 * q), pi0=pi0,
                      sidedness="two-sided", m=draws.m,
                      mc_se=2.0 * math.sqrt(q * (1.0 - q) / draws.m))
