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
which the error is below rounding.  The table is built once per
observed series, with a bin index over its values (see
:func:`_start_table`): a float's bin is its exponent and four leading
mantissa bits, a bin holds at most one table value, and each target's
start follows from the count of values below its bin in a few flat
passes over the whole batch, with no per-row binary search.  A batch
of roots then takes about four Newton passes.  The solve is split in
two: :func:`_bracket_roots` finds each start and a certified lower
bound, the table node below the root less a slack for float error, and
:func:`_newton` polishes from the start.

An interval reads two order statistics of the draws and a p-value one
tail count, so neither needs every root.  One path serves the
command-line draws and the coverage simulator: :func:`_bracket` draws
the targets and bounds each ratio or difference, :func:`_candidates`
picks the draws whose bounds can reach the ranks or straddle the
threshold, and :func:`_polish` solves just those, giving the values of
a full solve, bit for bit.  :func:`sample_pivotal` keeps only the
bounds, and its candidates re-draw their targets when polished, in
spans of ``_CHUNK`` draws.  ``PivotalDraws.values`` is still the full
solve, made on its first read.  This module runs on the calling thread;
the coverage simulator is the only caller that spreads work over threads, a batch of whole
replicates to each (see :mod:`weibrec.simulate`).

Record arrays are record-major in every signature here and in memory:
the records are the leading axis, so an observed ``d`` is ``(k,
series)`` and a sum over records is ``k - 1`` vector adds across the
whole batch instead of one short row sum per entry.  Targets, starts,
lower bounds and roots are ``(series, draws)``.  Every sum over
records adds them in index order (see ``records._record_sum``, which
the shape MLE shares), so each value is independent of the batch it is
computed in.  The start table, each Newton pass and :func:`am_gm_ratio`
evaluate log W through the one function ``_log_w``.  Every log
W_exp(1) comes from ``_exp_log_am_gm``, which takes one record at a
time.  A simulated target is log W at beta = 1 of ``(1, U_1, ...,
U_{k-1})``, ``k - 1`` uniforms of its stream, which has the law of the
target of ``k`` exponential records (see ``_exp_targets``); the
uniforms are reduced as they are drawn, so no array has a record axis.
The draw updates one array in place and the reduction adds it into its
sums in place, so a batch of targets allocates a few arrays per call
and none per value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import BracketError, InsufficientDrawsError, InvalidDataError
from .records import RecordSeries, _record_sum, log_to_max
# exp_record_matrix is not called here, but perfbench/tracer.py wraps it
# at this import site.
from .rng import exp_record_matrix, uniforms  # noqa: F401

# Draws per span when bracketing, and when polishing draws.  A polish span
# holds a (k, span) Newton buffer; at M = 1e5 an interval or p-value
# polishes 6,000 to 10,000 draws, one or two spans.
_CHUNK = 8192

# Start nodes of the root solve in units of 1 / gap, where h >= u.
_START_NODES = np.geomspace(1e-3, 1e2, 128)
# Node j and node j - 1 for each count j of nodes below a target: past the
# last node there is none above, and before the first none below.
_NODES_ABOVE = np.append(_START_NODES, np.inf)
_NODES_BELOW = np.insert(_START_NODES, 0, np.nan)
# A positive float's bits shifted right by this many give its bin in the
# start lookup: the exponent and four leading mantissa bits.
_BIN_SHIFT = 48
# A Newton step at most this fraction of beta leaves an error below rounding.
_CONVERGED = 2.0 ** -26
# Relative margin of a certified lower bound below its table node.
_SLACK = 2.0 ** -20

_KINDS = ("ratio", "difference", "single-shape")
_ESTIMAND_FOR_KIND = {"ratio": "pi", "difference": "delta", "single-shape": "beta"}


class PivotalDraws:
    """Monte Carlo draws of a pivotal quantity, ordered by replicate.

    Draw ``i`` is the float value ``values[i]``, and ``below[i] <=
    values[i] <= above[i]``.  Draws built from explicit ``values`` have
    ``below`` and ``above`` equal to them.  Draws from
    :func:`sample_pivotal` or :func:`sample_shape_pivot` hold the bounds
    from their roots' brackets and their series' start tables, and solve
    ``values`` in full on its first read.  :func:`percentile_interval`
    and the p-values need neither: they polish only the draws whose
    bounds can reach their order statistics or straddle their threshold
    (see :func:`_candidates`).  The draws are read-only.  They pickle and
    copy, reporting as the original does, bit for bit; ``==`` is identity.
    """

    __slots__ = ("kind", "m", "seed", "below", "above", "_tables", "_values")

    def __init__(self, values, kind: str, m: int, seed: int):
        if kind not in _KINDS:
            raise InvalidDataError(f"unknown draw kind {kind!r}")
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size != m or m < 1:
            raise InvalidDataError("draws must be a 1-d array of length m >= 1")
        if not np.all(np.isfinite(arr)):
            raise InvalidDataError("draws must be finite")
        if kind == "ratio" and np.any(arr <= 0.0):
            raise InvalidDataError("ratio draws must be strictly positive")
        self._set(kind, m, seed, arr, arr, None, arr)

    @classmethod
    def _from_slots(cls, *slots):
        """Draws with every slot given, in ``__slots__`` order."""
        draws = object.__new__(cls)
        draws._set(*slots)
        return draws

    def _set(self, *slots):
        """Set every slot, in ``__slots__`` order, past the read-only guard;
        arrays become read-only."""
        for name, value in zip(self.__slots__, slots):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PivotalDraws is read-only: cannot set {name!r}")

    def __reduce__(self):
        # Rebuilt through _from_slots, since the guard above refuses the
        # default restore of each slot.
        return self._from_slots, tuple(getattr(self, n) for n in self.__slots__)

    def __repr__(self):
        return f"PivotalDraws(kind={self.kind!r}, m={self.m}, seed={self.seed})"

    @property
    def values(self) -> NDArray[np.float64]:
        """Every draw, solved on first read for sampled draws."""
        if self._values is None:
            values = self._solve(np.arange(self.m))
            values.flags.writeable = False
            object.__setattr__(self, "_values", values)
        return self._values

    def _solve(self, idx: NDArray[np.intp]) -> NDArray[np.float64]:
        """The exact draws ``idx``: their targets re-drawn and polished in
        ``_CHUNK`` spans, so that no M-sized target array is held."""
        out = np.empty(idx.size)
        for start in range(0, idx.size, _CHUNK):
            span = idx[start:start + _CHUNK]
            targets = [_pivot_targets([[self.seed]], span, p, len(table.d))
                       for p, table in enumerate(self._tables)]
            out[start:start + _CHUNK] = _polish(
                self.kind, self._tables, np.zeros((1, 1), np.intp), targets)
        return out

    def _settled(self, ranks=(), pi0=None) -> NDArray[np.float64]:
        """The draws, exact where they can reach ``ranks`` or straddle ``pi0``.

        Each other draw holds its lower bound, which lies on the same
        side of each rank's value, and of ``pi0``, as the draw itself:
        the values at those ranks and the counts on either side of
        ``pi0`` are those of :attr:`values`, bit for bit.
        """
        if pi0 is not None and not math.isfinite(pi0):
            raise InvalidDataError(f"pi0 must be finite, got {pi0}")
        idx = np.flatnonzero(_candidates(self.below, self.above, ranks, pi0))
        exact = self._solve(idx) if self._values is None else self._values[idx]
        # Copied only now, so the copy and the solve's buffers never coexist.
        settled = self.below.copy()
        settled[idx] = exact
        return settled


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


def _prep_log_records(values: NDArray[np.float64]):
    """Precompute the pieces of log W for record-major record arrays.

    ``values`` is ``(k,) + series``, records on the leading axis.
    Returns ``(d, gap)`` where ``d = log(r / max r)`` has the shape of
    ``values`` and ``gap = -mean d = max log r - mean log r`` is
    ``series``, so that ``log W(beta) = beta * gap - log k + log sum
    exp(beta * d)``.  A 1-d input gives a scalar ``gap``.
    """
    d = log_to_max(values)
    return d, -_record_sum(d) / len(d)


def _check_series(*series: RecordSeries) -> None:
    """Require two records or more in each series."""
    if any(s.n < 1 for s in series):
        raise InvalidDataError("need at least two record values")


def _check_counts(observed: RecordSeries, exp_records: RecordSeries) -> None:
    """Require the two sides of the pivotal equation to have equal counts."""
    if exp_records.n != observed.n:
        raise InvalidDataError(f"record counts differ: observed n = "
                               f"{observed.n}, exponential n = {exp_records.n}")


def _log_am_gm(values: NDArray[np.float64], beta) -> NDArray[np.float64]:
    """log W(beta) of one record vector, vectorized over beta, by ``_log_w``."""
    d, gap = _prep_log_records(values)
    beta = np.asarray(beta, dtype=np.float64)
    d = d.reshape(d.shape + (1,) * beta.ndim)
    return _log_w(beta, d, gap, np.empty(d.shape[:1] + beta.shape))[0]


def am_gm_ratio(series: RecordSeries, beta: float) -> float:
    """The ratio of arithmetic to geometric mean of ``r_j**beta``.

    Always >= 1, strictly increasing in beta, approaching 1 as beta
    tends to 0, and invariant to rescaling the records.  Evaluated as
    in the root solve (:func:`_log_am_gm`).
    """
    if not beta > 0.0:
        raise InvalidDataError("beta must be positive")
    _check_series(series)
    with np.errstate(over="ignore"):
        return float(np.exp(_log_am_gm(series.values, beta)))


def pivotal_equation(observed: RecordSeries, exp_records: RecordSeries,
                     beta: float) -> float:
    """W(observed, beta) minus W(exp_records, 1): zero at the pivot root."""
    _check_counts(observed, exp_records)
    return am_gm_ratio(observed, beta) - am_gm_ratio(exp_records, 1.0)


def _carve(row, shape):
    """A float64 array of ``shape`` on a 1-d workspace row.

    The array is a view of the row's leading elements, so the row must
    hold at least ``prod(shape)`` of them.  Without a row (None) there is
    no array, and the callee allocates a fresh one, as numpy's ``out=None``
    does.
    """
    return None if row is None else row[:math.prod(shape)].reshape(shape)


def _view(a, dtype):
    """``a`` viewed as ``dtype``, or None for a fresh array, as ``_carve``."""
    return None if a is None else a.view(dtype)


def _log_w(beta, d, gap, buf):
    """``(h, s)``: ``h`` is log W_obs at ``beta``.

    ``d`` is record-major and broadcasts against ``beta`` into ``buf``,
    ``(k,) + beta.shape``, or into a fresh array if ``buf`` is None;
    ``gap`` broadcasts against ``beta``.  With ``s = sum expm1(beta d)``,
    ``h = beta gap + log1p(s / k)``.  The start table and each Newton
    pass both evaluate ``h`` here, so a table entry with ``h >= target``
    has ``g = h - target >= 0`` in the Newton pass at that beta too.
    ``buf`` is left holding ``expm1(beta d)``.
    """
    buf = np.multiply(beta, d, out=buf)
    np.expm1(buf, out=buf)
    s = _record_sum(buf)
    return beta * gap + np.log1p(s / len(d)), s


class _StartTable(NamedTuple):
    """Each observed series' start table, with the bin index over its ``h``.

    ``d`` is ``(k, series)`` and ``gap`` ``(series,)``, as from
    :func:`_prep_log_records`.  ``h_pad`` is ``(series,
    len(_START_NODES) + mult)``: ``h``, the running maximum of log W
    over the nodes ``_START_NODES / gap``, then ``mult`` NaN entries.
    The other fields are the index that :func:`_node_index` reads; see
    :func:`_start_table`.
    """

    d: NDArray[np.float64]
    gap: NDArray[np.float64]
    h_pad: NDArray[np.float64]
    # (series, 1): the key of each row's first bin.
    bin_lo: NDArray[np.int64]
    # (series, bins): how many entries of the row lie below each bin.
    bins: NDArray[np.integer]

    @property
    def h(self) -> NDArray[np.float64]:
        """``h`` at each series' nodes, ``(series, len(_START_NODES))``."""
        return self.h_pad[:, :_START_NODES.size]


def _start_table(d, gap, work=None) -> _StartTable:
    """The start table of each series and a bin index over it.

    ``d`` is ``(k, series)`` and ``gap`` is ``(series,)``.  log W is
    evaluated at the nodes ``u / gap`` by :func:`_log_w`, as in
    :func:`_newton`, and ``h`` is its running maximum along the row.  So
    every row is sorted, and the first node whose ``h`` reaches a target
    is the first whose log W does.  One table serves every bracket and
    polish chunk of its series' draws.  The ``(k, series, 128)`` buffer
    of that evaluation is carved from the workspace row ``work`` (see
    :func:`_carve`).

    The index bins a positive float ``x`` by ``x.view(int64) >> 48``: its
    exponent and four leading mantissa bits.  This key is monotone in
    ``x``, and a bin is at most 6.25% wide, 16 to an octave.  ``h`` is
    convex with ``h(0) = 0``, so ``h(u') >= (u' / u) h(u)`` for ``u' >
    u``; the nodes lie 9.5% apart, so consecutive entries differ by at
    least 9.5% and a bin holds at most one node.  Each row keeps, from
    its first bin ``bin_lo`` on, ``bins[c]``: the number of its entries
    below bin ``bin_lo + c``.  Entries with ``h <= 0`` count below every
    bin.  The entries inside a bin follow those below it, so the entries
    below a target number its bin's count plus those of the next
    ``mult`` entries that lie below the target (see :func:`_node_index`).
    ``mult`` is the largest number of entries measured in one bin, so the
    lookup's correctness never rests on the convexity argument; the
    argument only keeps ``mult`` at about 1.  ``h_pad`` is ``h``
    followed by ``mult`` NaN entries, which lie below no target, so the
    comparisons never leave their row.  The count equals
    ``np.searchsorted(h[i], target)``.
    """
    # Records tied in float give a zero gap and a NaN row; see _require_roots.
    with np.errstate(divide="ignore", invalid="ignore"):
        h, _ = _log_w(_START_NODES / gap[:, None], d[..., None], gap[:, None],
                      _carve(work, d.shape + _START_NODES.shape))
    np.maximum.accumulate(h, axis=1, out=h)
    positive = h > 0.0
    key = h.view(np.int64) >> _BIN_SHIFT
    # A row with no positive entry gets a first bin above every target's.
    lo = np.min(key, axis=1, keepdims=True, where=positive, initial=2 ** 62)
    # An entry in bin c counts below bins c + 1 on.
    col = key - lo + 1
    width = int(col.max(where=positive, initial=0)) + 1
    rows = np.arange(len(h))[:, None]
    hist = np.bincount((rows * width + col)[positive],
                       minlength=rows.size * width).reshape(-1, width)
    mult = int(hist.max(initial=0))
    below = np.cumsum(hist, axis=1)
    below += np.count_nonzero(h <= 0.0, axis=1)[:, None]
    return _StartTable(
        d, gap, np.concatenate([h, np.full((len(h), mult), np.nan)], axis=1),
        lo, below.astype(np.min_scalar_type(h.shape[1])))


def _node_index(table: _StartTable, target, rows=None, out=None,
                scratch=(None, None)) -> NDArray[np.integer]:
    """How many entries of each row of ``table.h`` lie below each target.

    ``target`` is positive, and target row ``i`` reads series ``rows[i,
    0]`` (series ``i`` if ``rows`` is None).  The result is
    ``np.searchsorted`` of each target in its series' ``h``, found from
    the index of :func:`_start_table` in a few passes over the whole
    batch: the count below the target's bin, plus one for each of the
    next ``mult`` entries that lies below the target.  A target below a
    row's first bin or above its last reads the count of the nearest
    one, which is the same.  Each count reads only its own target and
    row, so it does not depend on the batch.

    The counts are returned in the bins' small type, or copied into the
    int64 view of ``out``, which ``np.take`` reads as indices without
    converting them.  The two ``scratch`` arrays hold the flat indices,
    in their int64 view, and the entries read.  ``out`` and ``scratch``
    are float arrays like ``target``, or None for fresh ones.
    """
    rows = np.arange(len(table.h))[:, None] if rows is None else rows
    width = table.bins.shape[1]
    x = np.right_shift(target.view(np.int64), _BIN_SHIFT,
                       out=_view(scratch[0], np.int64))
    x -= table.bin_lo[rows, 0]
    np.clip(x, 0, width - 1, out=x)
    x += rows * width
    j = table.bins.take(x)
    # x now indexes the row's first entry in the target's bin.
    np.add(j, rows * table.h_pad.shape[1], out=x)
    entry = np.empty(target.shape) if scratch[1] is None else scratch[1]
    below = np.empty(target.shape, dtype=bool)
    flat = table.h_pad.ravel()
    for r in range(table.h_pad.shape[1] - table.h.shape[1]):
        # The indices are in range; "clip", unlike "raise", writes
        # straight into ``entry`` instead of into a copy of it.
        np.take(flat[r:], x, out=entry, mode="clip")
        np.less(entry, target, out=below)
        j += below
    if out is None:
        return j
    counts = out.view(np.int64)
    counts[...] = j
    return counts


def _certified_target(k: int) -> float:
    """Smallest target whose root :func:`_bracket_roots` bounds from below.

    See :func:`_bracket_roots`: with ``c = 8 eps k (k + 9)``, the bound
    holds once ``c (1 + log k / t) <= _SLACK``; for ``k`` so large that
    ``c >= _SLACK`` no target qualifies.
    """
    c = 8.0 * 2.0 ** -52 * k * (k + 9)
    return c * math.log(k) / (_SLACK - c) if c < _SLACK else math.inf


def _gather(nodes, j, out=None):
    """``nodes[j]``: fresh, or written into ``out`` by ``np.take``, which
    with "clip" writes there directly (the counts are in range)."""
    return nodes[j] if out is None else np.take(nodes, j, out=out, mode="clip")


def _require_roots(target, gap) -> None:
    """Raise ``BracketError`` unless every target has a finite positive root.

    That holds where ``target > 0`` and ``gap > 0``.  A positive gap is
    at least ``2**-53 / k`` (see ``log_to_max``), so every node and
    every ``(target + log k) / gap`` is finite.  The gap is ``-0.0``
    where the records tie in float, as simulated records can.
    ``target`` is ``(series, draws)`` and ``gap`` ``(series, 1)``.
    """
    solvable = (target > 0.0) & (gap > 0.0)
    if np.all(solvable):
        return
    idx = int(np.argmin(solvable))
    row, col = np.unravel_index(idx, target.shape)
    raise BracketError(
        "pivotal equation has no finite positive root: log W_exp(1) = "
        f"{target[row, col]:.17g}, observed log gap = {gap[row, 0]:.17g}",
        replicate=idx,
    )


def _bracket_roots(table: _StartTable, target, rows=None, out=(None, None),
                   scratch=(None,) * 3):
    """Start and certified lower bound of each root of log W_obs = target.

    ``table`` holds each observed series' ``d = log(r / max r)``, ``(k,
    series)``, its ``gap``, ``(series,)``, and its start table (see
    :func:`_start_table`); target row ``i`` reads series ``rows[i, 0]``,
    as in :func:`_node_index`.  Returns ``(start, lower)`` like
    ``target``, into the arrays ``out``; the three ``scratch`` arrays
    hold the lookup's counts, its flat indices and then ``target + log
    k``, and its entries.  Each is fresh where None.

    With ``s = sum expm1(beta d)``, ``g(beta) = beta gap + log1p(s / k)
    - target`` is convex and increasing, and ``g >= 0`` at ``beta0 =
    (target + log k) / gap`` because ``max d = 0``.  A closer start
    comes from the table: ``h = g + target`` at the fixed nodes ``u /
    gap``, ``u`` geometric over [1e-3, 1e2].  Each entry starts at the
    smaller of ``beta0`` and node ``j``, the first node whose ``h``
    reaches its target; ``j`` is the number of nodes whose ``h`` lies
    below the target (:func:`_node_index`).  Float division by ``gap``
    is monotone, so that smaller value is ``min(target + log k, u_j) /
    gap``, bit for bit.  ``h`` comes from :func:`_log_w`, as in
    :func:`_newton`, so ``g >= 0`` holds at the start in float arithmetic
    too.  The start depends only on the entry's series and target.  The
    descent from it never rises, so the start bounds the float root from
    above.

    ``lower`` is node ``j - 1``, less a relative ``_SLACK``, and bounds
    the float root from below; it is NaN where that cannot be certified:
    no node lies below the target, or the target is under
    :func:`_certified_target`.  The slack covers the float error of
    ``g``.  In units ``u = beta gap`` the terms of ``g`` are at most
    ``u`` in size and ``1 + s / k >= 1 / k``, the largest record adding
    ``expm1(0) = 0``.  Rounding the products, the expm1 terms (4 ulps
    each), the ``k - 1`` ordered adds, the quotient, log1p (4 ulps) and
    the last two adds then keeps the error of ``g`` below ``E = eps k (k
    + 9) u`` for every ``k >= 2``, to first order in ``eps = 2**-52``.
    ``h`` is convex with ``h(0) = 0``, so ``h(lambda u) <= lambda h(u)``
    and ``h' >= h / u``: an error ``E`` in ``g`` moves a root by at most a
    relative ``E / t``.  That bounds the exact root above the node whose
    float ``h`` lies below ``t``, and Newton's last step can undershoot
    the exact root by at most ``3 E / t``: ``E / t`` from ``g`` and ``2 E
    / t`` from the relative error of its derivative, below ``2 k (k + 4)
    eps`` in the small- and large-``u`` limits (and checked between them
    by the tests).  The float root is therefore above the node times ``1
    - 4 E / t``.  Every ``u`` involved is below ``beta0 gap = t + log
    k``, so ``8 E / t <= _SLACK`` -- twice the need -- holds for targets
    from :func:`_certified_target` on.  The same bound puts the exact
    root below ``start * (1 + _SLACK)``.
    """
    gap = table.gap[:, None] if rows is None else table.gap[rows]
    k = len(table.d)
    _require_roots(target, gap)
    j = _node_index(table, target, rows, scratch[0], scratch[1:])
    start = _gather(_NODES_ABOVE, j, out[0])
    np.minimum(start, np.add(target, math.log(k), out=scratch[1]), out=start)
    lower = _gather(_NODES_BELOW, j, out[1])
    start /= gap
    lower /= gap
    lower *= 1.0 - _SLACK
    np.copyto(lower, np.nan, where=target < _certified_target(k))
    return start, lower


def _newton(d, gap, target, beta, buf=None) -> NDArray[np.float64]:
    """Newton descent onto log W_obs(beta) = target from ``beta``.

    ``beta`` holds starts from :func:`_bracket_roots` and is overwritten
    with the roots; ``d`` is record-major, ``(k,) + beta.shape`` after
    broadcasting against ``beta``, and ``gap`` and ``target`` broadcast
    against ``beta``.  Newton's method from the right of the root of the
    convex ``g`` descends monotonically onto it.  An entry stops once
    ``g <= 0``, a step no longer lowers its beta, or a step was at most
    2**-26 of beta: Newton's error after a step of relative size delta
    is of order delta**2, so the next step would be rounding noise.
    Each entry stops on its own values, so a root never depends on the
    other entries in a batch.

    The work buffer ``buf`` is record-major, ``(k,) + beta.shape``, and
    fresh if not given, so each pass sums records with ``k - 1`` adds
    over the whole batch; the sums run in the fixed order of
    :func:`_record_sum`, so a root is the same whether it is solved alone
    or in a batch of any shape.
    """
    k = len(d)
    active = np.ones(beta.shape, dtype=bool)
    buf = np.empty((k,) + beta.shape) if buf is None else buf
    while True:
        h, s = _log_w(beta, d, gap, buf)
        g = h - target
        buf *= d
        # g'(beta) = (sum expm1(beta d) d + gap s) / (k + s)
        step = g * (k + s) / (_record_sum(buf) + gap * s)
        nxt = beta - step
        active &= (g > 0.0) & (nxt < beta)
        np.copyto(beta, nxt, where=active)
        active &= step > _CONVERGED * beta
        if not np.any(active):
            return beta


def _solve_roots(table: _StartTable, target, rows=None,
                 work=(None, None)) -> NDArray[np.float64]:
    """Roots of log W_obs(beta) = target, of the shape of ``target``.

    Arguments as in :func:`_bracket_roots`; each root is polished by
    :func:`_newton` from its start.  The records gathered for the rows
    and the Newton buffer, ``(k,) + rows.shape`` and ``(k,) +
    target.shape``, go into the two workspace rows ``work`` (see
    :func:`_carve`).
    """
    rows = np.arange(len(table.gap))[:, None] if rows is None else rows
    start, _ = _bracket_roots(table, target, rows)
    k = len(table.d)
    d = np.take(table.d, rows, axis=1, out=_carve(work[0], (k,) + rows.shape),
                mode="clip")
    return _newton(d, table.gap[rows], target, start,
                   _carve(work[1], (k,) + target.shape))


def solve_shape_pivot(observed: RecordSeries, exp_records: RecordSeries) -> float:
    """The unique positive root of the pivotal equation in beta."""
    _check_counts(observed, exp_records)
    _check_series(observed)
    d, gap = _prep_log_records(observed.values[:, None])
    target = _exp_log_am_gm(exp_records.values[:, None])
    return float(_solve_roots(_start_table(d, gap), target[None])[0, 0])


def _exp_log_am_gm(records, out=None,
                   scratch=(None, None)) -> NDArray[np.float64]:
    """log W at beta = 1 of each stream of positive values.

    The values are exponential records, or the uniform stream of
    :func:`_exp_targets`.  ``records`` yields one value of every stream
    at a time, as a record-major ``(k,) + streams`` array does, and may
    yield one array updated in place (see :func:`_exp_targets`).  They
    are added in :func:`_record_sum` order, so a stream's value does not
    depend on its batch.  The first value is copied into the running
    sum; every later add, and the result, are in place in the sums' two
    arrays and one array of logs.  The sum and the result are ``out``,
    and the log sum and the logs are ``scratch``; each is fresh if None.
    """
    records = iter(records)
    first = next(records)
    total = np.empty(np.shape(first)) if out is None else out
    total[...] = first
    log_total = np.log(total, out=scratch[0])
    logs = np.empty_like(total) if scratch[1] is None else scratch[1]
    k = 1
    for k, r in enumerate(records, 2):
        total += r
        log_total += np.log(r, out=logs)
    total /= k
    log_total /= k
    return np.subtract(np.log(total, out=total), log_total, out=total)


def _exp_targets(seed, stream_ids, k: int, out=None,
                 scratch=(None,) * 4) -> NDArray[np.float64]:
    """log W_exp(1) of each stream, from ``k - 1`` of its uniforms.

    For unit-exponential records ``r_1 < ... < r_k``, the ratios ``r_j /
    r_k`` (``j < k``) are the order statistics of ``k - 1`` independent
    uniforms.  log W_exp(1) is scale free and symmetric in the records,
    so it has the law of log W at beta = 1 of ``v = (1, U_1, ...,
    U_{k-1})``, with ``U_j`` word ``j`` of the stream mapped into (0, 1]
    (:func:`uniforms`), unsorted.  That takes ``k - 1`` words and one log
    per value, and the uniforms are reduced as they are drawn, so
    neither the draw nor the reduction allocates per value.

    The targets go into ``out``, and the four ``scratch`` arrays hold the
    base keys, the words and then their uniforms' logs, the mixed words
    and their uniforms, and the log sums; each is a float array of the
    targets' shape, viewed as uint64 where it holds words, or None for a
    fresh one.
    """
    base, word, mixed, log_total = scratch
    u = uniforms(seed, stream_ids, k - 1,
                 [_view(a, np.uint64) for a in (base, word, mixed)])
    # The generator's one array, read by the reducer before it advances.
    first = next(u)
    ones = np.broadcast_to(1.0, first.shape)
    # The words are free while the reducer reads a uniform, so their
    # array holds the uniform's log.
    return _exp_log_am_gm(itertools.chain((ones, first), u), out,
                          (log_total, word))


def _pivot_targets(seed, draws, population: int, k: int,
                   *work) -> NDArray[np.float64]:
    """Targets of ``draws``; draw ``i`` of population ``p`` reads stream 2 i + p.

    ``work``, if given, is the ``out`` and ``scratch`` of :func:`_exp_targets`.
    """
    ids = 2 * np.asarray(draws, dtype=np.uint64) + np.uint64(population)
    return _exp_targets(seed, ids, k, *work)


def _combine(kind: str, roots, out=None):
    """The draw from its populations' roots: U1 / U2, U1 - U2 or U1.

    A ratio or difference goes into ``out`` if given; U1 is ``roots[0]``.
    """
    if kind == "ratio":
        return np.divide(roots[0], roots[1], out=out)
    if kind == "difference":
        return np.subtract(roots[0], roots[1], out=out)
    return roots[0]


# Rows of a workspace: the most per-draw arrays that _bracket holds at once.
_WORK_ROWS = 8
# The rows of _bracket's workspace that hold population p's target, start
# and lower bound; rows 0 to 3 are the scratch of each population's target
# draw and bracket.  Row 4 or 7 (a target) is read by the polish, and rows 5
# and 6 take the draws' upper and lower bounds.
_BRACKET_ROWS = ((4, 5, 6), (7, 3, 1))


def _bracket(kind: str, tables, seeds, rows, draws, work=None):
    """``(below, above, targets)`` of ``draws``, each ``(rows, draws)``.

    ``tables`` holds one :func:`_start_table` per population, and row
    ``i`` reads series ``rows[i, 0]`` of each.  Draw ``i`` of series ``r``
    of population ``p`` reads stream ``2 i + p`` of ``seeds[r]``.  A
    ``BracketError`` names its population; its ``replicate`` is the flat
    index of the rootless target.

    ``work``, if given, is ``_WORK_ROWS`` workspace rows of at least
    ``rows.size * draws.size`` elements each, and every per-draw array
    lives in them (see ``_BRACKET_ROWS``); without it each is fresh.  ``below`` and
    ``above`` are written over population 1's lower bound and start.
    """
    if work is not None:
        work = [_carve(row, (len(rows), len(draws))) for row in work]
    brackets = []
    for p, table in enumerate(tables):
        target_work, roots_work = (), ()
        if work is not None:
            t, s, lo = _BRACKET_ROWS[p]
            target_work = work[t], work[:4]
            roots_work = (work[s], work[lo]), work[:3]
        target = _pivot_targets(seeds[rows], draws, p, len(table.d),
                                *target_work)
        try:
            brackets.append((target, *_bracket_roots(table, target, rows,
                                                     *roots_work)))
        except BracketError as exc:
            raise BracketError(f"population {p + 1}: {exc}",
                               replicate=exc.replicate) from exc
    targets, highs, lows = zip(*brackets)
    # Each float root lies in its bracket, and float division and
    # subtraction are monotone in each argument, so U1 / U2 lies in [low1 /
    # high2, high1 / low2] and U1 - U2 in [low1 - high2, high1 - low2].  An
    # uncertified (NaN) low root makes the draw's bounds [-inf, inf]; the
    # mask is taken before the bounds overwrite population 1's brackets.
    uncertified = np.logical_or.reduce([np.isnan(low) for low in lows])
    below = _combine(kind, [lows[0], *highs[1:]], out=lows[0])
    above = _combine(kind, [highs[0], *lows[1:]], out=highs[0])
    np.copyto(below, -np.inf, where=uncertified)
    np.copyto(above, np.inf, where=uncertified)
    return below, above, targets


def _polish(kind: str, tables, rows, targets,
            work=(None, None)) -> NDArray[np.float64]:
    """The exact draws of ``kind`` at ``targets``, arguments as in
    :func:`_bracket`; each root depends only on its series and target.
    Each population's solve reuses the two workspace rows ``work`` (see
    :func:`_solve_roots`)."""
    return _combine(kind, [_solve_roots(table, target, rows, work)
                           for table, target in zip(tables, targets)])


def _at_ranks(bound, ranks, row=None) -> NDArray[np.float64]:
    """The values at zero-based ``ranks`` of ``bound`` sorted along its
    last axis.  The sorted copy is fresh and freed on return, or is the
    workspace row ``row`` (see :func:`_carve`)."""
    if row is None:
        return np.sort(bound, axis=-1)[..., ranks]
    copy = _carve(row, bound.shape)
    np.copyto(copy, bound)
    copy.sort(axis=-1)
    return copy[..., ranks]


def _candidates(below, above, ranks=(), pi0=None,
                work=(None, None)) -> NDArray[np.bool_]:
    """The draws to polish, given bounds ``below <= draw <= above``.

    Draws run along the last axis.  With ``pi0``, these are the draws
    with ``below <= pi0 <= above``: every other draw is certainly below
    or above ``pi0``, and a draw equal to ``pi0`` counts to neither
    side.  Otherwise they are the draws whose bounds can hold any of the
    zero-based ``ranks``: the rank-r draw lies between the rank-r values
    of ``below`` and of ``above``, and a draw whose bounds miss that
    range stays on its side of the rank-r draw wherever it lies inside
    them.  So setting every other draw to any value inside its bounds
    leaves the rank-r values, and the counts on either side of ``pi0``,
    as the exact draws have them.  The sorted copies of ``below`` and
    ``above`` go into the two workspace rows ``work`` (see :func:`_at_ranks`).
    """
    if pi0 is not None:
        return (below <= pi0) & (pi0 <= above)
    lows, highs = (_at_ranks(bound, ranks, row)
                   for bound, row in zip((below, above), work))
    polish = np.zeros(below.shape, dtype=bool)
    for j in range(len(ranks)):
        polish |= (above >= lows[..., j, None]) & (below <= highs[..., j, None])
    return polish


def _sample(kind: str, series: list[RecordSeries], m: int,
            seed: int) -> PivotalDraws:
    """Bracket the ``m`` draws of ``kind``, one root from each series.

    Each series' start table is built once and serves every span.  The
    draws are bracketed ``_CHUNK`` at a time into the two preallocated
    bound arrays, and only the bounds and the tables are kept (see
    :meth:`PivotalDraws._solve`).
    """
    tables = [_start_table(*_prep_log_records(s.values[:, None]))
              for s in series]
    below, above = np.empty(m), np.empty(m)
    for start in range(0, m, _CHUNK):
        try:
            below[start:start + _CHUNK], above[start:start + _CHUNK], _ = _bracket(
                kind, tables, np.asarray([seed]), np.zeros((1, 1), np.intp),
                np.arange(start, min(start + _CHUNK, m)))
        except BracketError as exc:
            rep = start + (exc.replicate or 0)
            raise BracketError(f"replicate {rep}, {exc}", replicate=rep) from exc
    return PivotalDraws._from_slots(kind, m, seed, below, above, tables, None)


def sample_pivotal(series1: RecordSeries, series2: RecordSeries, kind: str,
                   m: int, seed: int, threads: int | None = None) -> PivotalDraws:
    """Monte Carlo draws of the shape ratio or difference pivot.

    Replicate ``i`` of population ``p`` (1-based) reads the dedicated
    stream ``2 i + (p - 1)`` of ``seed``, so the draw vector is a pure
    function of the inputs.  A replicate whose pivotal equation has no
    positive root aborts the whole sample with ``BracketError``, because
    silently dropping replicates would bias the pivotal distribution.
    The sampler runs on the calling thread: ``threads`` is accepted, so
    that callers which pass a thread count keep working, and not used.

    Every root is bracketed here, but none is polished: the draws hold
    their bounds, and their values are solved on first read of
    ``values``.  An interval or p-value polishes only the draws it needs.
    """
    if kind not in ("ratio", "difference"):
        raise InvalidDataError(f"kind must be 'ratio' or 'difference', got {kind!r}")
    if m < 1:
        raise InvalidDataError("m must be at least 1")
    _check_series(series1, series2)
    return _sample(kind, [series1, series2], m, seed)


def sample_shape_pivot(series: RecordSeries, m: int, seed: int,
                       threads: int | None = None) -> PivotalDraws:
    """Monte Carlo draws of the single-population shape pivot.

    Replicate ``i`` reads stream ``2 i`` of ``seed``, as population 1
    does in :func:`sample_pivotal`.  The sampler runs on the calling
    thread; ``threads`` is accepted and not used.
    """
    if m < 1:
        raise InvalidDataError("m must be at least 1")
    _check_series(series)
    return _sample("single-shape", [series], m, seed)


def percentile_ranks(m: int, gamma: float) -> tuple[int, int]:
    """One-based order-statistic ranks of the equal-tail interval.

    Returns ``(ceil(gamma m / 2), floor((1 - gamma/2) m))``, computed
    exactly on the decimal that ``repr(gamma)`` prints, so that 0.05
    times 100000 gives the integral rank 2500 and 0.050000001 times
    10**6 the rank 25001.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidDataError("gamma must be in (0, 1)")
    half = Fraction(repr(float(gamma))) * m / 2
    if half < 1:
        raise InsufficientDrawsError(
            f"need m * gamma / 2 >= 1 (got {float(half):g}); "
            f"increase the draw count or gamma"
        )
    return math.ceil(half), math.floor(m - half)


def percentile_interval(draws: PivotalDraws, gamma: float) -> IntervalEstimate:
    """Equal-tail percentile interval from the ordered pivotal draws.

    Uses the exact order statistics at one-based ranks
    ``ceil(gamma m / 2)`` and ``floor((1 - gamma/2) m)``; no
    interpolation, so when ``gamma m / 2`` is integral the ranks are
    exactly the classical percentile indices.  Only the draws whose
    bounds can reach either rank are solved, and the endpoints are
    those of the fully solved ``draws.values``, bit for bit.
    """
    lo_rank, hi_rank = percentile_ranks(draws.m, gamma)
    ranks = [lo_rank - 1, hi_rank - 1]
    settled = draws._settled(ranks=ranks)
    settled.sort()
    lower, upper = settled[ranks]
    return IntervalEstimate(
        lower=float(lower),
        upper=float(upper),
        level=1.0 - gamma,
        m=draws.m,
        estimand=_ESTIMAND_FOR_KIND[draws.kind],
    )


def p_value_one_sided(draws: PivotalDraws, pi0: float) -> TestResult:
    """Fraction of draws strictly below the hypothesized value.

    Small values are evidence that the estimand exceeds ``pi0``.  Draws
    exactly equal to ``pi0`` count to neither side.
    """
    settled = draws._settled(pi0=pi0)
    p = float(np.count_nonzero(settled < pi0)) / draws.m
    return TestResult(p_value=p, pi0=pi0, sidedness="one-sided-greater",
                      m=draws.m, mc_se=math.sqrt(p * (1.0 - p) / draws.m))


def p_value_two_sided(draws: PivotalDraws, pi0: float) -> TestResult:
    """Twice the smaller tail frequency q around ``pi0``, capped at 1.

    Its Monte Carlo standard error is that of 2 q, not of a frequency p.
    """
    settled = draws._settled(pi0=pi0)
    below = float(np.count_nonzero(settled < pi0))
    above = float(np.count_nonzero(settled > pi0))
    q = min(below, above) / draws.m
    return TestResult(p_value=min(1.0, 2.0 * q), pi0=pi0,
                      sidedness="two-sided", m=draws.m,
                      mc_se=2.0 * math.sqrt(q * (1.0 - q) / draws.m))
