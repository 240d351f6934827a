"""Coverage simulation for the shape-ratio confidence interval.

Each cell of the study fixes two Weibull populations and record
lengths, then repeatedly: simulates one record series per population,
builds the Monte Carlo pivotal sample for the shape ratio, forms the
equal-tail percentile interval, and scores whether the true ratio lies
strictly inside.  Reported per cell: empirical coverage, its binomial
standard error, and the mean interval width.

Seeding is hierarchical and collision-free: a cell tag (a hash of the
population settings, independent of grid position) keys the cell, each
outer replicate derives its own seed from (master seed, cell tag,
replicate index), and data and pivotal draws use separate child seeds.
A replicate's roots, sort and interval width depend on that replicate
alone, and the widths are summed once, exactly rounded, so neither the
batch size nor the thread count can move a cell's report.

This module holds the package's only thread fan-out: :func:`run_cell`
spreads its batches of whole replicates over ``threads`` threads, where
they pay (1.3-1.5x the serial rate at 2 threads on a 2-vCPU Xeon).  The
pivot sampler in :mod:`weibrec.gpq` runs on the calling thread.

A replicate's interval reads only two order statistics of its m pivot
ratios.  A batch takes the bracket-and-polish path of the command-line
intervals: ``gpq._bracket`` bounds every ratio, and ``gpq._polish``
solves only the draws whose bounds can reach either rank, about a tenth
of them (see :func:`_batch_sums`).  A batch is sized by its largest
array, which holds at most ``_ELEMENT_BUDGET`` (2**16) elements: the
per-draw arrays (targets, root brackets, ratio bounds) of m elements a
replicate, or the start-table buffer of 128 k, for k the larger record
count, which is the larger only for k > 15.  The pivot targets are
drawn one uniform at a time, so no other array grows with k, and the
polish solves its draws in spans whose (k, span) Newton buffer keeps to
the same count.  At m = 2000 every cell of the study runs 32 replicates
a batch, arrays large enough that a second thread gains on them.  Each
worker keeps every such array of its batches in one workspace of
``gpq._WORK_ROWS`` rows, allocated once per cell, so no batch faults in
fresh pages for them.

The pivots are solved in unit shape (see :func:`_batch_sums`), so
coverage depends only on (n1, n2, m, reps, gamma) and the random
streams, never on the shapes or scales, and the interval length is
beta1 / beta2 times a shape-free width.  The 7 shape columns of
:func:`default_table_grid` are therefore independent Monte Carlo
replicates of one coverage per (n1, n2) row: their cell tags differ,
so their streams do.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import BracketError, InvalidDataError, WeibullRecordsError
from .gpq import (_START_NODES, _WORK_ROWS, _bracket, _candidates, _polish,
                  _prep_log_records, _start_table, percentile_ranks)
from .rng import derive_seed, derive_seed_array, exp_record_matrix

# Elements in a batch's largest array: its (reps, m) per-draw arrays, its
# (k, reps, 128) start-table buffer or its (k, span) Newton buffer.  Each
# is one row of its worker's workspace, so the budget also sets the row
# length.  On a 2-vCPU Xeon, two threads ran a uint64 shift-xor-multiply
# pass at 0.56x the serial speed on 2**13 elements, 1.5x on 2**16 and 1.9x
# on 2**18; a budget of 2**17 raised the benchmark's sim-slice peak RSS by
# a fifth.
_ELEMENT_BUDGET = 2 ** 16


@dataclass(frozen=True)
class SimConfig:
    """One cell of the coverage study."""

    n1: int
    n2: int
    beta1: float
    beta2: float
    alpha1: float = 1.0
    alpha2: float = 1.0
    m: int = 2000
    reps: int = 2000
    gamma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("n1", "n2", "m", "reps", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InvalidDataError(
                    f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.n1 < 1 or self.n2 < 1:
            raise InvalidDataError("record indices n1, n2 must be at least 1")
        for name in ("beta1", "beta2", "alpha1", "alpha2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(
                    v, (int, float, np.integer, np.floating)):
                raise InvalidDataError(f"{name} must be a number, got {v!r}")
            # Stored as float, so that 2 and 2.0 are one cell and one tag.
            try:
                v = float(v)
            except OverflowError:
                v = math.inf
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidDataError(f"{name} must be positive and finite")
            object.__setattr__(self, name, v)
        if self.reps < 1:
            raise InvalidDataError("reps must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidDataError(f"seed must be in [0, 2**64), got {self.seed}")
        percentile_ranks(self.m, self.gamma)


@dataclass(frozen=True)
class SimReport:
    """Results for one cell, with the configuration echoed back."""

    coverage: float
    expected_length: float
    mc_se_coverage: float
    config: SimConfig


@dataclass(frozen=True)
class CellError:
    """A cell that failed; the grid runner keeps going past it."""

    config: SimConfig
    error: str


def cell_tag(config: SimConfig) -> int:
    """Stable 64-bit tag of a cell's population settings.

    Depends only on the record lengths and the true parameters, not on
    grid position, seed, draw counts, or gamma, so enlarging a study
    extends rather than reshuffles the underlying random numbers.
    """
    ident = (
        f"n1={config.n1}|n2={config.n2}"
        f"|beta1={config.beta1!r}|beta2={config.beta2!r}"
        f"|alpha1={config.alpha1!r}|alpha2={config.alpha2!r}"
    )
    digest = hashlib.blake2b(ident.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _polish_span(config: SimConfig) -> int:
    """Draws a polish span solves: its (k, span) Newton buffer and gathered
    records keep to ``_ELEMENT_BUDGET``, for k the larger record count."""
    return max(1, _ELEMENT_BUDGET // (max(config.n1, config.n2) + 1))


def _batch_sums(config: SimConfig, base_seed: int, start: int, stop: int,
                work: NDArray[np.float64]) -> tuple[int, NDArray[np.float64]]:
    """Coverage count and unit-shape widths of replicates [start, stop).

    Records are alpha * E**(1 / beta), so ``d`` and ``gap`` of a series
    are those of its unit-exponential draw divided by beta, and each
    pivot root is beta times the root U solved from the draw itself.
    The sorted ratios U1 / U2 are the pivotal ratios divided by
    beta1 / beta2, so the interval covers the true ratio exactly when it
    covers 1, and its width is beta1 / beta2 times the returned one.
    Neither alpha nor beta enters the solve, which therefore cannot
    overflow at extreme shapes.

    Only the draws that can hold rank lo or rank hi are polished:
    ``gpq._bracket`` bounds each ratio, ``gpq._candidates`` picks the
    draws whose bounds can reach either rank, and ``gpq._polish`` solves
    them at the targets that ``_bracket`` returned, in spans of
    ``_ELEMENT_BUDGET // k`` draws for k the larger record count, so that
    the (k, span) Newton buffer and the gathered records keep to the
    budget.  Each root depends only on its own series and target, so the
    spans move no bit.  Every other draw keeps its lower bound, and the
    sort reads the same two ratios as a full solve would, bit for bit.

    ``work`` is the worker's ``(_WORK_ROWS, length)`` workspace, every row
    as long as the batch's largest array, and every batch-sized array
    lives in it: row 0 holds the start-table buffer, rows 0 to 7 the
    per-draw arrays of ``gpq._bracket``, rows 0 and 2 the sorted copies
    of ``gpq._candidates`` and then the polish's gathered records and
    Newton buffer.  Each row is written before it is read, so what an
    earlier batch left in it moves no bit.
    """
    rep_seeds = derive_seed_array(base_seed, np.arange(start, stop, dtype=np.uint64))
    data_seeds = derive_seed_array(rep_seeds, 1)
    pivot_seeds = derive_seed_array(rep_seeds, 2)
    lo_rank, hi_rank = percentile_ranks(config.m, config.gamma)
    ranks = [lo_rank - 1, hi_rank - 1]

    tables = [_start_table(*_prep_log_records(
                  exp_record_matrix(data_seeds, pop, n + 1)), work[0])
              for pop, n in enumerate((config.n1, config.n2))]
    try:
        below, above, targets = _bracket(
            "ratio", tables, pivot_seeds, np.arange(stop - start)[:, None],
            np.arange(config.m), work)
    except BracketError as exc:
        rep, draw = divmod(exc.replicate or 0, config.m)
        raise BracketError(
            f"outer replicate {start + rep}, pivotal draw {draw}, {exc}",
            replicate=start + rep,
        ) from exc
    rows, cols = np.nonzero(_candidates(below, above, ranks,
                                        work=(work[0], work[2])))

    # Every other draw keeps its lower bound, which leaves both ranks'
    # values as the full solve has them.
    ratio = below
    span = _polish_span(config)
    for i in range(0, rows.size, span):
        r, c = rows[i:i + span], cols[i:i + span]
        ratio[r, c] = _polish("ratio", tables, r[:, None],
                              [t[r, c, None] for t in targets],
                              (work[0], work[2]))[:, 0]
    ratio.sort(axis=1)
    lower = ratio[:, lo_rank - 1]
    upper = ratio[:, hi_rank - 1]
    covered = int(np.count_nonzero((lower < 1.0) & (1.0 < upper)))
    return covered, upper - lower


def run_cell(config: SimConfig, threads: int | None = None) -> SimReport:
    """Estimate coverage and expected interval length for one cell.

    Its batches of replicates run on ``threads`` workers (None or 1: the
    calling thread); the report is the same for every count.  A batch
    holds as many replicates as keep its largest array, m per-draw
    values or 128 start-table values per record of each replicate, within
    ``_ELEMENT_BUDGET`` elements.

    Each worker runs every ``workers``-th batch, in order, on its own
    workspace (see :func:`_batch_sums`): one float64 block, allocated
    here before any batch runs and freed when the cell returns, so that
    no batch allocates, and faults in, fresh pages for its arrays.  If
    batches fail, the first failing batch's error is raised, as a serial
    run raises it.
    """
    base_seed = derive_seed(config.seed, cell_tag(config))
    k_max = max(config.n1, config.n2) + 1
    batch = max(1, min(config.reps, _ELEMENT_BUDGET
                       // max(config.m, _START_NODES.size * k_max)))
    starts = range(0, config.reps, batch)
    workers = max(1, min(threads or 1, len(starts)))
    length = max(batch * max(config.m, _START_NODES.size * k_max),
                 k_max * _polish_span(config))
    blocks = [np.empty((_WORK_ROWS, length)) for _ in range(workers)]
    sums, failed = {}, {}

    def run(worker):
        for start in starts[worker::workers]:
            try:
                sums[start] = _batch_sums(config, base_seed, start,
                                          min(start + batch, config.reps),
                                          blocks[worker])
            except Exception as exc:
                # Carried to the caller, which raises the first batch's.
                failed[start] = exc
                return

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))
    else:
        run(0)
    if failed:
        raise failed[min(failed)]
    covered = sum(c for c, _ in sums.values())
    # One exactly rounded sum over every replicate, whatever the batches.
    width_sum = math.fsum(np.concatenate([w for _, w in sums.values()]))
    coverage = covered / config.reps
    return SimReport(
        coverage=coverage,
        expected_length=config.beta1 / config.beta2 * (width_sum / config.reps),
        mc_se_coverage=math.sqrt(coverage * (1.0 - coverage) / config.reps),
        config=config,
    )


def run_grid(grid: list[SimConfig],
             threads: int | None = None) -> list[SimReport | CellError]:
    """Run every cell, in order; a failing cell is reported, not fatal."""
    if not grid:
        raise InvalidDataError("grid must contain at least one cell")
    out: list[SimReport | CellError] = []
    for config in grid:
        try:
            out.append(run_cell(config, threads=threads))
        except WeibullRecordsError as exc:
            out.append(CellError(config=config, error=str(exc)))
    return out


_TABLE_SHAPES = (0.5, 1.0, 1.2, 1.5, 2.0, 3.0, 5.0)
_TABLE_LENGTHS = (3, 7, 14)


def default_table_grid(m: int = 2000, reps: int = 2000, gamma: float = 0.05,
                       seed: int = 0) -> list[SimConfig]:
    """The full 9 x 7 study grid in row-major order.

    Rows are (n1, n2) pairs over {3, 7, 14} squared; columns sweep the
    first shape over seven values with the second shape fixed at 2 and
    both scales at 1.
    """
    return [
        SimConfig(n1=n1, n2=n2, beta1=b1, beta2=2.0, m=m, reps=reps,
                  gamma=gamma, seed=seed)
        for n1 in _TABLE_LENGTHS
        for n2 in _TABLE_LENGTHS
        for b1 in _TABLE_SHAPES
    ]


def report_row(item: SimReport | CellError) -> dict:
    """Flatten a cell result to one plot-ready mapping."""
    c = item.config
    row = {
        "n1": c.n1, "n2": c.n2,
        "beta1": c.beta1, "beta2": c.beta2,
        "alpha1": c.alpha1, "alpha2": c.alpha2,
        "pi": c.beta1 / c.beta2,
        "m": c.m, "reps": c.reps, "gamma": c.gamma, "seed": c.seed,
    }
    if isinstance(item, SimReport):
        row.update(coverage=item.coverage,
                   mc_se_coverage=item.mc_se_coverage,
                   expected_length=item.expected_length,
                   error="")
    else:
        row.update(coverage=None, mc_se_coverage=None,
                   expected_length=None, error=item.error)
    return row


def _format_block(title: str, rows: list[tuple[int, int]],
                  shapes: list[float],
                  cells: dict[tuple[tuple[int, int], float], SimReport | CellError],
                  pick) -> list[str]:
    head = ["n1,n2".ljust(8)] + [f"{b:>8g}" for b in shapes]
    lines = [title, "".join(head)]
    for pair in rows:
        out = [f"{pair[0]},{pair[1]}".ljust(8)]
        for b in shapes:
            item = cells.get((pair, b))
            if item is None:
                out.append(" " * 8)
            elif isinstance(item, CellError):
                out.append(f"{'ERR':>8}")
            else:
                out.append(f"{pick(item):>8.3f}")
        lines.append("".join(out))
    return lines


def render_table(results: list[SimReport | CellError]) -> str:
    """Aligned text table: coverage block, then expected-length block.

    Rows are (n1, n2) pairs and columns are first-shape values, both in
    first-appearance order, mirroring the grid layout.
    """
    rows: list[tuple[int, int]] = []
    shapes: list[float] = []
    cells: dict[tuple[tuple[int, int], float], SimReport | CellError] = {}
    for item in results:
        pair = (item.config.n1, item.config.n2)
        if pair not in rows:
            rows.append(pair)
        if item.config.beta1 not in shapes:
            shapes.append(item.config.beta1)
        cells[(pair, item.config.beta1)] = item
    lines = _format_block("Coverage probability", rows, shapes, cells,
                          lambda r: r.coverage)
    lines.append("")
    lines += _format_block("Expected length", rows, shapes, cells,
                           lambda r: r.expected_length)
    return "\n".join(lines)
