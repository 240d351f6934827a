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
splits its batches of whole replicates into one contiguous run per
thread, where threads pay (1.3-1.5x the serial rate at 2 threads on a
2-vCPU Xeon), and takes their results, or the first failing batch's
error, in batch order.  The pivot sampler in :mod:`weibrec.gpq` runs on
the calling thread.

A replicate's interval reads only two order statistics of its m pivot
ratios.  A batch takes them from ``gpq._settle_batch``, which bounds
every ratio and solves only the draws whose bounds can reach either
rank, about a tenth of them (see :func:`_batch_sums`).
``gpq._batch_shape`` sizes a batch by its largest array, which holds at
most ``_ELEMENT_BUDGET`` (2**16) elements, and sizes the workspace that
holds every such array of a worker's batches.  At m = 2000 every cell
of the study runs 32 replicates a batch, arrays large enough that a
second thread gains on them.  Each worker's workspace is allocated once
per cell and handed to the worker with its run of batches, so no batch
faults in fresh pages for its arrays.

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
from .gpq import _batch_shape, _settle_batch, percentile_ranks
from .rng import (_integer, _real, check_seed, derive_seed, derive_seed_array,
                  exp_record_matrix)

# Elements in a batch's largest array, which also sets the length of its
# worker's workspace rows (see gpq._batch_shape).  On a 2-vCPU Xeon, two
# threads ran a uint64 shift-xor-multiply pass at 0.56x the serial speed on
# 2**13 elements, 1.5x on 2**16 and 1.9x on 2**18; a budget of 2**17 raised
# the benchmark's sim-slice peak RSS by a fifth.
_ELEMENT_BUDGET = 2 ** 16

# A cell's population settings, in the order its stream tag joins them:
# the two record indices, then the shapes and scales.  Its run settings,
# which its stream tag leaves out: the integers m and reps, then gamma and
# the seed.  A reported cell's results, in report order.
CELL_SETTINGS = ("n1", "n2", "beta1", "beta2", "alpha1", "alpha2")
RUN_SETTINGS = ("m", "reps", "gamma", "seed")
CELL_RESULTS = ("coverage", "mc_se_coverage", "expected_length")


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
        for name in CELL_SETTINGS[:2] + RUN_SETTINGS[:2]:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n1 < 1 or self.n2 < 1:
            raise InvalidDataError("record indices n1, n2 must be at least 1")
        for name in CELL_SETTINGS[2:] + RUN_SETTINGS[2:3]:
            _real(getattr(self, name), name)
        for name in CELL_SETTINGS[2:]:
            v = getattr(self, name)
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
        object.__setattr__(self, "seed", check_seed(self.seed))
        percentile_ranks(self.m, self.gamma)


@dataclass(frozen=True)
class SimReport:
    """Results for one cell, with the configuration echoed back.

    ``mc_se_coverage`` is the binomial standard error
    ``sqrt(coverage (1 - coverage) / reps)``, so it is 0 when the coverage
    is 0 or 1: it then says nothing about the Monte Carlo error.
    """

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
    ident = "|".join(f"{name}={getattr(config, name)!r}"
                     for name in CELL_SETTINGS)
    digest = hashlib.blake2b(ident.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


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

    The interval ends come from ``gpq._settle_batch``, with
    ``_ELEMENT_BUDGET`` as its budget, and are those of a full solve,
    bit for bit.  This function keeps the seeds, the data draw and the
    scoring.

    ``work`` is the worker's workspace, in the shape of
    ``gpq._batch_shape``, and every batch-sized array lives in it.  It is
    passed whole, and ``gpq`` chooses the rows.  Each row is written
    before it is read, so what an earlier batch left in it moves no bit.
    """
    rep_seeds = derive_seed_array(base_seed, np.arange(start, stop, dtype=np.uint64))
    data_seeds = derive_seed_array(rep_seeds, 1)
    pivot_seeds = derive_seed_array(rep_seeds, 2)
    records = [exp_record_matrix(data_seeds, pop, n + 1)
               for pop, n in enumerate((config.n1, config.n2))]
    try:
        lower, upper = _settle_batch("ratio", records, pivot_seeds, config.m,
                                     config.gamma, _ELEMENT_BUDGET, work)
    except BracketError as exc:
        rep, draw = divmod(exc.replicate or 0, config.m)
        raise BracketError(
            f"outer replicate {start + rep}, pivotal draw {draw}, {exc}",
            replicate=start + rep,
        ) from exc
    covered = int(np.count_nonzero((lower < 1.0) & (1.0 < upper)))
    return covered, upper - lower


def check_threads(threads) -> int | None:
    """``threads``, if it is None or an integer of at least 1.

    Anything else raises ``InvalidDataError``.
    """
    if threads is not None and _integer(threads, "thread count") < 1:
        raise InvalidDataError("thread count must be at least 1")
    return threads


def run_cell(config: SimConfig, threads: int | None = None) -> SimReport:
    """Estimate coverage and expected interval length for one cell.

    Its batches of replicates run on ``threads`` workers (None or 1: the
    calling thread); the report is the same for every count.
    ``gpq._batch_shape`` sizes a batch, and its workspace, to keep its
    largest array within ``_ELEMENT_BUDGET`` elements.

    The cell's B batches are split into W = min(threads, B) contiguous
    runs, and worker w runs batches B w // W to B (w + 1) // W, in
    order, on its own workspace (see :func:`_batch_sums`): one float64
    block a worker, allocated here before any batch runs, passed to the
    worker with its run and freed when the cell returns, so that no
    batch allocates, and faults in, fresh pages for its arrays.  One
    worker runs on the calling thread, which starts no thread; more are a
    ``ThreadPoolExecutor`` ``map`` over the runs and their blocks.
    Results come back in batch order, and so does an error: a run stops
    at its first failing batch, and the earliest failing run's error is
    raised, as a serial run raises it, though later runs may still finish
    their batches before it is.
    """
    base_seed = derive_seed(config.seed, cell_tag(config))
    batch, shape = _batch_shape(config.m, max(config.n1, config.n2) + 1,
                                _ELEMENT_BUDGET)
    starts = range(0, config.reps, batch)
    workers = min(check_threads(threads) or 1, len(starts))
    # Allocated on this thread, not on each worker's first batch: blocks
    # that pool threads allocate stay in their malloc arenas once freed,
    # which raised the benchmark's sim-slice peak RSS by 15-20%.
    blocks = [np.empty(shape) for _ in range(workers)]
    runs = [starts[len(starts) * w // workers:len(starts) * (w + 1) // workers]
            for w in range(workers)]

    def run(run_starts, work):
        return [_batch_sums(config, base_seed, start,
                            min(start + batch, config.reps), work)
                for start in run_starts]

    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            sums = [s for part in pool.map(run, runs, blocks) for s in part]
    else:
        sums = run(starts, blocks[0])
    covered = sum(c for c, _ in sums)
    # One exactly rounded sum over every replicate, whatever the batches.
    width_sum = math.fsum(np.concatenate([w for _, w in sums]))
    coverage = covered / config.reps
    return SimReport(
        coverage=coverage,
        expected_length=config.beta1 / config.beta2 * (width_sum / config.reps),
        mc_se_coverage=math.sqrt(coverage * (1.0 - coverage) / config.reps),
        config=config,
    )


def run_grid(grid: list[SimConfig],
             threads: int | None = None) -> list[SimReport | CellError]:
    """Run every cell, in order; a failing cell is reported, not fatal.

    A thread count that :func:`check_threads` refuses raises before any
    cell runs.
    """
    if not grid:
        raise InvalidDataError("grid must contain at least one cell")
    check_threads(threads)
    out: list[SimReport | CellError] = []
    for config in grid:
        try:
            out.append(run_cell(config, threads=threads))
        except WeibullRecordsError as exc:
            out.append(CellError(config=config, error=str(exc)))
    return out


_TABLE_SHAPES = (0.5, 1.0, 1.2, 1.5, 2.0, 3.0, 5.0)
_TABLE_LENGTHS = (3, 7, 14)


def default_table_grid(m: int = SimConfig.m, reps: int = SimConfig.reps,
                       gamma: float = SimConfig.gamma,
                       seed: int = SimConfig.seed) -> list[SimConfig]:
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
    """Flatten a cell result to one plot-ready mapping.

    Its keys are the cell's settings, ``pi``, its run sizes, its results
    (None for a failed cell) and ``error`` ("" for a reported cell).
    """
    c = item.config
    row = {name: getattr(c, name) for name in CELL_SETTINGS}
    row["pi"] = c.beta1 / c.beta2
    row.update((name, getattr(c, name)) for name in RUN_SETTINGS)
    row.update((name, getattr(item, name, None)) for name in CELL_RESULTS)
    row["error"] = getattr(item, "error", "")
    return row


def render_table(results: list[SimReport | CellError]) -> str:
    """Aligned text table: coverage block, then expected-length block.

    Each cell is its :func:`report_row`.  Rows are (n1, n2) pairs and
    columns are the cells' other settings (shapes, scales and run
    settings), both in first-appearance order, mirroring the grid layout.
    A column is labelled by its beta1 and, when a setting differs between
    columns, by that setting too, as in ``1,b2=3`` (``b2``, ``a1``,
    ``a2`` for beta2, alpha1, alpha2) or ``1,seed=2`` (a run setting by
    its name, an integer in full).  Columns are 8 characters wide, or
    wider when a label or an entry needs it, so that one space always
    separates them.
    """
    settings = CELL_SETTINGS[2:] + RUN_SETTINGS
    # Each cell's entries in the two blocks, by its row and column.
    cells = {((row["n1"], row["n2"]), tuple(row[name] for name in settings)):
             ("ERR", "ERR") if row["error"] else
             (f"{row['coverage']:.3f}", f"{row['expected_length']:.3f}")
             for row in map(report_row, results)}
    pairs = list(dict.fromkeys(pair for pair, _ in cells))
    columns = list(dict.fromkeys(column for _, column in cells))
    varying = [i for i in range(1, len(settings))
               if len({column[i] for column in columns}) > 1]
    # b2, a1 and a2 for beta2, alpha1 and alpha2; a run setting by its
    # name, and an integer in full.
    tags = [name[0] + name[-1] for name in CELL_SETTINGS[2:]] + [*RUN_SETTINGS]
    labels = [f"{column[0]:g}" + "".join(
                  f",{tags[i]}={column[i]:g}" if isinstance(column[i], float)
                  else f",{tags[i]}={column[i]}" for i in varying)
              for column in columns]
    width = 1 + max([7, *map(len, labels),
                     *(len(text) for pair in cells.values() for text in pair)])
    blocks = []
    for block, title in enumerate(("Coverage probability", "Expected length")):
        lines = [title, "n1,n2".ljust(8)
                 + "".join(label.rjust(width) for label in labels)]
        for pair in pairs:
            lines.append(f"{pair[0]},{pair[1]}".ljust(8) + "".join(
                cells.get((pair, column), ("", ""))[block].rjust(width)
                for column in columns))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
