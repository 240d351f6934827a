"""Only the coverage simulator starts threads; the pivot sampler runs
on the calling thread whatever thread count it is given."""

import threading
from pathlib import Path

import pytest

from weibrec import (InvalidDataError, SimConfig, cli, p_value_two_sided,
                     percentile_interval, run_cell, run_grid, sample_pivotal)
from weibrec import gpq, simulate

FLUID_CSV = Path(__file__).resolve().parent.parent / "data" / "insulating_fluid.csv"


@pytest.fixture()
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []
    start = threading.Thread.start

    def counted(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return threads


def test_pivot_draws_and_their_reads_start_no_thread(records34, records36,
                                                     started):
    draws = sample_pivotal(records34, records36, "ratio", 20_000, seed=5,
                           threads=4)
    percentile_interval(draws, 0.05)
    p_value_two_sided(draws, 1.0)
    assert started == []


def test_ci_command_starts_no_thread(capsys, started):
    assert cli.main(["ci-ratio", "--data", str(FLUID_CSV), "--gamma", "0.05",
                     "--M", "20000", "--seed", "5", "--threads", "4"]) == 0
    capsys.readouterr()
    assert started == []


def test_run_cell_fans_batches_out(monkeypatch, started):
    # One replicate per batch, so that the cell has batches to share and
    # the counter above is seen to count.
    monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 1)
    run_cell(SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, m=100, reps=3,
                       seed=1), threads=2)
    assert len(started) >= 1


@pytest.fixture()
def batches(monkeypatch):
    """(thread, workspace) of every batch, one replicate a batch."""
    monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 1)
    real, seen = simulate._batch_sums, []

    def spy(config, base_seed, start, stop, work):
        seen.append((threading.current_thread(), work))
        return real(config, base_seed, start, stop, work)

    monkeypatch.setattr(simulate, "_batch_sums", spy)
    return seen


CELL = SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, m=100, reps=3, seed=1)


@pytest.mark.parametrize("threads", [None, 1])
def test_serial_cell_runs_its_batches_on_the_calling_thread(threads, batches,
                                                            started):
    run_cell(CELL, threads=threads)
    assert [thread for thread, _ in batches] == [threading.current_thread()] * 3
    assert started == []


def test_parallel_cell_starts_a_thread_and_a_workspace_a_batch_at_most(
        batches, started):
    run_cell(CELL, threads=8)
    assert len(batches) == 3
    assert 1 <= len(started) <= 3
    workspaces = {id(work): work for _, work in batches}
    assert len(workspaces) <= 3
    assert all(work.shape[0] == gpq._WORK_ROWS
               for work in workspaces.values())


def test_each_worker_runs_one_contiguous_run_on_one_workspace(monkeypatch):
    # Three batches at two threads split as [0] and [1, 2].  Batch 0 waits
    # until batch 1 starts, so the pool cannot give both runs to one thread.
    monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 1)
    real, seen, second = simulate._batch_sums, [], threading.Event()

    def spy(config, base_seed, start, stop, work):
        seen.append((start, threading.current_thread(), work))
        if start == 1:
            second.set()
        elif start == 0:
            assert second.wait(timeout=60)
        return real(config, base_seed, start, stop, work)

    monkeypatch.setattr(simulate, "_batch_sums", spy)
    run_cell(CELL, threads=2)
    thread = {start: t for start, t, _ in seen}
    work = {start: w for start, _, w in seen}
    assert sorted(thread) == [0, 1, 2]
    assert threading.current_thread() not in thread.values()
    assert thread[0] is not thread[1]
    assert [start for start, t, _ in seen if t is thread[1]] == [1, 2]
    assert work[1] is work[2] and work[0] is not work[1]

    seen.clear()
    run_cell(CELL, threads=8)
    assert len({id(w) for _, _, w in seen}) == 3


@pytest.mark.parametrize("threads, message", [
    (2.5, r"^thread count must be an integer, got 2\.5$"),
    ("2", "^thread count must be an integer, got '2'$"),
    (True, "^thread count must be an integer, got True$"),
    (0, "^thread count must be at least 1$"),
    (-1, "^thread count must be at least 1$"),
])
def test_cell_and_grid_refuse_a_bad_thread_count(threads, message, started):
    with pytest.raises(InvalidDataError, match=message):
        run_cell(CELL, threads=threads)
    # Checked once, before the first cell, not as an error of each cell.
    with pytest.raises(InvalidDataError, match=message):
        run_grid([CELL, CELL], threads=threads)
    assert started == []
