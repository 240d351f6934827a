"""Only the coverage simulator starts threads; the pivot sampler runs
on the calling thread whatever thread count it is given."""

import threading
from pathlib import Path

import pytest

from weibrec import (SimConfig, cli, p_value_two_sided, percentile_interval,
                     run_cell, sample_pivotal)
from weibrec import simulate

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
