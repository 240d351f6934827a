"""Shared fixtures, test oracles and the acceptance-criteria summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from weibrec import RecordSeries, extract_upper_records, gpq, rng
from weibrec.datasets import INSULATING_FLUID

_criteria: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str) -> None:
    """Register one acceptance-criterion outcome for the summary."""
    _criteria.append((name, passed, detail))


def searchsorted_index(table, target, rows=None):
    """Reference start lookup for ``gpq._node_index``: one binary search
    of its series' start table per row of targets, the row's targets as
    one key vector.  Target row ``i`` reads series ``rows[i, 0]``, or
    series ``i`` without ``rows``."""
    series = range(len(target)) if rows is None else rows[:, 0]
    return np.array([np.searchsorted(table.h[i], row)
                     for i, row in zip(series, target)])


def target_rows(seed, stream_ids, k: int):
    """The floats whose log W_exp(1) is each stream's pivot target.

    Record-major, ``(k,) + streams``: the constant 1, then uniforms 1 to
    ``k - 1`` of the stream, each copied out of ``rng.uniforms``.
    """
    u = [x.copy() for x in rng.uniforms(seed, stream_ids, k - 1)]
    return np.stack([np.ones_like(u[0])] + u)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _criteria:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}: {name}: {detail}")


@pytest.fixture(scope="session")
def raw34() -> tuple[float, ...]:
    return INSULATING_FLUID["kv34"]


@pytest.fixture(scope="session")
def raw36() -> tuple[float, ...]:
    return INSULATING_FLUID["kv36"]


@pytest.fixture(scope="session")
def records34(raw34) -> RecordSeries:
    return extract_upper_records(raw34, label="kv34")


@pytest.fixture(scope="session")
def records36(raw36) -> RecordSeries:
    return extract_upper_records(raw36, label="kv36")


@pytest.fixture()
def tiny_series() -> RecordSeries:
    return RecordSeries(np.array([1.0, np.e]))


@pytest.fixture()
def tie_stream(monkeypatch):
    """Make one exponential stream the nearly tied pair [1, nextafter(1, 2)].

    ``tie_stream(stream)`` patches ``gpq._exp_targets``, the one source
    of pivot targets, so that two-record targets drawn for stream id
    ``stream`` are those of the tied pair; that target log W_exp(1)
    rounds below zero, which leaves the pivotal equation without a
    positive root.
    """
    tied = gpq._exp_log_am_gm(np.array([1.0, np.nextafter(1.0, 2.0)]))

    def apply(stream: int) -> None:
        real = gpq._exp_targets

        def patched(seed, stream_ids, k):
            target = real(seed, stream_ids, k)
            if k == 2:
                target[..., np.asarray(stream_ids) == stream] = tied
            return target

        monkeypatch.setattr(gpq, "_exp_targets", patched)

    return apply
