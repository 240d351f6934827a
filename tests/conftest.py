"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from weibrec import RecordSeries, extract_upper_records
from weibrec.datasets import INSULATING_FLUID

_criteria: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str) -> None:
    """Register one acceptance-criterion outcome for the summary."""
    _criteria.append((name, passed, detail))


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

    ``tie_stream(module, stream)`` patches ``module.exp_record_matrix``
    so that two-record rows drawn for stream id ``stream`` come back
    tied; their target log W_exp(1) rounds below zero, which leaves the
    pivotal equation without a positive root.
    """
    def apply(module, stream: int) -> None:
        real = module.exp_record_matrix

        def patched(seed, stream_ids, n_values):
            rows = real(seed, stream_ids, n_values)
            if np.ndim(stream_ids) and n_values == 2:
                rows[..., np.asarray(stream_ids) == stream, :] = [
                    1.0, np.nextafter(1.0, 2.0)]
            return rows

        monkeypatch.setattr(module, "exp_record_matrix", patched)

    return apply
