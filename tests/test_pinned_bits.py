"""Reports pinned to the bit.

Each value below is a ``float.hex`` literal, and every refactor of the
pivot path has to reproduce it exactly.  A change that moves roots on
purpose updates these literals and lists the reports that moved.  The
interval, p-value and ``run_cell`` literals were recorded when the pivot
targets came to be drawn from k - 1 uniforms; the others date from
before the record-major solver layout.
"""

import json
from pathlib import Path

import pytest

from weibrec import cli, gpq, records, simulate
from weibrec.datasets import INSULATING_FLUID

DATA = str(Path(__file__).resolve().parent.parent / "data" / "insulating_fluid.csv")


def _report(args, capsys):
    assert cli.main(args + ["--data", DATA, "--M", "4000", "--seed", "20141"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("args, lower, upper", [
    (["ci-ratio", "--gamma", "0.05"],
     "0x1.0454464938d7cp-2", "0x1.36258ed6cb48cp+2"),
    (["ci-diff", "--gamma", "0.1"],
     "-0x1.5876678bbd6f4p-1", "0x1.37451af26afecp-1"),
], ids=["ci-ratio", "ci-diff"])
def test_interval_endpoints(args, lower, upper, capsys):
    interval = _report(args, capsys)["interval"]
    assert float(interval["lower"]).hex() == float.fromhex(lower).hex()
    assert float(interval["upper"]).hex() == float.fromhex(upper).hex()


def test_p_value(capsys):
    report = _report(["test", "--pi0", "2.5"], capsys)
    assert float(report["p_value"]).hex() == "0x1.d810624dd2f1bp-3"


@pytest.mark.parametrize("n1, n2, coverage, length", [
    (1, 1, "0x1.ddddddddddddep-1", "0x1.8255c899cd66ep+7"),
    (7, 7, "0x1.bbbbbbbbbbbbcp-1", "0x1.47ab4a50cc777p+1"),
    (15, 15, "0x1.eeeeeeeeeeeefp-1", "0x1.55f03ea5de47bp+0"),
    (1, 15, "0x1.0000000000000p+0", "0x1.19e66eb288032p+3"),
], ids=["1-1", "7-7", "15-15", "1-15"])
def test_run_cell(n1, n2, coverage, length):
    report = simulate.run_cell(simulate.SimConfig(
        n1=n1, n2=n2, beta1=1.5, beta2=2.0, m=400, reps=30, seed=77))
    assert report.coverage.hex() == coverage
    assert report.expected_length.hex() == length


def test_solve_shape_pivot_k10():
    observed = records.exponential_records(9, 20141, 0)
    target = records.exponential_records(9, 20141, 1)
    assert gpq.solve_shape_pivot(observed, target).hex() == "0x1.5f93907840002p-1"


@pytest.mark.parametrize("beta, ratio", [
    (1e-5, "0x1.000000006e880p+0"),
    (1.0, "0x1.f5cec64417079p+0"),
    (30.0, "0x1.5d1557c535d83p+69"),
])
def test_am_gm_ratio_kv34(beta, ratio):
    # Recorded once am_gm_ratio evaluated log W as the root solve does.
    series = records.extract_upper_records(INSULATING_FLUID["kv34"])
    assert gpq.am_gm_ratio(series, beta).hex() == ratio
