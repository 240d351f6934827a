"""Workspace rows are dead where the row plan says they are.

The comment beside ``gpq._WORK_ROWS`` lists each row's tenants.  Filling
a row with NaN at a point where the plan calls it dead must move no bound
and no report: a stage that read such a row after it died would carry the
NaN into its output.  The poisoned-workspace tests of ``test_gpq.py`` and
``test_simulate.py`` poison whole blocks before a batch; these poison rows
between the stages of one batch.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

import weibrec.simulate as simulate
from weibrec import cli, gpq
from weibrec.simulate import SimConfig, run_cell
from weibrec.gpq import (p_value_one_sided, p_value_two_sided,
                         percentile_interval, sample_pivotal,
                         sample_shape_pivot)

REPO_DATA = Path(__file__).resolve().parent.parent / "data" / "insulating_fluid.csv"

# The rows that the comment beside gpq._WORK_ROWS lists as dead once
# _candidates has returned: the polish writes rows 0 and 2 before it
# reads them and otherwise reads only rows 4 to 6.
DEAD_ONCE_SELECTED = (0, 1, 2, 3)


def poison_draw_scratch(patch, calls):
    """Fill the four scratch views of each workspace target draw with NaN
    once the draw returns, so also after the last population's draw and
    before any bracket; each such draw appends its population to
    ``calls``."""
    real = gpq._pivot_targets

    def spy(seed, draws, population, k, *work):
        target = real(seed, draws, population, k, *work)
        if work:
            for row in work[1]:
                row.fill(np.nan)
            calls.append(population)
        return target

    patch.setattr(gpq, "_pivot_targets", spy)


def poison_after_selection(patch, calls):
    """Fill the rows that are dead once selection is done with NaN as soon
    as ``_candidates`` returns in ``_batch_sums``."""
    real = simulate._candidates

    def spy(below, above, ranks=(), pi0=None, work=None):
        got = real(below, above, ranks, pi0, work)
        work[list(DEAD_ONCE_SELECTED)] = np.nan
        calls.append(None)
        return got

    patch.setattr(simulate, "_candidates", spy)


def test_targets_are_drawn_before_any_root_is_bracketed(monkeypatch,
                                                        records34, records36):
    # Rows 0 to 3 are dead between the passes only if every population's
    # targets are drawn before the first bracket.
    events = []
    for name in ("_pivot_targets", "_bracket_roots"):
        real = getattr(gpq, name)

        def spy(*args, _real=real, _name=name):
            events.append(_name)
            return _real(*args)

        monkeypatch.setattr(gpq, name, spy)
    sample_pivotal(records34, records36, "ratio", 50, seed=3)
    assert events == ["_pivot_targets"] * 2 + ["_bracket_roots"] * 2


def report(draws):
    """Interval and p-values of ``draws``, as hex strings."""
    ci = percentile_interval(draws, 0.05)
    pi0 = float(np.median(draws.below))
    return [x.hex() for x in (ci.lower, ci.upper,
                              p_value_one_sided(draws, pi0).p_value,
                              p_value_two_sided(draws, pi0).p_value)]


@pytest.mark.parametrize("m", [300, 9001])
@pytest.mark.parametrize("chunk", [64, 8192])
@pytest.mark.parametrize("kind", ["ratio", "difference", "single-shape"])
def test_dead_draw_scratch_moves_no_cli_bit(kind, chunk, m, records34,
                                            records36):
    def sample():
        if kind == "single-shape":
            return sample_shape_pivot(records34, m, 21)
        return sample_pivotal(records34, records36, kind, m, 21)

    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpq, "_CHUNK", chunk)
        want = sample()
        poison_draw_scratch(patch, calls)
        got = sample()
        want_report, got_report = report(want), report(got)
    assert got.below.tobytes() == want.below.tobytes()
    assert got.above.tobytes() == want.above.tobytes()
    assert got_report == want_report
    pops = 1 if kind == "single-shape" else 2
    assert calls == list(range(pops)) * -(-m // chunk)


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command", [["ci-ratio", "--gamma", "0.05"],
                                     ["ci-diff", "--gamma", "0.05"],
                                     ["test", "--pi0", "1"]])
def test_dead_draw_scratch_moves_no_cli_report(command):
    argv = command + ["--data", str(REPO_DATA), "--M", "20000",
                      "--seed", "42"]
    want = cli_stdout(argv)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        poison_draw_scratch(patch, calls)
        got = cli_stdout(argv)
    assert want[0] == 0
    assert got == want
    assert calls == [0, 1] * 3


def cell_report(config, threads):
    r = run_cell(config, threads=threads)
    return [x.hex() for x in (r.coverage, r.expected_length,
                              r.mc_se_coverage)]


@pytest.mark.parametrize("point", ["draw scratch", "selection"])
@pytest.mark.parametrize("budget", [8_000, simulate._ELEMENT_BUDGET])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("k1, k2", [(2, 2), (2, 15), (5, 5), (15, 2),
                                    (15, 15)])
def test_dead_rows_move_no_run_cell_bit(k1, k2, threads, budget, point,
                                        monkeypatch):
    config = SimConfig(n1=k1 - 1, n2=k2 - 1, beta1=1.0, beta2=2.0, m=300,
                       reps=60, seed=k1 * 100 + k2)
    monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", budget)
    want = cell_report(config, threads)
    calls = []
    poison = (poison_draw_scratch if point == "draw scratch"
              else poison_after_selection)
    poison(monkeypatch, calls)
    assert cell_report(config, threads) == want
    # Each batch draws both populations' targets; two workers interleave.
    assert calls and (point == "selection"
                      or calls.count(0) == calls.count(1) == len(calls) / 2)
