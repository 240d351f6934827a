"""End-to-end mpmath oracle for the pivot draws.

Each reported draw is checked against the exact root of the floats it
consumed.  For each draw and population, the target log W_exp(1) is
formed in 40-digit arithmetic from the floats that ``gpq._exp_targets``
reduces for that draw's stream, and the root comes from Newton's method
on the exact log W of the observed float records.  So the oracle holds
the draw to the error that the float path adds to exact inputs, whatever
the recipe that turns a stream into floats.

Each bound is four times the largest error measured when this oracle
landed, on records drawn from the stream: 8.8e-14 for the targets and
4.4e-14 for the draws, the largest over the ratio draws.  The draw bound
serves every draw, the run_cell order statistics included.  A change
may tighten a bound, never widen it.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from weibrec import (SimConfig, gpq, percentile_ranks, run_cell,
                     sample_pivotal, simulate)
from weibrec.rng import derive_seed, derive_seed_array, exp_record_matrix

from conftest import target_rows

DPS = 40
M, SEED = 300, 42
TARGET_BOUND = 4 * 8.8e-14
DRAW_BOUND = 4 * 4.4e-14


def exact_target(column) -> mpmath.mpf:
    """log(mean v) - mean(log v) of the floats ``column``, in working precision."""
    v = [mpmath.mpf(float(x)) for x in column]
    return (mpmath.log(mpmath.fsum(v) / len(v))
            - mpmath.fsum(mpmath.log(x) for x in v) / len(v))


def exact_root(records, target, start) -> mpmath.mpf:
    """The root in beta of exact log W of the float ``records`` = target.

    Newton's method from the float root ``start``, on ``log W(beta) =
    log mean exp(beta d) + beta gap`` with ``d = log r - max log r``.
    """
    logs = [mpmath.log(mpmath.mpf(float(r))) for r in records]
    d = [x - max(logs) for x in logs]
    gap = -mpmath.fsum(d) / len(d)
    beta = mpmath.mpf(float(start))
    for _ in range(50):
        e = [mpmath.exp(beta * x) for x in d]
        total = mpmath.fsum(e)
        g = mpmath.log(total / len(d)) + beta * gap - target
        step = g / (mpmath.fdot(e, d) / total + gap)
        beta -= step
        if abs(step) <= beta * mpmath.mpf(10) ** (-DPS + 8):
            return beta
    raise AssertionError("exact Newton did not converge")


def exact_roots(records, seed, stream_ids, floats) -> tuple[list, list]:
    """Exact targets and roots of ``stream_ids``, Newton started at ``floats``."""
    v = target_rows(seed, stream_ids, len(records))
    targets = [exact_target(v[:, i]) for i in range(v.shape[1])]
    return targets, [exact_root(records, t, f) for t, f in zip(targets, floats)]


def rel_err(got, want) -> float:
    return float(abs(mpmath.mpf(float(got)) - want) / abs(want))


@pytest.fixture(scope="module")
def insulating_roots(records34, records36):
    """Per population: float targets, float roots and their exact values."""
    out = []
    with mpmath.workdps(DPS):
        for p, series in enumerate((records34, records36)):
            ids = 2 * np.arange(M, dtype=np.uint64) + np.uint64(p)
            table = gpq._start_table(*gpq._prep_log_records(series.values[:, None]))
            targets = gpq._exp_targets(np.asarray([[SEED]]), ids[None],
                                       len(series.values))
            roots = gpq._solve_roots(table, targets)[0]
            out.append((targets[0], roots,
                        *exact_roots(series.values, SEED, ids, roots)))
    return out


def test_targets_are_near_exact(insulating_roots):
    worst = max(rel_err(t, e) for targets, _, exact, _ in insulating_roots
                for t, e in zip(targets, exact))
    assert worst <= TARGET_BOUND, worst


@pytest.mark.parametrize("kind", ["ratio", "difference"])
def test_insulating_draws_are_near_exact(kind, insulating_roots, records34,
                                         records36):
    draws = sample_pivotal(records34, records36, kind, M, SEED).values
    (_, _, _, u1), (_, _, _, u2) = insulating_roots
    errs = []
    with mpmath.workdps(DPS):
        for x, a, b in zip(draws, u1, u2):
            # A difference is held to the size of its terms, the scale at
            # which the roots carry their error.
            want, scale = ((a / b, a / b) if kind == "ratio"
                           else (a - b, abs(a) + abs(b)))
            errs.append(float(abs(mpmath.mpf(float(x)) - want) / scale))
    assert max(errs) <= DRAW_BOUND, max(errs)


def test_run_cell_order_statistics_are_near_exact(monkeypatch):
    config = SimConfig(n1=3, n2=7, beta1=1.0, beta2=2.0, m=200, reps=1, seed=5)
    # gpq._settle_batch sorts the ratio bounds that _bracket returns in place,
    # with the draws that can reach either rank polished.
    held = []
    real = gpq._bracket

    def keep(*args):
        bounds = real(*args)
        held.append(bounds[0])
        return bounds

    monkeypatch.setattr(gpq, "_bracket", keep)
    report = run_cell(config)
    [ratios] = held

    # Replicate 0's seeds, as _batch_sums derives them.
    base_seed = derive_seed(config.seed, simulate.cell_tag(config))
    rep_seed = derive_seed_array(base_seed, 0)
    data_seed = derive_seed_array(rep_seed, 1)
    pivot_seed = derive_seed_array(rep_seed, 2)
    draws = np.arange(config.m, dtype=np.uint64)
    with mpmath.workdps(DPS):
        roots = []
        for p, n in enumerate((config.n1, config.n2)):
            records = exp_record_matrix(data_seed, p, n + 1)[:, 0]
            table = gpq._start_table(*gpq._prep_log_records(records[:, None]))
            ids = 2 * draws + np.uint64(p)
            targets = gpq._exp_targets(pivot_seed, ids, n + 1)
            floats = gpq._solve_roots(table, targets[None])[0]
            roots.append(exact_roots(records, pivot_seed, ids, floats)[1])
        exact = sorted(a / b for a, b in zip(*roots))
        lo, hi = percentile_ranks(config.m, config.gamma)
        for rank in (lo, hi):
            err = rel_err(ratios[0, rank - 1], exact[rank - 1])
            assert err <= DRAW_BOUND, (rank, err)
        # The width, like a difference, is held to the size of its terms.
        width = config.beta1 / config.beta2 * (exact[hi - 1] - exact[lo - 1])
        err = abs(mpmath.mpf(report.expected_length) - width) / (
            config.beta1 / config.beta2 * (exact[hi - 1] + exact[lo - 1]))
        assert err <= DRAW_BOUND, err
    assert report.coverage == float(exact[lo - 1] < 1 < exact[hi - 1])
