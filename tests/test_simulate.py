"""Coverage study harness: seeding, determinism, grid plumbing."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import weibrec.simulate as simulate
from weibrec import gpq
from weibrec import (
    BracketError,
    CellError,
    InvalidDataError,
    SimConfig,
    SimReport,
    cell_tag,
    default_table_grid,
    render_table,
    report_row,
    run_cell,
    run_grid,
)
from weibrec.rng import derive_seed_array, exp_record_matrix

from conftest import searchsorted_index

TINY = dict(m=200, reps=40, gamma=0.05, seed=9)


def full_polish_sums(config, base_seed, start, stop):
    """Reference ``_batch_sums``: Newton on every draw, then sort."""
    rep_seeds = derive_seed_array(base_seed,
                                  np.arange(start, stop, dtype=np.uint64))
    data_seeds = derive_seed_array(rep_seeds, 1)
    pivot_seeds = derive_seed_array(rep_seeds, 2)
    lo_rank, hi_rank = gpq.percentile_ranks(config.m, config.gamma)
    roots = []
    for pop, n in enumerate((config.n1, config.n2)):
        k = n + 1
        d, gap = gpq._prep_log_records(exp_record_matrix(data_seeds, pop, k))
        ids = 2 * np.arange(config.m, dtype=np.uint64) + np.uint64(pop)
        target = gpq._exp_targets(pivot_seeds[:, None], ids, k)
        roots.append(gpq._solve_roots(gpq._start_table(d, gap), target))
    ratio = np.sort(roots[0] / roots[1], axis=1)
    lower, upper = ratio[:, lo_rank - 1], ratio[:, hi_rank - 1]
    return int(np.count_nonzero((lower < 1.0) & (1.0 < upper))), upper - lower


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidDataError):
            SimConfig(n1=0, n2=3, beta1=1.0, beta2=2.0)
        with pytest.raises(InvalidDataError):
            SimConfig(n1=3, n2=3, beta1=-1.0, beta2=2.0)
        with pytest.raises(InvalidDataError):
            SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, reps=0)
        # m * gamma / 2 < 1 leaves no draws for the lower rank
        with pytest.raises(InvalidDataError):
            SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, m=10, gamma=0.1)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_edges_are_accepted(self, seed):
        assert SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, seed=seed).seed == seed

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_seed_is_rejected(self, seed):
        with pytest.raises(InvalidDataError, match=r"seed must be in \[0, 2\*\*64\)"):
            SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("n1", 3.0), ("n2", True), ("m", 100.5), ("m", np.float64(200.0)),
        ("reps", 4.0), ("reps", "4"), ("seed", 1.5), ("seed", False),
    ])
    def test_non_integer_counts_and_seed_are_rejected(self, field, value):
        kwargs = dict(n1=3, n2=3, beta1=1.0, beta2=2.0, m=200, reps=4, seed=1)
        kwargs[field] = value
        with pytest.raises(InvalidDataError,
                           match=rf"^{field} must be an integer, got"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("beta1", True), ("beta2", False), ("alpha1", np.True_),
        ("alpha2", True), ("beta1", "2.0"),
    ])
    def test_non_real_shapes_and_scales_are_rejected(self, field, value):
        kwargs = dict(n1=3, n2=3, beta1=1.0, beta2=2.0)
        kwargs[field] = value
        with pytest.raises(InvalidDataError,
                           match=rf"^{field} must be a number, got"):
            SimConfig(**kwargs)

    def test_shape_past_the_float_range_is_rejected(self):
        # float(10**400) overflows; the overflow reads as an infinite shape.
        with pytest.raises(InvalidDataError) as err:
            SimConfig(n1=3, n2=3, beta1=10 ** 400, beta2=2.0)
        assert str(err.value) == "beta1 must be positive and finite"

    def test_integer_shapes_and_scales_are_the_float_cell(self):
        # One cell whatever the spelling of its parameters: the same
        # fields, the same tag and so the same streams and report.
        spelled = SimConfig(n1=2, n2=2, beta1=2, beta2=np.int64(1),
                            alpha1=np.float32(3.0), alpha2=1, **TINY)
        floats = SimConfig(n1=2, n2=2, beta1=2.0, beta2=1.0, alpha1=3.0,
                           alpha2=1.0, **TINY)
        fields = ("beta1", "beta2", "alpha1", "alpha2")
        assert all(type(getattr(spelled, f)) is float for f in fields)
        assert [getattr(spelled, f) for f in fields] == [2.0, 1.0, 3.0, 1.0]
        assert cell_tag(spelled) == cell_tag(floats)
        assert run_cell(spelled) == run_cell(floats)

    def test_numpy_integers_are_accepted_as_ints(self):
        c = SimConfig(n1=np.int64(3), n2=np.int32(4), beta1=1.0, beta2=2.0,
                      m=np.uint16(200), reps=np.int8(4),
                      seed=np.uint64(2 ** 64 - 1))
        values = (c.n1, c.n2, c.m, c.reps, c.seed)
        assert values == (3, 4, 200, 4, 2 ** 64 - 1)
        assert all(type(v) is int for v in values)

    def test_defaults(self):
        c = SimConfig(n1=3, n2=7, beta1=1.0, beta2=2.0)
        assert (c.alpha1, c.alpha2) == (1.0, 1.0)
        assert (c.m, c.reps, c.gamma, c.seed) == (2000, 2000, 0.05, 0)


class TestCellTag:
    def test_ignores_run_scale_settings(self):
        a = SimConfig(n1=3, n2=7, beta1=1.0, beta2=2.0, **TINY)
        b = SimConfig(n1=3, n2=7, beta1=1.0, beta2=2.0,
                      m=5000, reps=777, gamma=0.10, seed=123)
        assert cell_tag(a) == cell_tag(b)

    def test_sensitive_to_population_settings(self):
        base = SimConfig(n1=3, n2=7, beta1=1.0, beta2=2.0)
        for other in (
            SimConfig(n1=4, n2=7, beta1=1.0, beta2=2.0),
            SimConfig(n1=3, n2=7, beta1=1.5, beta2=2.0),
            SimConfig(n1=3, n2=7, beta1=1.0, beta2=2.0, alpha1=2.0),
        ):
            assert cell_tag(base) != cell_tag(other)


class TestRunCell:
    def test_report_shape_and_bounds(self):
        report = run_cell(SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, **TINY))
        assert 0.0 <= report.coverage <= 1.0
        assert report.expected_length > 0.0
        want_se = math.sqrt(report.coverage * (1 - report.coverage)
                            / report.config.reps)
        assert report.mc_se_coverage == want_se
        assert report.config.n1 == 3

    def test_tiny_scale_coverage_is_plausible(self):
        report = run_cell(SimConfig(n1=7, n2=7, beta1=2.0, beta2=2.0, **TINY))
        assert 0.8 <= report.coverage <= 1.0

    def test_tiny_first_shape_does_not_overflow(self):
        # Forming records as E**(1/beta1) overflows at beta1 = 1e-3.
        report = run_cell(SimConfig(n1=3, n2=3, beta1=1e-3, beta2=2.0,
                                    m=200, reps=40, seed=1))
        assert isinstance(report, SimReport)
        assert 0.0 <= report.coverage <= 1.0
        assert math.isfinite(report.expected_length)

    def test_deterministic_rerun(self):
        config = SimConfig(n1=3, n2=5, beta1=1.5, beta2=2.0, **TINY)
        a = run_cell(config)
        b = run_cell(config)
        assert (a.coverage, a.expected_length) == (b.coverage, b.expected_length)

    def test_threads_do_not_change_report(self, monkeypatch):
        # shrink batches so several run even at tiny scale
        monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 8_000)
        config = SimConfig(n1=3, n2=5, beta1=1.5, beta2=2.0, **TINY)
        serial = run_cell(config)
        threaded = run_cell(config, threads=4)
        assert serial.coverage == threaded.coverage
        assert serial.expected_length == threaded.expected_length

    @pytest.mark.parametrize("cell", [(3, 5, 1.5), (9, 7, 0.7)])
    def test_batch_size_and_threads_do_not_change_report(self, cell,
                                                         monkeypatch):
        # At (9, 7), k = 10 and m = 200, the (k, reps, 128) start-table
        # buffer sets the batch: one of 300 at 2e6 elements, two at 2**18,
        # six at 2**16 and 25 at 16_000; k >= 8 is where record sums need
        # their fixed order.
        n1, n2, beta1 = cell
        config = SimConfig(n1=n1, n2=n2, beta1=beta1, beta2=2.0, m=200,
                           reps=300, seed=4)
        reports = []
        for budget in sorted({2_000_000, 2 ** 18, simulate._ELEMENT_BUDGET,
                              16_000}):
            monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", budget)
            for threads in (None, 2, 3):
                r = run_cell(config, threads=threads)
                reports.append((budget, threads, r.coverage, r.expected_length))
        first = reports[0][2:]
        assert [r for r in reports if r[2:] != first] == []

    def test_coverage_is_free_of_shapes_and_scales(self, monkeypatch):
        # Records are alpha * E**(1 / beta): on one stream, cells that
        # differ only in (alpha, beta) see the same pivotal intervals up to
        # the factor beta1 / beta2.
        monkeypatch.setattr(simulate, "cell_tag", lambda config: 0x5EED)
        reports = [
            run_cell(SimConfig(n1=4, n2=6, beta1=b1, beta2=b2, alpha1=a1,
                               m=200, reps=200, seed=3))
            for b1, b2, a1 in [(0.5, 2.0, 1.0), (5.0, 2.0, 7.0),
                               (1e-3, 1e3, 1e-5)]
        ]
        assert len({r.coverage for r in reports}) == 1
        assert 0.0 < reports[0].coverage < 1.0
        unit = [r.expected_length / (r.config.beta1 / r.config.beta2)
                for r in reports]
        assert max(unit) - min(unit) <= 1e-15 * unit[0]

    @pytest.mark.parametrize("n", [3, 7, 14])
    def test_batch_footprint(self, n):
        # 250 replicates at m = 2000, k = 4 were one 2e6-element batch,
        # which peaked at 57.3 MiB; batches of 32 replicates peak at about
        # 5.1 MiB for each n.  The bound leaves a margin of about three.
        config = SimConfig(n1=n, n2=n, beta1=0.5, beta2=2.0, m=2000,
                           reps=250, seed=1)
        tracemalloc.start()
        try:
            run_cell(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("n", [3, 7, 14])
    def test_batches_allocate_no_per_draw_array(self, n, monkeypatch):
        # Every per-draw array of a batch lives in its worker's workspace,
        # which run_cell allocates before the first batch.  Measured at
        # 0.75-0.98 MiB above each batch's starting size; batches that
        # allocated their own arrays peaked at 4.59 MiB.
        real, peaks = simulate._batch_sums, []

        def spy(*args):
            current, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            got = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - current)
            return got

        monkeypatch.setattr(simulate, "_batch_sums", spy)
        tracemalloc.start()
        try:
            run_cell(SimConfig(n1=n, n2=n, beta1=1.0, beta2=2.0, m=2000,
                               reps=128, seed=3))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4
        assert max(peaks) < 1.5 * 2 ** 20, peaks

    @pytest.mark.parametrize("n", [3, 14])
    def test_batches_are_sized_by_their_largest_array(self, n, monkeypatch):
        # The (reps, m) per-draw arrays are the largest whatever k is, so
        # every cell of the study runs 32 replicates a batch at m = 2000.
        sizes = []

        def spy(config, base_seed, start, stop, work):
            sizes.append(stop - start)
            return 0, np.zeros(stop - start)

        monkeypatch.setattr(simulate, "_batch_sums", spy)
        run_cell(SimConfig(n1=n, n2=n, beta1=1.0, beta2=2.0, m=2000,
                           reps=100, seed=1))
        assert sizes == [32, 32, 32, 4]

    def test_start_table_buffer_stays_within_budget(self, monkeypatch):
        # At k = 41 the (k, reps, 128) buffer of the start table outgrows
        # the (reps, m) arrays, so it sets the batch size.
        real, buffers = gpq._start_table, []

        def spy(d, gap, work=None):
            buffers.append(d.size * gpq._START_NODES.size)
            return real(d, gap, work)

        monkeypatch.setattr(gpq, "_start_table", spy)
        run_cell(SimConfig(n1=40, n2=40, beta1=1.0, beta2=2.0, m=200,
                           reps=30, seed=2))
        assert len(buffers) > 2
        assert max(buffers) <= simulate._ELEMENT_BUDGET

    def test_pivot_draws_never_build_the_record_matrix(self, monkeypatch):
        real, streams = simulate.exp_record_matrix, []

        def data_only(seed, stream_ids, n_values):
            streams.append(stream_ids)
            return real(seed, stream_ids, n_values)

        monkeypatch.setattr(simulate, "exp_record_matrix", data_only)
        run_cell(SimConfig(n1=3, n2=7, beta1=1.0, beta2=2.0, **TINY),
                 threads=2)
        # Only the observed series: one stream id, the population, per call.
        assert streams and all(np.ndim(ids) == 0 for ids in streams)

    def test_seed_matters(self):
        base = dict(n1=3, n2=5, beta1=1.5, beta2=2.0, m=200, reps=40,
                    gamma=0.05)
        a = run_cell(SimConfig(seed=1, **base))
        b = run_cell(SimConfig(seed=2, **base))
        assert (a.coverage, a.expected_length) != (b.coverage, b.expected_length)


class TestPolishSelection:
    """run_cell polishes only the draws that can be interval endpoints."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(k1=st.integers(2, 16), k2=st.integers(2, 16),
           m=st.integers(40, 2000), gamma=st.floats(0.02, 0.2),
           beta1=st.sampled_from([1e-3, 1e307]), reps=st.integers(1, 6),
           budget=st.sampled_from([2_000, 16_000, 2 ** 18, 2_000_000]),
           threads=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2 ** 64 - 1), tiny=st.booleans())
    def test_equals_full_polish_bit_for_bit(self, k1, k2, m, gamma, beta1,
                                            reps, budget, threads, seed, tiny,
                                            monkeypatch):
        assume(gamma * m / 2.0 >= 1.0)
        config = SimConfig(n1=k1 - 1, n2=k2 - 1, beta1=beta1, beta2=2.0, m=m,
                           reps=reps, gamma=gamma, seed=seed)
        real, exp_targets = simulate._batch_sums, gpq._exp_targets
        spans = []

        def shrunk(seed, stream_ids, k, *work):
            # Every 7th pivot target below the certified range: its root
            # has no certified lower bound and must be polished.
            target = exp_targets(seed, stream_ids, k, *work)
            target[..., np.asarray(stream_ids) % 7 == 0] *= 1e-12
            return target

        def checked(config, base_seed, start, stop, work):
            got = real(config, base_seed, start, stop, work)
            want = full_polish_sums(config, base_seed, start, stop)
            assert got[0] == want[0], (start, stop)
            assert got[1].tobytes() == want[1].tobytes(), (start, stop)
            spans.append((start, stop))
            return got

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_ELEMENT_BUDGET", budget)
            patch.setattr(simulate, "_batch_sums", checked)
            if tiny:
                patch.setattr(gpq, "_exp_targets", shrunk)
            run_cell(config, threads=threads)
        assert sum(stop - start for start, stop in spans) == reps

    @pytest.mark.parametrize("poison", ["nan", "previous batch"])
    @pytest.mark.parametrize("budget", [150, 8_000, simulate._ELEMENT_BUDGET])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k1, k2", [(a, b) for a in (2, 5, 15)
                                        for b in (2, 5, 15)])
    def test_poisoned_workspace_moves_no_bit(self, k1, k2, threads, budget,
                                             poison, monkeypatch):
        # Before each batch every workspace row holds NaN, or the bytes
        # that the last batch to finish left in its own workspace: a row
        # read before it is written would move a report.
        config = SimConfig(n1=k1 - 1, n2=k2 - 1, beta1=1.0, beta2=2.0,
                           m=300, reps=40, seed=k1 * 100 + k2)
        real, left, spans = simulate._batch_sums, [], []

        def poisoned(config, base_seed, start, stop, work):
            if poison == "nan" or not left:
                work.fill(np.nan)
            else:
                np.copyto(work, left[-1])
            got = real(config, base_seed, start, stop, work)
            left.append(work.copy())
            want = full_polish_sums(config, base_seed, start, stop)
            assert got[0] == want[0], (start, stop)
            assert got[1].tobytes() == want[1].tobytes(), (start, stop)
            spans.append(stop - start)
            return got

        monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", budget)
        monkeypatch.setattr(simulate, "_batch_sums", poisoned)
        run_cell(config, threads=threads)
        assert sum(spans) == config.reps

    def test_polish_spans_stay_within_budget(self, monkeypatch):
        # A budget of 150 elements polishes 10 draws a span, so each
        # one-replicate batch polishes its candidates in several spans.
        real_newton, real_sums = gpq._newton, simulate._batch_sums
        buffers, batches = [], []

        def newton(d, gap, target, beta, buf=None):
            buffers.append(len(d) * beta.size)
            return real_newton(d, gap, target, beta, buf)

        def sums(config, base_seed, start, stop, work):
            calls = len(buffers)
            got = real_sums(config, base_seed, start, stop, work)
            batches.append((base_seed, start, stop, got, len(buffers) - calls))
            return got

        config = SimConfig(n1=14, n2=9, beta1=1.0, beta2=2.0, m=200, reps=4,
                           seed=6)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_ELEMENT_BUDGET", 150)
            patch.setattr(gpq, "_newton", newton)
            patch.setattr(simulate, "_batch_sums", sums)
            run_cell(config)
        assert max(buffers) <= 150
        for base_seed, start, stop, got, calls in batches:
            # One Newton call per population in each span.
            assert calls >= 2 * 2
            want = full_polish_sums(config, base_seed, start, stop)
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()

    def test_brackets_each_batch_once(self, monkeypatch):
        # Each polished root descends from the start that its batch's
        # bracket kept, so a batch brackets each population once, however
        # many polish spans it runs: here, with the budget of 150 elements
        # above, two or more.
        real_roots, real_newton = gpq._bracket_roots, gpq._newton
        real_sums = simulate._batch_sums
        events, batches = [], []

        def bracket_roots(*args):
            events.append("bracket")
            return real_roots(*args)

        def newton(*args):
            events.append("newton")
            return real_newton(*args)

        def sums(config, base_seed, start, stop, work):
            first = len(events)
            got = real_sums(config, base_seed, start, stop, work)
            batches.append(events[first:])
            return got

        config = SimConfig(n1=14, n2=9, beta1=1.0, beta2=2.0, m=200, reps=4,
                           seed=6)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_ELEMENT_BUDGET", 150)
            patch.setattr(gpq, "_bracket_roots", bracket_roots)
            patch.setattr(gpq, "_newton", newton)
            patch.setattr(simulate, "_batch_sums", sums)
            run_cell(config, threads=1)
        assert len(batches) == config.reps
        for batch in batches:
            assert batch[:2] == ["bracket"] * 2
            assert batch.count("bracket") == 2
            assert batch.count("newton") >= 2 * 2

    def test_polishes_under_a_quarter_of_draws(self, monkeypatch):
        # Measured at 9% for this cell; a bracket that certified nothing
        # would polish every draw.
        real, polished = gpq._newton, []

        def counting(d, gap, target, beta, buf=None):
            polished.append(beta.size)
            return real(d, gap, target, beta, buf)

        monkeypatch.setattr(gpq, "_newton", counting)
        config = SimConfig(n1=7, n2=7, beta1=1.0, beta2=2.0, m=2000, reps=60,
                           seed=5)
        run_cell(config)
        assert 0 < sum(polished) < 0.25 * 2 * config.reps * config.m


class TestStartLookup:
    """run_cell reports what a per-row binary search of each start gives."""

    @pytest.mark.parametrize("n1, n2, beta1", [
        (3, 3, 0.5), (7, 7, 1.0), (14, 14, 5.0),
    ])
    def test_reports_equal_searchsorted(self, n1, n2, beta1, monkeypatch):
        config = SimConfig(n1=n1, n2=n2, beta1=beta1, beta2=2.0, m=2000,
                           reps=40, seed=701)
        indexed = run_cell(config, threads=2)
        monkeypatch.setattr(gpq, "_node_index", searchsorted_index)
        reference = run_cell(config, threads=2)
        assert indexed.coverage.hex() == reference.coverage.hex()
        assert (indexed.expected_length.hex()
                == reference.expected_length.hex())


class TestRunGrid:
    def test_single_cell_grid_delegates(self):
        config = SimConfig(n1=4, n2=4, beta1=1.0, beta2=2.0, **TINY)
        [from_grid] = run_grid([config])
        direct = run_cell(config)
        assert isinstance(from_grid, SimReport)
        assert from_grid.coverage == direct.coverage
        assert from_grid.expected_length == direct.expected_length

    def test_failing_cell_is_isolated(self, monkeypatch):
        good1 = SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, **TINY)
        bad = SimConfig(n1=5, n2=5, beta1=1.0, beta2=2.0, **TINY)
        good2 = SimConfig(n1=4, n2=4, beta1=1.0, beta2=2.0, **TINY)
        real = simulate._batch_sums

        def flaky(config, base_seed, start, stop, work):
            if config.n1 == 5:
                raise BracketError("forced failure")
            return real(config, base_seed, start, stop, work)

        monkeypatch.setattr(simulate, "_batch_sums", flaky)
        results = run_grid([good1, bad, good2])
        assert isinstance(results[0], SimReport)
        assert isinstance(results[1], CellError)
        assert "forced failure" in results[1].error
        assert isinstance(results[2], SimReport)

    def test_first_failing_batch_is_reported(self, monkeypatch):
        # Batches of 15 replicates start at 0, 15 and 30, and the last two
        # fail.  With two workers, worker 0 meets batch 30 and worker 1
        # batch 15; every thread count reports batch 15, as a serial run
        # meets it first.
        monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 8_000)
        real = simulate._batch_sums

        def failing(config, base_seed, start, stop, work):
            if start > 0:
                raise BracketError(f"batch at {start}")
            return real(config, base_seed, start, stop, work)

        monkeypatch.setattr(simulate, "_batch_sums", failing)
        config = SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, **TINY)
        for threads in (None, 2, 3):
            with pytest.raises(BracketError, match="^batch at 15$"):
                run_cell(config, threads=threads)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(config, base_seed, start, stop, work):
            raise RuntimeError("bug")

        monkeypatch.setattr(simulate, "_batch_sums", broken)
        config = SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, **TINY)
        with pytest.raises(RuntimeError, match="bug"):
            run_grid([config])

    def test_rootless_pivot_draw_is_a_cell_error(self, tie_stream):
        # pivotal draw 7 of population 1 reads stream 2 * 7
        tie_stream(2 * 7)
        config = SimConfig(n1=1, n2=3, beta1=1.0, beta2=2.0, **TINY)
        [result] = run_grid([config])
        assert isinstance(result, CellError)
        assert "outer replicate 0, pivotal draw 7, population 1" in result.error

    def test_tied_data_records_are_a_cell_error(self, monkeypatch):
        # Replicate 0's two data records tie in float, so its log gap is
        # -0.0 and none of its pivotal equations has a root.
        real = simulate.exp_record_matrix

        def tied(seed, stream, k):
            rows = real(seed, stream, k)
            if k == 2:
                rows[1, 0] = rows[0, 0]
            return rows

        monkeypatch.setattr(simulate, "exp_record_matrix", tied)
        config = SimConfig(n1=1, n2=3, beta1=1.0, beta2=2.0, m=200, reps=4,
                           seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            [result] = run_grid([config])
        assert isinstance(result, CellError)
        assert "outer replicate 0" in result.error
        assert "no finite positive root" in result.error

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the uniform 1 - 2**-52, which the shifted "
                       "words 2**53 - 3 and 2**53 - 2 give, rounds a "
                       "two-value log W_exp(1) to 0, where it is 6.2e-33 "
                       "(ROADMAP item 4)")
    def test_near_tied_target_is_answered(self, monkeypatch):
        # Pivotal draw 7 of population 1 reads stream 2 * 7, and its one
        # uniform is set to 1 - 2**-52.
        real = gpq.uniforms

        def near_one(seed, stream_ids, n_values, *scratch):
            hit = np.asarray(stream_ids) == 2 * 7
            for u in real(seed, stream_ids, n_values, *scratch):
                u[..., hit] = 1.0 - 2.0 ** -52
                yield u

        monkeypatch.setattr(gpq, "uniforms", near_one)
        config = SimConfig(n1=1, n2=3, beta1=1.0, beta2=2.0, **TINY)
        [result] = run_grid([config])
        assert isinstance(result, SimReport), result

    def test_close_two_record_draw_is_answered(self):
        # This cell failed while targets were drawn as exponential records:
        # replicate 1's pivotal draw 171 of population 2 was a near-tied
        # pair whose target rounded to 0.  Drawn from one uniform, that
        # target is 2.2e-4 on both SIMD paths.
        config = SimConfig(n1=1, n2=1, beta1=1e307, beta2=2.0, m=172, reps=2,
                           gamma=0.125, seed=893)
        [result] = run_grid([config])
        assert isinstance(result, SimReport), result

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidDataError):
            run_grid([])


class TestDefaultGrid:
    def test_shape_and_order(self):
        grid = default_table_grid()
        assert len(grid) == 63
        assert (grid[0].n1, grid[0].n2, grid[0].beta1) == (3, 3, 0.5)
        assert (grid[-1].n1, grid[-1].n2, grid[-1].beta1) == (14, 14, 5.0)
        # row-major: the second row of cells starts after 7 shapes
        assert (grid[7].n1, grid[7].n2, grid[7].beta1) == (3, 7, 0.5)
        assert all(c.beta2 == 2.0 and c.alpha1 == 1.0 and c.alpha2 == 1.0
                   for c in grid)

    def test_scale_passthrough(self):
        grid = default_table_grid(m=50, reps=7, gamma=0.2, seed=4)
        assert all((c.m, c.reps, c.gamma, c.seed) == (50, 7, 0.2, 4)
                   for c in grid)


class TestReporting:
    def test_report_row_success(self):
        report = run_cell(SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, **TINY))
        row = report_row(report)
        assert row["n1"] == 3 and row["beta2"] == 2.0
        assert row["pi"] == 0.5
        assert row["error"] == ""
        assert row["coverage"] == report.coverage

    def test_report_row_failure(self):
        config = SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, **TINY)
        row = report_row(CellError(config=config, error="boom"))
        assert row["coverage"] is None
        assert row["error"] == "boom"

    def test_render_table_layout(self):
        configs = [
            SimConfig(n1=3, n2=3, beta1=0.5, beta2=2.0, **TINY),
            SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, **TINY),
            SimConfig(n1=7, n2=7, beta1=0.5, beta2=2.0, **TINY),
        ]
        results = run_grid(configs)
        results.append(CellError(config=SimConfig(
            n1=7, n2=7, beta1=1.0, beta2=2.0, **TINY), error="x"))
        text = render_table(results)
        lines = text.splitlines()
        assert lines[0] == "Coverage probability"
        assert "Expected length" in lines
        assert any(line.startswith("3,3") for line in lines)
        assert any(line.startswith("7,7") for line in lines)
        assert "ERR" in text
        header = lines[1]
        assert "0.5" in header and "1" in header


def _report(coverage, expected_length, **settings):
    """A made-up report of the cell ``settings`` over ``TINY``."""
    return SimReport(coverage=coverage, expected_length=expected_length,
                     mc_se_coverage=0.0, config=SimConfig(**settings, **TINY))


class TestRenderTableColumns:
    """Columns are keyed, and labelled, by every shape and scale setting."""

    @pytest.mark.parametrize("other, header, coverage, length", [
        (dict(beta2=3.0), "n1,n2     1,b2=2  1,b2=3",
         "3,3        0.900   0.800", "3,3        1.111   2.222"),
        (dict(alpha2=2.5), "n1,n2      1,a2=1 1,a2=2.5",
         "3,3         0.900    0.800", "3,3         1.111    2.222"),
    ], ids=["beta2", "alpha2"])
    def test_cells_sharing_n1_n2_beta1_keep_their_results(
            self, other, header, coverage, length):
        cell = dict(n1=3, n2=3, beta1=1.0, beta2=2.0)
        results = [_report(0.9, 1.111, **cell),
                   _report(0.8, 2.222, **{**cell, **other})]
        assert render_table(results).splitlines() == [
            "Coverage probability", header, coverage, "",
            "Expected length", header, length,
        ]

    def test_columns_widen_to_fit_their_labels(self):
        results = [_report(0.9, 1.0, n1=3, n2=3, beta1=1.0, beta2=2.0),
                   _report(0.8, 2.0, n1=3, n2=3, beta1=1.0, beta2=3.0,
                           alpha1=0.25, alpha2=2.5)]
        lines = render_table(results).splitlines()
        assert lines[1] == ("n1,n2   " + "1,b2=2,a1=1,a2=1".rjust(22)
                            + "1,b2=3,a1=0.25,a2=2.5".rjust(22))
        assert lines[2] == "3,3     " + "0.900".rjust(22) + "0.800".rjust(22)

    def test_columns_widen_to_fit_their_entries(self):
        results = [_report(0.9, 3.196, n1=3, n2=3, beta1=1.0, beta2=2.0),
                   _report(0.8, 2444940.809, n1=3, n2=3, beta1=1e6,
                           beta2=2.0)]
        lines = render_table(results).splitlines()
        assert lines[5:] == ["n1,n2   " + "1".rjust(12) + "1e+06".rjust(12),
                             "3,3     " + "3.196".rjust(12)
                             + "2444940.809".rjust(12)]

    def test_only_beta1_varying_prints_the_first_shape_alone(self):
        results = [
            _report(0.95, 1.25, n1=3, n2=3, beta1=0.5, beta2=2.0),
            _report(0.925, 2.5, n1=3, n2=3, beta1=1.0, beta2=2.0),
            _report(0.975, 0.6125, n1=7, n2=7, beta1=0.5, beta2=2.0),
            CellError(config=SimConfig(n1=7, n2=7, beta1=1.0, beta2=2.0,
                                       **TINY), error="x"),
        ]
        assert render_table(results) == (
            "Coverage probability\n"
            "n1,n2        0.5       1\n"
            "3,3        0.950   0.925\n"
            "7,7        0.975     ERR\n"
            "\n"
            "Expected length\n"
            "n1,n2        0.5       1\n"
            "3,3        1.250   2.500\n"
            "7,7        0.613     ERR"
        )

    @pytest.mark.parametrize("name, first, second", [
        ("m", 200, 50), ("reps", 40, 4), ("gamma", 0.05, 0.1), ("seed", 9, 2),
    ])
    def test_cells_differing_only_in_a_run_setting_keep_their_results(
            self, name, first, second):
        cell = dict(n1=3, n2=3, beta1=1.0, beta2=2.0)
        results = [
            SimReport(coverage=coverage, expected_length=length,
                      mc_se_coverage=0.0,
                      config=SimConfig(**cell, **{**TINY, name: value}))
            for coverage, length, value in ((0.9, 1.111, first),
                                            (0.8, 2.222, second))]
        lines = render_table(results).splitlines()
        assert lines[1].split() == lines[5].split() == [
            "n1,n2", f"1,{name}={first}", f"1,{name}={second}"]
        assert lines[2].split() == ["3,3", "0.900", "0.800"]
        assert lines[6].split() == ["3,3", "1.111", "2.222"]

    def test_a_seed_is_printed_in_full(self):
        cell = dict(n1=3, n2=3, beta1=1.0, beta2=2.0, m=200, reps=40)
        results = [CellError(config=SimConfig(**cell, seed=seed), error="x")
                   for seed in (0, 2 ** 64 - 1)]
        lines = render_table(results).splitlines()
        assert lines[1] == ("n1,n2   " + "1,seed=0".rjust(28)
                            + "1,seed=18446744073709551615".rjust(28))
        assert lines[2] == "3,3     " + "ERR".rjust(28) * 2
