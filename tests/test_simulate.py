"""Coverage study harness: seeding, determinism, grid plumbing."""

import math
import tracemalloc

import numpy as np
import pytest

import weibrec.simulate as simulate
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

TINY = dict(m=200, reps=40, gamma=0.05, seed=9)


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
        monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 40_000)
        config = SimConfig(n1=3, n2=5, beta1=1.5, beta2=2.0, **TINY)
        serial = run_cell(config)
        threaded = run_cell(config, threads=4)
        assert serial.coverage == threaded.coverage
        assert serial.expected_length == threaded.expected_length

    @pytest.mark.parametrize("cell", [(3, 5, 1.5), (9, 7, 0.7)])
    def test_batch_size_and_threads_do_not_change_report(self, cell,
                                                         monkeypatch):
        # At (9, 7), k = 10 and m = 200 give one batch of 300 at 2e6
        # elements, three at 2**18 and 38 at 16_000; k >= 8 is where
        # record sums need their fixed order.
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

    def test_batch_footprint(self):
        # 250 replicates at m = 2000, k = 4 were one 2e6-element batch,
        # which peaked at 57.3 MiB; 2**18-element batches peak at 7.4 MiB.
        # The bound leaves a margin of about twice that.
        config = SimConfig(n1=3, n2=3, beta1=0.5, beta2=2.0, m=2000,
                           reps=250, seed=1)
        tracemalloc.start()
        try:
            run_cell(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

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

        def flaky(config, base_seed, start, stop):
            if config.n1 == 5:
                raise BracketError("forced failure")
            return real(config, base_seed, start, stop)

        monkeypatch.setattr(simulate, "_batch_sums", flaky)
        results = run_grid([good1, bad, good2])
        assert isinstance(results[0], SimReport)
        assert isinstance(results[1], CellError)
        assert "forced failure" in results[1].error
        assert isinstance(results[2], SimReport)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(config, base_seed, start, stop):
            raise RuntimeError("bug")

        monkeypatch.setattr(simulate, "_batch_sums", broken)
        config = SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0, **TINY)
        with pytest.raises(RuntimeError, match="bug"):
            run_grid([config])

    def test_rootless_pivot_draw_is_a_cell_error(self, tie_stream):
        # pivotal draw 7 of population 1 reads stream 2 * 7
        tie_stream(simulate, 2 * 7)
        config = SimConfig(n1=1, n2=3, beta1=1.0, beta2=2.0, **TINY)
        [result] = run_grid([config])
        assert isinstance(result, CellError)
        assert "outer replicate 0, pivotal draw 7, population 1" in result.error

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
