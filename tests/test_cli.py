"""End-to-end command line behavior."""

import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weibrec import cli, gpq
from weibrec.datasets import INSULATING_FLUID

from conftest import searchsorted_index

REPO_DATA = Path(__file__).resolve().parent.parent / "data" / "insulating_fluid.csv"


@pytest.fixture()
def fluid_csv(tmp_path) -> str:
    lines = ["kv34,kv36"]
    a, b = INSULATING_FLUID["kv34"], INSULATING_FLUID["kv36"]
    for i in range(max(len(a), len(b))):
        left = repr(a[i]) if i < len(a) else ""
        right = repr(b[i]) if i < len(b) else ""
        lines.append(f"{left},{right}")
    path = tmp_path / "fluid.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExtract:
    def test_worked_example_records(self, fluid_csv, capsys):
        code, out, _ = run_cli(["extract", "--data", fluid_csv], capsys)
        assert code == 0
        report = json.loads(out)
        pops = {p["label"]: p for p in report["populations"]}
        assert pops["kv34"]["records"] == [0.96, 4.15, 8.01, 31.75, 33.91,
                                           36.71, 72.89]
        assert pops["kv36"]["records"] == [1.97, 2.58, 2.71, 25.50]
        assert pops["kv34"]["raw_count"] == 19
        assert report["schema"] == "weibrec-report/1"

    def test_shipped_data_file(self, capsys):
        code, out, _ = run_cli(["extract", "--data", str(REPO_DATA)], capsys)
        assert code == 0
        report = json.loads(out)
        assert [p["label"] for p in report["populations"]] == ["kv34", "kv36"]

    def test_single_column_echoes(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("x\n1\n2\n3\n")
        code, out, _ = run_cli(["extract", "--data", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["populations"][0]["records"] == [1.0, 2.0, 3.0]

    def test_negative_value_names_the_cell(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n-3.5,4.0\n")
        code, _, err = run_cli(["extract", "--data", str(path)], capsys)
        assert code == 2
        assert "row 3" in err and "'a'" in err

    def test_text_format(self, fluid_csv, capsys):
        code, out, _ = run_cli(
            ["extract", "--data", fluid_csv, "--format", "text"], capsys)
        assert code == 0
        assert out.startswith("kv34: 0.96 4.15")


class TestMle:
    def test_json_fields(self, fluid_csv, capsys):
        code, out, _ = run_cli(["mle", "--data", fluid_csv], capsys)
        assert code == 0
        pops = json.loads(out)["populations"]
        assert f"{pops[0]['beta']:.4f}" == "0.5990"
        assert f"{pops[0]['alpha']:.4f}" == "2.8303"
        assert f"{pops[1]['beta']:.4f}" == "0.5639"
        assert abs(pops[0]["se_beta"] - 0.2264) < 0.005

    def test_text_six_significant_digits(self, fluid_csv, capsys):
        _, out, _ = run_cli(["mle", "--data", fluid_csv, "--format", "text"],
                            capsys)
        assert "beta = 0.599003" in out

    def test_records_input_inline(self, capsys):
        code, out, _ = run_cli(
            ["mle", "--records", "a:1,2.718281828459045"], capsys)
        assert code == 0
        assert json.loads(out)["populations"][0]["beta"] == pytest.approx(2.0)

    @pytest.mark.parametrize("records", [
        "a:1,1.0000001;b:1,2",                 # near-tied records
        "a:0.001,0.002,0.0035;b:0.001,0.003",  # scale 1e-3
        "a:3,3.0000000000000004;b:1,2",        # float logarithms tie
    ])
    def test_near_tied_and_small_scale_records(self, records, capsys):
        code, out, err = run_cli(["mle", "--records", records], capsys)
        assert code == 0, err
        for pop in json.loads(out)["populations"]:
            for key in ("se_alpha", "se_beta"):
                assert math.isfinite(pop[key]) and pop[key] > 0.0

    def test_single_record_population_fails_cleanly(self, capsys):
        code, _, err = run_cli(["mle", "--records", "a:5.0"], capsys)
        assert code == 2
        assert "two record" in err


class TestPooledMle:
    def test_worked_example(self, fluid_csv, capsys):
        code, out, _ = run_cli(["pooled-mle", "--data", fluid_csv], capsys)
        assert code == 0
        report = json.loads(out)
        assert f"{report['beta']:.4f}" == "0.5857"
        assert f"{report['alpha1']:.4f}" == "2.6297"
        assert f"{report['alpha2']:.4f}" == "2.3916"

    def test_near_tied_records(self, capsys):
        code, out, err = run_cli(
            ["pooled-mle", "--records", "a:1,1.0000001;b:1,1.0000002"], capsys)
        assert code == 0, err
        report = json.loads(out)
        for key in ("se_beta", "se_alpha1", "se_alpha2"):
            assert math.isfinite(report[key]) and report[key] > 0.0

    def test_records_with_tied_logarithms(self, capsys):
        code, out, err = run_cli(
            ["pooled-mle", "--records",
             "a:3,3.0000000000000004;b:1e300,1.0000000000000002e300"], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert math.isfinite(report["beta"]) and report["beta"] > 0.0

    def test_needs_exactly_two_populations(self, capsys):
        code, _, err = run_cli(
            ["pooled-mle", "--records", "a:1,2;b:1,3;c:1,4"], capsys)
        assert code == 2
        assert "exactly 2" in err

    def test_standard_error_above_the_float_range_exits_3(self, capsys):
        # A one-record population keeps alpha_hat = r_n, but its standard
        # error r_n / beta_hat overflows at the small pooled shape.
        code, out, err = run_cli(
            ["pooled-mle", "--records", "a:1.7e308;b:1e-300,1e300"], capsys)
        assert (code, out) == (3, "")
        assert "outside the float range" in err


def _edge_records(draw, kind: str, k: int) -> list[float]:
    """k records of one kind: values spread over the float range, 1-3-ulp
    near ties, or unit-exponential-like records at a scale 10**+-300."""
    if kind == "wide":
        logs = draw(st.lists(st.floats(-323.0, 308.2), min_size=k, max_size=k))
        values = [10.0 ** x for x in logs]
    elif kind == "tied":
        value = 10.0 ** draw(st.floats(-320.0, 308.0))
        values = [value]
        for steps in draw(st.lists(st.integers(1, 3), min_size=k - 1,
                                   max_size=k - 1)):
            for _ in range(steps):
                value = math.nextafter(value, math.inf)
            values.append(value)
    else:
        scale = 10.0 ** draw(st.floats(-300.0, 300.0))
        increments = draw(st.lists(st.floats(1e-3, 10.0), min_size=k,
                                   max_size=k))
        values = [float(v) for v in scale * np.cumsum(increments)]
    return sorted(set(values))


@st.composite
def edge_pairs(draw) -> list[list[float]]:
    """Two valid record series of 2 to 8 values, each of one edge kind."""
    pair = []
    for _ in range(2):
        values = _edge_records(draw, draw(st.sampled_from(
            ["wide", "tied", "scaled"])), draw(st.integers(2, 8)))
        assume(len(values) >= 2)
        pair.append(values)
    return pair


def _exact_log_alphas(pair: list[list[float]], pooled: bool) -> list:
    """log alpha_hat of each series in 60-digit arithmetic."""
    with mpmath.workdps(60):
        logs = [[mpmath.log(mpmath.mpf(v)) for v in values] for values in pair]
        sums = [mpmath.fsum(x[-1] - y for y in x) for x in logs]
        if pooled:
            betas = [sum(map(len, pair)) / mpmath.fsum(sums)] * 2
        else:
            betas = [len(x) / s for x, s in zip(pair, sums)]
        return [x[-1] - mpmath.log(len(x)) / b for x, b in zip(logs, betas)]


class TestFitAtFloatEdges:
    """mle and pooled-mle answer wherever each alpha_hat is a normal float
    and exit 3 with a range error wherever one is below every subnormal."""

    NORMAL = -1022 * math.log(2.0) + 1e-9
    BELOW_SUBNORMAL = -1075 * math.log(2.0) - 1e-9

    @settings(max_examples=400, deadline=None)
    @given(pair=edge_pairs())
    @example(pair=[[1e-300, 1e-299, 1e300, 1.7e308], [1.0, 2.0]])
    @example(pair=[[5e-324, 1e-323, 1.5e-323, 1e-300], [1.0, 2.0]])
    def test_answer_or_range_error(self, pair):
        records = ";".join(f"{label}:" + ",".join(map(repr, values))
                           for label, values in zip("ab", pair))
        for command, pooled in (("mle", False), ("pooled-mle", True)):
            lowest = min(_exact_log_alphas(pair, pooled))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([command, "--records", records])
            if lowest > self.NORMAL:
                assert code == 0, (command, err.getvalue())
                text = out.getvalue()
                assert "NaN" not in text and "Infinity" not in text
                json.loads(text)
            elif lowest < self.BELOW_SUBNORMAL:
                assert code == 3, (command, err.getvalue())
                assert "outside the float range" in err.getvalue()
            else:
                assert code in (0, 3), (command, err.getvalue())


class TestCiAtFloatEdges:
    """ci-ratio, ci-diff and test answer on every valid pair at the float
    edges, or exit 2 or 3 with an error line; none prints NaN or inf."""

    @settings(max_examples=300, deadline=None)
    @given(pair=edge_pairs())
    @example(pair=[[1e-300, 1e-299, 1e300, 1.7e308], [1.0, 2.0]])
    @example(pair=[[5e-324, 1e-323, 1.5e-323, 1e-300], [1.0, 2.0]])
    @example(pair=[[1.0, 1.0000000000000002], [1.0, 2.0]])
    def test_answer_or_error_line(self, pair):
        records = ";".join(f"{label}:" + ",".join(map(repr, values))
                           for label, values in zip("ab", pair))
        for command in (["ci-ratio", "--gamma", "0.05"],
                        ["ci-diff", "--gamma", "0.05"],
                        ["test", "--pi0", "1"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(command + ["--records", records,
                                           "--M", "400", "--seed", "1"])
            if code == 0:
                text = out.getvalue()
                assert "NaN" not in text and "Infinity" not in text, command
                json.loads(text)
            else:
                assert code in (2, 3), (command, code, err.getvalue())
                assert err.getvalue().startswith("error: "), command


class TestCiAndTest:
    def test_ci_ratio_report(self, fluid_csv, capsys):
        code, out, _ = run_cli(
            ["ci-ratio", "--data", fluid_csv, "--gamma", "0.05",
             "--M", "4000", "--seed", "11"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["estimand"] == "pi"
        assert report["level"] == 0.95
        assert report["m"] == 4000 and report["seed"] == 11
        assert 0.0 < report["interval"]["lower"] < 1.0
        assert report["interval"]["upper"] > 2.0
        assert report["point_estimate"] == pytest.approx(0.5990 / 0.5639,
                                                         abs=1e-3)

    def test_ci_contains_one_for_duplicated_series(self, capsys):
        code, out, _ = run_cli(
            ["ci-ratio", "--records", "a:1,2,5;b:1,2,5", "--gamma", "0.10",
             "--M", "2000", "--seed", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["interval"]["lower"] < 1.0 < report["interval"]["upper"]

    def test_ci_diff_estimand(self, fluid_csv, capsys):
        code, out, _ = run_cli(
            ["ci-diff", "--data", fluid_csv, "--gamma", "0.05",
             "--M", "2000", "--seed", "11"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["estimand"] == "delta"
        assert report["interval"]["lower"] < 0.0 < report["interval"]["upper"]

    def test_test_two_sided_conclusion(self, fluid_csv, capsys):
        code, out, _ = run_cli(
            ["test", "--data", fluid_csv, "--pi0", "1", "--M", "4000",
             "--seed", "42"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["sidedness"] == "two-sided"
        assert report["p_value"] > 0.9
        assert report["conclusion"] == "fail to reject at 0.05"

    def test_test_one_sided(self, fluid_csv, capsys):
        code, out, _ = run_cli(
            ["test", "--data", fluid_csv, "--pi0", "1", "--M", "2000",
             "--seed", "42", "--sided", "greater"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["sidedness"] == "one-sided-greater"
        assert 0.0 <= report["p_value"] <= 1.0

    @pytest.mark.parametrize("command, option", [
        *(pytest.param("test", option, id=option) for option in (
            "--pi0=nan", "--pi0=inf", "--pi0=-inf", "--pi0=0", "--pi0=-1",
            "--gamma=nan", "--gamma=0", "--gamma=1", "--gamma=-0.1",
            "--gamma=1.5", "--gamma=inf",
        )),
        *(pytest.param(command, option, id=f"{command}:{option}")
          for command in ("ci-ratio", "ci-diff")
          for option in ("--gamma=nan", "--gamma=0", "--gamma=1",
                         "--gamma=-0.1", "--gamma=inf")),
    ])
    def test_test_rejects_invalid_pi0_and_gamma(self, command, option,
                                                capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("draws were made")

        monkeypatch.setattr(cli, "sample_pivotal", no_draws)
        defaults = {"--gamma": "--gamma=0.05"}
        if command == "test":
            defaults["--pi0"] = "--pi0=1"
        defaults[option.split("=")[0]] = option
        code, out, err = run_cli(
            [command, "--records", "a:1,2,5;b:1,3", *defaults.values(),
             "--M", "100", "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert option.split("=")[0] in err

    def test_test_reports_monte_carlo_error(self, capsys):
        args = ["test", "--records", "a:1,2,5,9;b:1,3,4", "--pi0", "1.2",
                "--M", "400", "--seed", "8"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        two = json.loads(out)
        code, out, _ = run_cli(args + ["--sided", "greater"], capsys)
        assert code == 0
        one = json.loads(out)
        # The two-sided p-value is 2 q for the smaller tail fraction q.
        q = two["p_value"] / 2.0
        assert two["mc_se_p_value"] == 2.0 * math.sqrt(q * (1.0 - q) / 400)
        p = one["p_value"]
        assert one["mc_se_p_value"] == math.sqrt(p * (1.0 - p) / 400)
        assert 0.0 < p < 1.0 and 0.0 < q < 0.5

    def test_generated_seed_is_printed_and_embedded(self, fluid_csv, capsys):
        code, out, err = run_cli(
            ["test", "--data", fluid_csv, "--pi0", "1", "--M", "2000"],
            capsys)
        assert code == 0
        assert "seed:" in err
        printed = int(err.split("seed:")[1].split()[0])
        assert json.loads(out)["seed"] == printed

    def test_insufficient_draws_is_a_request_error(self, fluid_csv, capsys):
        code, _, err = run_cli(
            ["ci-ratio", "--data", fluid_csv, "--gamma", "0.05",
             "--M", "10", "--seed", "1"], capsys)
        assert code == 2
        assert "draw" in err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed_is_rejected(self, seed, capsys):
        for command in (
            ["ci-ratio", "--records", "a:1,2,5;b:1,3", "--gamma", "0.1",
             "--M", "100"],
            ["simulate", "--cell", "3,3,1.0,2.0", "--M", "100", "--N", "2"],
        ):
            code, _, err = run_cli(command + ["--seed", seed], capsys)
            assert code == 2
            assert "seed must be in [0, 2**64)" in err

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_edges_are_accepted(self, seed, capsys):
        code, out, _ = run_cli(
            ["ci-ratio", "--records", "a:1,2,5;b:1,3", "--gamma", "0.1",
             "--M", "100", "--seed", str(seed)], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == seed

    def test_bracket_failure_exits_3(self, capsys):
        # Regression: this valid input used to exit 3 at the bracket cap.
        code, out, _ = run_cli(
            ["ci-ratio", "--records", "a:1,1.000000001;b:1,3,7",
             "--gamma", "0.1", "--M", "100", "--seed", "5"], capsys)
        assert code == 0
        interval = json.loads(out)["interval"]
        assert math.isfinite(interval["lower"])
        assert math.isfinite(interval["upper"])
        assert 0.0 < interval["lower"] <= interval["upper"]

    def test_records_with_tied_logarithms_get_an_answer(self, capsys):
        # 3 and nextafter(3, inf) have the same float logarithm.
        code, out, _ = run_cli(
            ["ci-ratio", "--records", "a:3,3.0000000000000004;b:1,3,7",
             "--gamma", "0.1", "--M", "100", "--seed", "5"], capsys)
        assert code == 0
        interval = json.loads(out)["interval"]
        assert 0.0 < interval["lower"] <= interval["upper"] < math.inf

    def test_rootless_replicate_exits_3(self, tie_stream, capsys):
        tie_stream(2 * 3)
        code, _, err = run_cli(
            ["ci-ratio", "--records", "a:1,3;b:1,3,7",
             "--gamma", "0.1", "--M", "100", "--seed", "5"], capsys)
        assert code == 3
        assert "replicate 3" in err


def _g(x: float) -> str:
    return f"{x:.6g}"


def _mc_tail(r: dict) -> str:
    return f"m = {r['m']}, seed = {r['seed']}"


PAIR = "a:1,2,5,9;b:1,3,4"
MC = ["--M", "400", "--seed", "8"]


class TestReportRendering:
    @pytest.mark.parametrize("args, lines", [
        pytest.param(["pooled-mle", "--records", PAIR], lambda r: [
            f"pooled: beta = {_g(r['beta'])} (se {_g(r['se_beta'])}), "
            f"alpha1 = {_g(r['alpha1'])} (se {_g(r['se_alpha1'])}), "
            f"alpha2 = {_g(r['alpha2'])} (se {_g(r['se_alpha2'])}), "
            f"loglik = {_g(r['loglik'])}",
        ], id="pooled-mle"),
        pytest.param(["ci-ratio", "--records", PAIR, "--gamma", "0.1", *MC],
                     lambda r: [
            f"90% interval for shape ratio: ({_g(r['interval']['lower'])}, "
            f"{_g(r['interval']['upper'])})",
            f"point estimate {_g(r['point_estimate'])}, {_mc_tail(r)}",
        ], id="ci-ratio"),
        pytest.param(["ci-diff", "--records", PAIR, "--gamma", "0.05", *MC],
                     lambda r: [
            f"95% interval for shape difference: "
            f"({_g(r['interval']['lower'])}, {_g(r['interval']['upper'])})",
            f"point estimate {_g(r['point_estimate'])}, {_mc_tail(r)}",
        ], id="ci-diff"),
        *(pytest.param(["test", "--records", PAIR, "--pi0", "1.2",
                        "--sided", sided, *MC], lambda r: [
            f"p-value = {_g(r['p_value'])} ({r['sidedness']}, "
            f"pi0 = {_g(r['pi0'])})",
            f"conclusion: {r['conclusion']} (point estimate "
            f"{_g(r['point_estimate'])}, {_mc_tail(r)})",
        ], id=f"test-{sided}") for sided in ("two-sided", "greater")),
    ])
    def test_text_lines_match_json(self, args, lines, capsys):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        report = json.loads(out)
        code, out, _ = run_cli(args + ["--format", "text"], capsys)
        assert code == 0
        assert out == "\n".join(lines(report)) + "\n"

    HEAD = ["schema", "version", "command", "data_digest", "data_kind",
            "populations[0].label", "populations[0].n",
            *(f"populations[0].records[{i}]" for i in range(4)),
            "populations[1].label", "populations[1].n",
            *(f"populations[1].records[{i}]" for i in range(3)),
            "m", "seed"]

    @pytest.mark.parametrize("args, tail", [
        pytest.param(["ci-ratio", "--records", PAIR, "--gamma", "0.1", *MC],
                     ["gamma", "level", "estimand", "interval.lower",
                      "interval.upper", "point_estimate"], id="ci-ratio"),
        pytest.param(["test", "--records", PAIR, "--pi0", "1.2", *MC],
                     ["pi0", "gamma", "sidedness", "p_value",
                      "mc_se_p_value", "point_estimate", "conclusion"],
                     id="test"),
    ])
    def test_csv_key_order(self, args, tail, capsys):
        code, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "key,value"
        assert [row.split(",")[0] for row in rows[1:]] == self.HEAD + tail
        report = json.loads(run_cli(args, capsys)[1])
        assert rows[3] == f"command,{report['command']}"
        assert rows[-1] == f"{tail[-1]},{report[tail[-1]]}"


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reports_across_threads(self, fluid_csv, tmp_path,
                                                    capsys):
        paths = []
        for i, threads in enumerate(("1", "4")):
            out_path = tmp_path / f"r{i}.json"
            code, _, _ = run_cli(
                ["ci-ratio", "--data", fluid_csv, "--gamma", "0.05",
                 "--M", "20000", "--seed", "7", "--threads", threads,
                 "--out", str(out_path)], capsys)
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_extract_round_trip_matches_raw_path(self, fluid_csv, tmp_path,
                                                 capsys):
        rec_path = tmp_path / "records.json"
        code, _, _ = run_cli(
            ["extract", "--data", fluid_csv, "--out", str(rec_path)], capsys)
        assert code == 0
        args = ["--gamma", "0.05", "--M", "3000", "--seed", "21"]
        code, out_raw, _ = run_cli(
            ["ci-ratio", "--data", fluid_csv] + args, capsys)
        assert code == 0
        code, out_rec, _ = run_cli(
            ["ci-ratio", "--records", str(rec_path)] + args, capsys)
        assert code == 0
        raw, rec = json.loads(out_raw), json.loads(out_rec)
        assert raw["interval"] == rec["interval"]
        assert raw["point_estimate"] == rec["point_estimate"]

    def test_threads_env_variable(self, fluid_csv, capsys, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        code, out, _ = run_cli(
            ["ci-ratio", "--data", fluid_csv, "--gamma", "0.05",
             "--M", "2000", "--seed", "7"], capsys)
        assert code == 0
        monkeypatch.setenv(cli.THREADS_ENV, "greedy")
        code, _, err = run_cli(
            ["ci-ratio", "--data", fluid_csv, "--gamma", "0.05",
             "--M", "2000", "--seed", "7"], capsys)
        assert code == 2
        assert cli.THREADS_ENV in err


def full_percentile_interval(draws, gamma):
    """The interval read from every draw, fully solved and sorted."""
    lo_rank, hi_rank = gpq.percentile_ranks(draws.m, gamma)
    ordered = np.sort(draws.values)
    return gpq.IntervalEstimate(
        lower=float(ordered[lo_rank - 1]), upper=float(ordered[hi_rank - 1]),
        level=1.0 - gamma, m=draws.m,
        estimand=gpq._ESTIMAND_FOR_KIND[draws.kind])


def full_p_value_one_sided(draws, pi0):
    """The one-sided p-value counted over every fully solved draw."""
    p = float(np.count_nonzero(draws.values < pi0)) / draws.m
    return gpq.TestResult(p_value=p, pi0=pi0, sidedness="one-sided-greater",
                          m=draws.m, mc_se=math.sqrt(p * (1.0 - p) / draws.m))


def full_p_value_two_sided(draws, pi0):
    """The two-sided p-value counted over every fully solved draw."""
    below = float(np.count_nonzero(draws.values < pi0))
    above = float(np.count_nonzero(draws.values > pi0))
    q = min(below, above) / draws.m
    return gpq.TestResult(p_value=min(1.0, 2.0 * q), pi0=pi0,
                          sidedness="two-sided", m=draws.m,
                          mc_se=2.0 * math.sqrt(q * (1.0 - q) / draws.m))


class TestSelectivePolishOutput:
    """The command line reports what a full solve of every draw reports."""

    @pytest.mark.parametrize("args", [
        ["ci-ratio", "--gamma", "0.05"],
        ["ci-diff", "--gamma", "0.1"],
        ["test", "--pi0", "1", "--sided", "greater"],
        ["test", "--pi0", "2.5", "--sided", "two-sided"],
    ], ids=["ci-ratio", "ci-diff", "test-greater", "test-two-sided"])
    @pytest.mark.parametrize("m, seed, fmt", [
        (400, 3, "text"), (5000, 20141, "csv"), (100_000, 42, "json"),
    ])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_stdout_equals_full_solve(self, args, m, seed, fmt, threads,
                                      capsys, monkeypatch):
        argv = args + ["--data", str(REPO_DATA), "--M", str(m), "--seed",
                       str(seed), "--threads", threads, "--format", fmt]
        code, selective, err = run_cli(argv, capsys)
        assert code == 0, err
        monkeypatch.setattr(cli, "percentile_interval", full_percentile_interval)
        monkeypatch.setattr(cli, "p_value_one_sided", full_p_value_one_sided)
        monkeypatch.setattr(cli, "p_value_two_sided", full_p_value_two_sided)
        code, full, err = run_cli(argv, capsys)
        assert code == 0, err
        assert selective.encode() == full.encode()


class TestStartLookupOutput:
    """The bin index reports what a per-row binary search reports."""

    @pytest.mark.parametrize("args", [
        ["ci-ratio", "--gamma", "0.05"],
        ["ci-diff", "--gamma", "0.1"],
        ["test", "--pi0", "1", "--sided", "greater"],
        ["test", "--pi0", "2.5", "--sided", "two-sided"],
    ], ids=["ci-ratio", "ci-diff", "test-greater", "test-two-sided"])
    @pytest.mark.parametrize("data, m, threads", [
        (["--data", str(REPO_DATA)], 100_000, "1"),
        (["--data", str(REPO_DATA)], 100_000, "2"),
        (["--data", str(REPO_DATA)], 5000, "2"),
        (["--records",
          "a:1,1.0000000000000002,1.0000000000000004;b:1,2,3"], 5000, "1"),
        (["--records", "a:1e-300,1e300;b:1,2"], 5000, "2"),
        (["--records", "a:1e-320,1e-319;b:1,2,3"], 5000, "1"),
    ])
    def test_stdout_equals_searchsorted(self, args, data, m, threads,
                                        capsys, monkeypatch):
        argv = args + data + ["--M", str(m), "--seed", "42",
                              "--threads", threads]
        code, indexed, err = run_cli(argv, capsys)
        assert code == 0, err
        monkeypatch.setattr(gpq, "_node_index", searchsorted_index)
        code, searched, err = run_cli(argv, capsys)
        assert code == 0, err
        assert indexed.encode() == searched.encode()

    def test_one_table_per_population(self, records34, records36, capsys,
                                      monkeypatch):
        m, seed, gamma = 100_000, 7, 0.05
        # The draws the interval polishes, counted before the patches.
        draws = gpq.sample_pivotal(records34, records36, "ratio", m, seed)
        lo, hi = gpq.percentile_ranks(m, gamma)
        polished = np.count_nonzero(
            gpq._candidates(draws.below, draws.above, [lo - 1, hi - 1]))
        assert polished > 0
        real, built, lookups = gpq._start_table, [], []
        lookup = gpq._node_index
        monkeypatch.setattr(gpq, "_start_table",
                            lambda d, gap: built.append(1) or real(d, gap))
        monkeypatch.setattr(gpq, "_node_index",
                            lambda *a: lookups.append(1) or lookup(*a))
        code, _, err = run_cli(["ci-ratio", "--gamma", str(gamma), "--data",
                                str(REPO_DATA), "--M", str(m),
                                "--seed", str(seed)], capsys)
        assert code == 0, err
        assert len(built) == 2
        # One lookup per population for each bracket span (13 at M = 1e5)
        # and each polish span, and none more.
        spans = math.ceil(m / gpq._CHUNK) + math.ceil(polished / gpq._CHUNK)
        assert len(lookups) == 2 * spans, (len(lookups), polished)


class TestInputFormats:
    def test_long_csv_with_order(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(
            "population,value,order\n"
            "a,5.0,2\na,1.0,1\na,9.0,3\n"
            "b,2.0,1\nb,3.0,2\n"
        )
        code, out, _ = run_cli(["extract", "--data", str(path)], capsys)
        assert code == 0
        pops = {p["label"]: p["records"] for p in json.loads(out)["populations"]}
        assert pops["a"] == [1.0, 5.0, 9.0]
        assert pops["b"] == [2.0, 3.0]

    def test_long_csv_raw_requires_order(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("population,value\na,5.0\na,1.0\n")
        code, _, err = run_cli(["extract", "--data", str(path)], capsys)
        assert code == 2
        assert "order" in err

    def test_json_object_input(self, tmp_path, capsys):
        path = tmp_path / "pops.json"
        path.write_text(json.dumps({"a": [1.0, 4.0, 2.0], "b": [3.0, 5.0]}))
        code, out, _ = run_cli(["extract", "--data", str(path)], capsys)
        assert code == 0
        pops = {p["label"]: p["records"] for p in json.loads(out)["populations"]}
        assert pops["a"] == [1.0, 4.0]

    def test_json_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"a": [1, 1' + "0" * 400 + '], "b": [1, 2]}')
        code, _, err = run_cli(["mle", "--records", str(path)], capsys)
        assert code == 2
        assert "population 'a', index 1" in err

    def test_data_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        code, _, err = run_cli(["extract", "--data", str(path)], capsys)
        assert code == 2
        assert str(path) in err and "byte 6" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["mle", "--records", "nosuchfile.csv"], capsys)
        assert code == 2
        assert "nosuchfile" in err

    def test_mistyped_path_is_reported_as_one(self, capsys):
        code, _, err = run_cli(["mle", "--data", "data/nosuch,file.csv"],
                               capsys)
        assert code == 2
        assert "'data/nosuch,file.csv' is not an existing file" in err
        assert "as inline data: inline population 'pop1'" in err

    def test_csv_kv_format_for_analysis(self, fluid_csv, capsys):
        code, out, _ = run_cli(
            ["mle", "--data", fluid_csv, "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any(line.startswith("populations[0].beta,") for line in
                   out.splitlines())


class TestSimulateCommand:
    ARGS = ["simulate", "--cell", "3,3,1.0,2.0", "--M", "200", "--N", "30",
            "--seed", "2"]

    def test_single_cell_json(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        report = json.loads(out)
        [row] = report["cells"]
        assert row["n1"] == 3 and row["beta1"] == 1.0
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["error"] == ""

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert {"n1", "n2", "beta1", "coverage", "expected_length"} <= set(header)
        assert len(out.splitlines()) == 2

    def test_table_rendering(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "text"], capsys)
        assert code == 0
        assert out.startswith("Coverage probability")
        assert "Expected length" in out

    def test_table_keeps_cells_that_differ_only_in_beta2(self, capsys):
        args = ["simulate", "--cell", "3,3,1,2", "--cell", "3,3,1,3", "--M",
                "50", "--N", "4", "--seed", "1"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        lengths = [f"{row['expected_length']:.3f}"
                   for row in json.loads(out)["cells"]]
        code, out, _ = run_cli(args + ["--format", "text"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == lines[5].split() == [
            "n1,n2", "1,b2=2", "1,b2=3"]
        assert lines[6].split() == ["3,3", *lengths]

    def test_table_keeps_cells_that_differ_only_in_seed(self, tmp_path,
                                                        capsys):
        cell = {"n1": 3, "n2": 3, "beta1": 1, "beta2": 2}
        path = tmp_path / "cells.json"
        path.write_text(json.dumps([{**cell, "seed": 1}, {**cell, "seed": 2}]))
        args = ["simulate", "--config", str(path), "--M", "50", "--N", "4",
                "--seed", "5"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        lengths = [f"{row['expected_length']:.3f}"
                   for row in json.loads(out)["cells"]]
        assert len(set(lengths)) == 2
        code, out, _ = run_cli(args + ["--format", "text"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == lines[5].split() == [
            "n1,n2", "1,seed=1", "1,seed=2"]
        assert lines[6].split() == ["3,3", *lengths]

    def test_table_flag_with_json(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--table"], capsys)
        assert code == 0
        assert "Coverage probability" in out
        assert '"cells"' in out

    def test_deterministic_output_files(self, tmp_path, capsys):
        files = []
        for i in range(2):
            path = tmp_path / f"sim{i}.json"
            code, _, _ = run_cli(self.ARGS + ["--out", str(path)], capsys)
            assert code == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_repeated_cells(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--cell", "3,3,1.0,2.0", "--cell", "4,3,2.0,2.0",
             "--M", "200", "--N", "20", "--seed", "2"], capsys)
        assert code == 0
        assert len(json.loads(out)["cells"]) == 2

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cells.json"
        cfg.write_text(json.dumps([
            {"n1": 3, "n2": 3, "beta1": 1.0, "beta2": 2.0},
            {"n1": 3, "n2": 4, "beta1": 0.5, "beta2": 2.0, "reps": 10},
        ]))
        code, out, _ = run_cli(
            ["simulate", "--config", str(cfg), "--M", "200", "--N", "20",
             "--seed", "2"], capsys)
        assert code == 0
        rows = json.loads(out)["cells"]
        assert rows[0]["reps"] == 20
        assert rows[1]["reps"] == 10

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_config_seed_out_of_range(self, seed, tmp_path, capsys):
        cfg = tmp_path / "cells.json"
        cfg.write_text(json.dumps(
            [{"n1": 3, "n2": 3, "beta1": 1.0, "beta2": 2.0, "seed": seed}]))
        code, _, err = run_cli(
            ["simulate", "--config", str(cfg), "--M", "200", "--N", "20",
             "--seed", "2"], capsys)
        assert code == 2
        assert "seed must be in [0, 2**64)" in err

    @pytest.mark.parametrize("entry", [
        {"reps": 4.0}, {"n1": 3.0}, {"m": 100.5}, {"seed": 1.5},
        {"n1": True},
    ], ids=lambda entry: json.dumps(entry))
    def test_config_counts_and_seed_must_be_integers(self, entry, tmp_path,
                                                     capsys):
        cfg = tmp_path / "cells.json"
        cfg.write_text(json.dumps(
            [{"n1": 3, "n2": 3, "beta1": 1.0, "beta2": 2.0, **entry}]))
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg), "--M", "200", "--N", "4",
             "--seed", "2"], capsys)
        assert code == 2
        assert out == ""
        [field] = entry
        assert f"{field} must be an integer" in err

    @pytest.mark.parametrize("entry, message", [
        ({"reps": 4.0}, "reps must be an integer, got 4.0"),
        ({"seed": -1}, "seed must be in [0, 2**64)"),
        ({"beta1": -1.0}, "beta1 must be positive and finite"),
        ({"gamma": 0.0}, "gamma must be in (0, 1)"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
    def test_config_errors_name_the_cell(self, entry, message, tmp_path,
                                         capsys):
        cfg = tmp_path / "cells.json"
        cell = {"n1": 3, "n2": 3, "beta1": 1.0, "beta2": 2.0}
        cfg.write_text(json.dumps([cell, {**cell, **entry}]))
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg), "--M", "200", "--N", "4",
             "--seed", "2"], capsys)
        assert code == 2
        assert out == ""
        assert f"error: {str(cfg)!r}: cells[1]: {message}" in err

    def test_config_shapes_and_scales_must_be_numbers(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "cells.json"
        cfg.write_text(json.dumps(
            [{"n1": 2, "n2": 2, "beta1": True, "beta2": 2.0}]))
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg), "--M", "100", "--N", "20",
             "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert f"error: {str(cfg)!r}: cells[0]: beta1 must be a number, " \
               f"got True" in err

    def test_config_integer_shapes_are_the_cell_option(self, tmp_path,
                                                      capsys):
        # A config's 2 and --cell's 2.0 are one cell: one set of streams.
        cfg = tmp_path / "cells.json"
        cfg.write_text(json.dumps(
            [{"n1": 2, "n2": 2, "beta1": 2, "beta2": 2, "alpha1": 1}]))
        run = ["--M", "100", "--N", "20", "--seed", "1"]
        code, from_config, _ = run_cli(
            ["simulate", "--config", str(cfg), *run], capsys)
        assert code == 0
        code, from_cell, _ = run_cli(
            ["simulate", "--cell", "2,2,2.0,2.0", *run], capsys)
        assert code == 0
        assert from_config == from_cell

    def test_huge_first_shape_gives_finite_length(self, capsys):
        # Roots scaled by beta1 = 1e307 overflow in their ratio; the
        # simulator divides unit-shape roots instead.
        code, out, _ = run_cli(
            ["simulate", "--cell", "3,3,1e307,2.0", "--M", "200", "--N", "4",
             "--seed", "1"], capsys)
        assert code == 0
        [row] = json.loads(out)["cells"]
        assert math.isfinite(row["expected_length"])

    def test_malformed_cell(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--cell", "3,3,fast,2.0", "--seed", "1"], capsys)
        assert code == 2
        assert "--cell" in err

    def test_invalid_cell_values(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--cell", "0,3,1.0,2.0", "--seed", "1"], capsys)
        assert code == 2


class TestRejectedRequests:
    """Requests that exit 2 with this message, and the grid that exits 0."""

    SIM = ["--M", "100", "--N", "10", "--seed", "1"]

    def test_zero_threads(self, capsys):
        code, out, err = run_cli(
            ["ci-ratio", "--data", str(REPO_DATA), "--gamma", "0.05", "--M",
             "100", "--seed", "1", "--threads", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: thread count must be at least 1\n"

    def test_cell_with_three_fields(self, capsys):
        code, out, err = run_cli(["simulate", "--cell", "3,3,1.0", *self.SIM],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == ("error: --cell needs n1,n2,beta1,beta2[,alpha1,"
                       "alpha2], got '3,3,1.0'\n")

    def test_missing_config(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        code, out, err = run_cli(["simulate", "--config", path, *self.SIM],
                                 capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path!r}: ")
        assert "No such file or directory" in err

    @pytest.mark.parametrize("text, message", [
        ("[{", "invalid JSON: Expecting property name enclosed in double "
               "quotes: line 1 column 3 (char 2)"),
        ("[5]", "cells[0] must be an object"),
        ('[{"n1": 2, "n2": 2, "beta1": 1.0, "beta2": 2.0, "shape": 3}]',
         "cells[0] has unknown keys ['shape']"),
        ('[{"n2": 3, "beta1": 1, "beta2": 2}]',
         "cells[0] is missing keys ['n1']"),
        ('[{"n1": 2, "n2": 2, "beta1": 1.0, "beta2": 2.0, "gamma": "x"}]',
         "cells[0]: gamma must be a number, got 'x'"),
        ('[{"n1": 3, "n2": 3, "beta1": 1, "beta2": 2, "reps": 0}]',
         "cells[0]: reps must be at least 1"),
    ], ids=["invalid-json", "not-an-object", "unknown-key", "missing-key",
            "gamma-not-a-number", "reps-zero"])
    def test_bad_config(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "cells.json"
        cfg.write_text(text)
        code, out, err = run_cli(["simulate", "--config", str(cfg), *self.SIM],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {str(cfg)!r}: {message}\n"

    @pytest.mark.parametrize("text", ["[]", '{"cells": 5}'],
                             ids=["empty-array", "cells-not-an-array"])
    def test_config_without_cells(self, text, tmp_path, capsys):
        cfg = tmp_path / "cells.json"
        cfg.write_text(text)
        code, out, err = run_cli(["simulate", "--config", str(cfg), *self.SIM],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {str(cfg)!r}: expected a non-empty array of "
                       f"cells (or an object with a 'cells' array)\n")

    def test_config_object_with_cells(self, tmp_path, capsys):
        cfg = tmp_path / "cells.json"
        cell = {"n1": 2, "n2": 2, "beta1": 1.0, "beta2": 2.0}
        cfg.write_text(json.dumps({"cells": [cell]}))
        code, out, _ = run_cli(["simulate", "--config", str(cfg), *self.SIM],
                               capsys)
        assert code == 0
        [row] = json.loads(out)["cells"]
        assert (row["n1"], row["reps"], row["error"]) == (2, 10, "")

    def test_grid(self, capsys):
        code, out, _ = run_cli(["simulate", "--grid", "--M", "40", "--N", "2",
                                "--seed", "1"], capsys)
        assert code == 0
        rows = json.loads(out)["cells"]
        assert len(rows) == 63
        assert not any(row["error"] for row in rows)


class TestCellErrorsNameTheCell:
    """A ``--cell`` error names its cell, as a config error names
    ``cells[i]``, and a run-setting flag's error names none; interval
    ranks out of order are refused before a draw."""

    @pytest.mark.parametrize("cell, message", [
        ("0,3,1.0,2.0", "record indices n1, n2 must be at least 1"),
        ("3,3,-1.0,2.0", "beta1 must be positive and finite"),
        ("3,3,1.0,2.0,1.0,inf", "alpha2 must be positive and finite"),
    ], ids=["n1", "beta1", "alpha2"])
    def test_invalid_cell(self, cell, message, capsys):
        code, out, err = run_cli(["simulate", "--cell", cell, "--M", "40",
                                  "--N", "2", "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --cell {cell!r}: {message}\n"

    @pytest.mark.parametrize("command", [
        ["simulate", "--cell", "3,3,1,2", "--N", "10"],
        ["ci-ratio", "--data", str(REPO_DATA)],
        ["ci-diff", "--data", str(REPO_DATA)],
    ], ids=["simulate", "ci-ratio", "ci-diff"])
    def test_ranks_out_of_order(self, command, capsys):
        code, out, err = run_cli(
            command + ["--M", "3", "--gamma", "0.9", "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: the lower rank 2 exceeds the upper rank 1 "
                       "(m = 3, gamma = 0.9); increase the draw count or "
                       "decrease gamma\n")

    @pytest.mark.parametrize("flag, message", [
        (["--N", "0"], "reps must be at least 1"),
        (["--gamma", "nan"], "gamma must be in (0, 1)"),
    ], ids=["reps", "gamma"])
    def test_flag_errors_name_no_cell(self, flag, message, tmp_path, capsys):
        # Refused too when the config cell sets its own reps and gamma: the
        # request itself is invalid.
        cfg = tmp_path / "cells.json"
        cfg.write_text('[{"n1": 3, "n2": 3, "beta1": 1, "beta2": 2, '
                       '"reps": 2, "gamma": 0.1}]')
        for cells in (["--cell", "3,3,1,2"], ["--config", str(cfg)]):
            code, out, err = run_cli(["simulate", *cells, "--M", "40",
                                      "--seed", "1", *flag], capsys)
            assert (code, out, err) == (2, "", f"error: {message}\n")


class TestTooLargeRequests:
    """A request whose arrays do not fit in memory exits 3, not with a
    traceback.  Each command runs in a child that caps its own address
    space at 3 GB, so no test asks the host for the memory."""

    LIMIT = 3_000_000_000

    @classmethod
    def _cap(cls):
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = cls.LIMIT if hard == resource.RLIM_INFINITY else min(cls.LIMIT, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    @pytest.mark.parametrize("args, gib", [
        (["ci-ratio", "--data", "a:1,2,3;b:1,2,4", "--gamma", "0.05",
          "--M", "1000000000"], "7.45 GiB"),
        (["simulate", "--cell", "3,3,1.0,2.0", "--M", "100000000",
          "--N", "2"], "5.22 GiB"),
    ], ids=["ci-ratio", "simulate"])
    def test_exits_3_with_an_error_line(self, args, gib):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "weibrec", *args, "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=self._cap)
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert gib in done.stderr
        assert "Traceback" not in done.stderr


class TestArgumentErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_missing_required_flag(self, fluid_csv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["ci-ratio", "--data", fluid_csv])
        assert err.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
        assert "weibrec" in capsys.readouterr().out

    def test_module_entry_point(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "weibrec", "--version"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert "weibrec" in done.stdout
