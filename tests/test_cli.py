"""End-to-end command line behavior."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weibrec import cli, gpq
from weibrec.datasets import INSULATING_FLUID

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

    @pytest.mark.parametrize("option", [
        "--pi0=nan", "--pi0=inf", "--pi0=-inf", "--pi0=0", "--pi0=-1",
        "--gamma=nan", "--gamma=0", "--gamma=1", "--gamma=-0.1",
        "--gamma=1.5", "--gamma=inf",
    ])
    def test_test_rejects_invalid_pi0_and_gamma(self, option, capsys,
                                                monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("draws were made")

        monkeypatch.setattr(cli, "sample_pivotal", no_draws)
        defaults = {"--pi0": "--pi0=1", "--gamma": "--gamma=0.05"}
        defaults[option.split("=")[0]] = option
        code, out, err = run_cli(
            ["test", "--records", "a:1,2,5;b:1,3", *defaults.values(),
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
        tie_stream(gpq, 2 * 3)
        code, _, err = run_cli(
            ["ci-ratio", "--records", "a:1,3;b:1,3,7",
             "--gamma", "0.1", "--M", "100", "--seed", "5"], capsys)
        assert code == 3
        assert "replicate 3" in err


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
