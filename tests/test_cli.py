"""Tests for the gofboot command line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from gofboot.cli import ingest_csv, main
from gofboot import DataFormatError
from conftest import (
    INVARIANT_TRANSFORMS,
    count_fit_mle,
    env_with_this_gofboot,
    scenario1_dataset,
)


def write_csv(path, cols):
    names = list(cols)
    rows = np.column_stack([cols[k] for k in names])
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        for row in rows:
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")


@pytest.fixture
def three_point_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("y,x\n0,0\n1,1\n3,2\n")
    return str(path)


@pytest.fixture
def well_specified_csv(tmp_path):
    rng = np.random.default_rng(501)
    n = 150
    x1, x2 = 5.0 * rng.random(n), 5.0 * rng.random(n)
    y = 2.0 + 2.0 * x1 + 2.0 * x2 + 2.0 * rng.standard_normal(n)
    path = tmp_path / "good.csv"
    write_csv(path, {"y": y, "x1": x1, "x2": x2})
    return str(path)


@pytest.fixture
def misspecified_csv(tmp_path):
    # omitted covariate: y depends on x2 but only x1 is recorded
    rng = np.random.default_rng(502)
    n = 600
    x1, x2 = 5.0 * rng.random(n), 5.0 * rng.random(n)
    y = 2.0 + 2.0 * x1 + 2.0 * x2 + 2.0 * rng.standard_normal(n)
    path = tmp_path / "bad.csv"
    write_csv(path, {"y": y, "x1": x1})
    return str(path)


# ---------------------------------------------------------------------------
# csv ingestion
# ---------------------------------------------------------------------------


class TestIngestCsv:
    def test_reads_header_order(self, three_point_csv):
        data = ingest_csv(three_point_csv)
        assert list(data.columns) == ["y", "x"]
        assert data.n == 3
        assert np.array_equal(data.columns["x"], [0.0, 1.0, 2.0])

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, three_point_csv):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_text("y,x\n0,0\n1,1\n3,2\n", encoding="utf-8-sig")
        data, plain = ingest_csv(path), ingest_csv(three_point_csv)
        assert list(data.columns) == ["y", "x"]
        for name in plain.columns:
            assert np.array_equal(data.columns[name], plain.columns[name])

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("", "empty"),
            ("a,a\n1,2\n", "duplicate column 'a'"),
            ("a, \n1,2\n", "empty column name"),
            ("a,b\n1\n", "line 2: expected 2 fields, got 1"),
            ("a,b\n1,2\n3,4,5\n", "line 3: expected 2 fields, got 3"),
            ("a,b\n1,zap\n", "column 'b': not a number: 'zap'"),
            ('a,b\n"1\n",2\n3,zap\n', "line 4: column 'b': not a number: 'zap'"),
            ("a,b\n1,nan\n", "column 'b': non-finite"),
            ("a,b\n1,inf\n", "column 'b': non-finite"),
            ("a,b\n1,-inf\n", "column 'b': non-finite"),
            ("a,b\n1,1e999\n", "column 'b': non-finite"),
            ("a,b\n", "no data rows"),
            ("a,b\n1," + "9" * 131_073 + "\n", "line 2: field larger than field limit"),
        ],
    )
    def test_diagnostics_cite_line_and_column(self, tmp_path, content, fragment):
        path = tmp_path / "broken.csv"
        path.write_text(content)
        with pytest.raises(DataFormatError, match=".*") as info:
            ingest_csv(path)
        assert fragment in str(info.value)


# ---------------------------------------------------------------------------
# fit command
# ---------------------------------------------------------------------------


class TestFitCommand:
    def test_worked_example_text(self, three_point_csv, capsys):
        code = main(["fit", "--data", three_point_csv, "--response", "y",
                     "--covariates", "x"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma2_hat: 0.055556" in out
        assert "-0.166667" in out and "1.500000" in out
        assert "reference_2n: 6.000000" in out

    def test_json_round_trips_at_six_significant_digits(self, three_point_csv, capsys):
        code = main(["fit", "--data", three_point_csv, "--response", "y",
                     "--covariates", "x", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out)
        assert record["beta_hat"] == [-0.166667, 1.5]
        assert record["sigma2_hat"] == 0.0555556
        assert record["n"] == 3 and record["r"] == 2
        # reparsing the emitted text reproduces every number exactly
        assert json.loads(json.dumps(record)) == record

    def test_no_intercept(self, three_point_csv, capsys):
        code = main(["fit", "--data", three_point_csv, "--response", "y",
                     "--covariates", "x", "--no-intercept", "--format", "json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["coefficient_names"] == ["x"]
        assert len(record["beta_hat"]) == 1

    @pytest.mark.parametrize(
        "transform",
        INVARIANT_TRANSFORMS.values(),
        ids=list(INVARIANT_TRANSFORMS),
    )
    def test_var_gof_invariant_to_units_affine_maps_and_row_order(
        self, tmp_path, capsys, transform
    ):
        data, _ = scenario1_dataset(seed=1, n=500)
        printed = []
        for name, cols in (("base", data.columns), ("moved", transform(data.columns))):
            path = tmp_path / f"{name}.csv"
            write_csv(path, cols)
            code = main(["fit", "--data", str(path), "--response", "y",
                         "--covariates", "x1,x2"])
            out = capsys.readouterr().out
            assert code == 0
            printed.append([line for line in out.splitlines()
                            if line.startswith("var_gof:")])
        assert printed[0] == printed[1]


# ---------------------------------------------------------------------------
# test command
# ---------------------------------------------------------------------------


class TestTestCommand:
    def test_well_specified_data_accepts(self, well_specified_csv, capsys):
        code = main(["test", "--data", well_specified_csv, "--response", "y",
                     "--covariates", "x1,x2", "--boot", "300", "--seed", "9001",
                     "--format", "json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["reject"] is False
        assert record["interval"][0] <= record["reference"] <= record["interval"][1]
        assert record["B"] == 300 and record["seed"] == 9001

    def test_omitted_covariate_rejects_with_exit_three(self, misspecified_csv, capsys):
        code = main(["test", "--data", misspecified_csv, "--response", "y",
                     "--covariates", "x1", "--boot", "300", "--seed", "9001",
                     "--format", "json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 3
        assert record["reject"] is True
        assert record["white"]["p_value"] <= 1.0
        assert record["breusch_pagan"]["df"] == 1

    def test_text_report_names_all_three_tests(self, well_specified_csv, capsys):
        code = main(["test", "--data", well_specified_csv, "--response", "y",
                     "--covariates", "x1,x2", "--boot", "120", "--seed", "4"])
        out = capsys.readouterr().out
        assert code in (0, 3)
        for token in ("bootstrap interval", "bootstrap reject", "white:",
                      "breusch_pagan:", "seed: 4", "B: 120"):
            assert token in out

    def test_missing_seed_draws_and_prints_one(self, well_specified_csv, capsys):
        code1 = main(["test", "--data", well_specified_csv, "--response", "y",
                      "--covariates", "x1,x2", "--boot", "60", "--format", "json"])
        first = json.loads(capsys.readouterr().out)
        code2 = main(["test", "--data", well_specified_csv, "--response", "y",
                      "--covariates", "x1,x2", "--boot", "60", "--format", "json"])
        second = json.loads(capsys.readouterr().out)
        assert code1 in (0, 3) and code2 in (0, 3)
        assert 0 <= first["seed"] < 2**64
        assert first["seed"] != second["seed"]

    def test_threads_do_not_change_output(self, well_specified_csv, capsys):
        args = ["test", "--data", well_specified_csv, "--response", "y",
                "--covariates", "x1,x2", "--boot", "90", "--seed", "55",
                "--format", "json"]
        code1 = main(args + ["--threads", "1"])
        out1 = capsys.readouterr().out
        code2 = main(args + ["--threads", "2"])
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2

    def test_fits_original_data_once(self, well_specified_csv, monkeypatch, capsys):
        calls = count_fit_mle(monkeypatch)
        code = main(["test", "--data", well_specified_csv, "--response", "y",
                     "--covariates", "x1,x2", "--boot", "40", "--seed", "8"])
        assert code in (0, 3)
        assert calls == [150]


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------


class TestSimulateCommand:
    def test_small_simulation_json(self, capsys):
        code = main(["simulate", "--scenario", "2", "--n", "60", "--reps", "8",
                     "--boot", "50", "--seed", "12", "--format", "json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["scenario"] == 2 and record["n"] == 60
        assert set(record["rates"]) == {"bootstrap", "white", "breusch_pagan"}
        assert record["excluded"] == 0

    def test_text_table(self, capsys):
        code = main(["simulate", "--scenario", "1", "--n", "50", "--reps", "4",
                     "--boot", "40", "--seed", "13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reject_rate" in out and "bootstrap" in out
        assert "excluded: 0" in out

    def test_threads_do_not_change_output(self, capsys):
        args = ["simulate", "--scenario", "4", "--n", "60", "--reps", "6",
                "--boot", "40", "--seed", "14", "--format", "json"]
        main(args + ["--threads", "1"])
        out1 = capsys.readouterr().out
        main(args + ["--threads", "2"])
        out2 = capsys.readouterr().out
        assert out1 == out2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["fit", "--response", "y"],                       # missing --data
            ["test", "--data", "x.csv", "--response", "y", "--alpha", "1.5"],
            ["test", "--data", "x.csv", "--response", "y", "--seed", "-3"],
            ["test", "--data", "x.csv", "--response", "y", "--boot", "1"],
            ["simulate", "--scenario", "7", "--n", "50", "--seed", "1"],
            ["simulate", "--scenario", "1", "--n", "5", "--seed", "1"],
            ["simulate", "--scenario", "1", "--n", "50"],     # missing --seed
            ["fit", "--data", "x.csv", "--response", "y", "--covariates", "a,a"],
            ["test", "--data", "x.csv", "--response", "y"],   # intercept-only
            ["fit", "--data", "x.csv", "--response", "y", "--covariates", "y"],
            ["fit", "--data", "x.csv", "--response", "y", "--no-intercept"],
            ["fit", "--data", "x.csv", "--response", ""],
            ["test", "--data", "x.csv", "--response", "y", "--covariates", "x",
             "--threads", "0"],
            ["simulate", "--scenario", "1", "--n", "50", "--seed", "1",
             "--threads", "0"],
            ["simulate", "--scenario", "1", "--n", "50", "--seed", "1",
             "--reps", "0"],
        ],
    )
    def test_usage_errors_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--reps", "--threads", "--boot"])
    def test_non_integer_count_names_its_type(self, flag, capsys):
        argv = ["simulate", "--scenario", "1", "--n", "50", "--seed", "1",
                flag, "1.5"]
        assert main(argv) == 1
        assert f"argument {flag}: invalid int value: '1.5'" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--response", "y"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_exits_two(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        code = main(["fit", "--data", str(path), "--response", "a",
                     "--covariates", "b"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_unallocatable_request_exits_two(self, three_point_csv, capsys, command):
        # 10**15 values are past the 47-bit address space: the allocation
        # fails at once and no iteration or replicate starts
        argv = {
            "test": ["test", "--data", three_point_csv, "--response", "y",
                     "--covariates", "x", "--seed", "1", "--boot", str(10**15)],
            "simulate": ["simulate", "--scenario", "1", "--n", "50",
                         "--seed", "1", "--reps", str(10**15)],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_unknown_column_exits_two(self, three_point_csv, capsys):
        code = main(["fit", "--data", three_point_csv, "--response", "q"])
        assert code == 2
        assert "q" in capsys.readouterr().err

    def test_rank_deficient_data_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(20)
        path = tmp_path / "dup.csv"
        write_csv(path, {"y": rng.standard_normal(20), "a": x, "b": x})
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--covariates", "a,b"])
        assert code == 2
        assert "rank" in capsys.readouterr().err

    def test_perfect_fit_exits_two(self, tmp_path, capsys):
        x = np.arange(15.0)
        path = tmp_path / "exact.csv"
        write_csv(path, {"x": x, "y": 2.0 * x + 1.0})
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--covariates", "x"])
        assert code == 2
        assert "variance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "test"])
    def test_constant_response_exits_two(self, tmp_path, capsys, command):
        rng = np.random.default_rng(9)
        path = tmp_path / "flat.csv"
        write_csv(path, {"y": np.full(200, 5.0), "x": 5.0 * rng.random(200)})
        argv = [command, "--data", str(path), "--response", "y",
                "--covariates", "x"]
        if command == "test":
            argv += ["--seed", "1", "--boot", "200"]
        assert main(argv) == 2
        assert "variance" in capsys.readouterr().err

    def test_near_singular_design_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(40)
        path = tmp_path / "near_dup.csv"
        write_csv(path, {"y": rng.standard_normal(40), "a": x,
                         "b": x + 1e-7 * rng.standard_normal(40)})
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--covariates", "a,b"])
        assert code == 2
        assert "condition number" in capsys.readouterr().err

    def test_fit_takes_no_threads_flag(self, three_point_csv, capsys):
        code = main(["fit", "--data", three_point_csv, "--response", "y",
                     "--threads", "2"])
        assert code == 1
        assert "--threads" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        assert "--threads" not in capsys.readouterr().out

    def test_too_few_rows_exits_two(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("y,x1,x2\n1,2,3\n2,3,4\n0,1,2\n")
        code = main(["fit", "--data", str(path), "--response", "y",
                     "--covariates", "x1,x2"])
        assert code == 2


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


class TestEntryPoint:
    def test_console_script_runs(self, three_point_csv):
        result = subprocess.run(
            [sys.executable, "-m", "gofboot.cli", "fit", "--data",
             three_point_csv, "--response", "y", "--covariates", "x"],
            capture_output=True, text=True, env=env_with_this_gofboot(),
        )
        assert result.returncode == 0
        assert "sigma2_hat: 0.055556" in result.stdout

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
