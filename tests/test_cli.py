"""Command-line interface: schemas, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from annuharm.cli import main

EVAL_HEADER = "s,t,re_w,im_w,re_wz,im_wz,re_wzb,im_wzb,jac,opnorm,lonorm,re_hopf,im_hopf"
SWEEP_HEADER = "r,c,classification,energy,lipschitz_sup,lonorm_inf,mod_domain,mod_target"


def run_cli(*args):
    cmd = [sys.executable, "-m", "annuharm", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def run_main(*args):
    """(exit code, stdout) of the CLI run in this process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


def test_help():
    out = run_cli("--help")
    assert out.returncode == 0
    for command in ("solve", "critical", "eval", "verify", "sweep"):
        assert command in out.stdout


class TestSolve:
    def test_critical_configuration(self):
        out = run_cli("solve", "--metric", "euclidean", "--q", "0.8",
                      "--Q", "1", "--r", "0.5")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["c"] == pytest.approx(-0.64, abs=1e-6)
        assert doc["classification"] == "Critical"
        assert doc["critical_r"] == pytest.approx(0.5, abs=1e-8)
        assert doc["hopf_constant"] == pytest.approx(-0.16, abs=1e-6)
        assert doc["K"] == 1.0
        assert doc["K_prime"] == pytest.approx(2.56, abs=1e-6)

    def test_conformal_configuration(self):
        out = run_cli("solve", "--metric", "euclidean", "--q", "0.8",
                      "--Q", "1", "--r", "0.8")
        doc = json.loads(out.stdout)
        assert out.returncode == 0
        assert doc["c"] == 0.0
        assert doc["energy"] == pytest.approx(2.2619467, abs=1e-6)
        assert doc["energy"] == pytest.approx(doc["energy_lower_bound"], abs=1e-8)

    def test_infeasible_exit_code(self):
        out = run_cli("solve", "--metric", "euclidean", "--q", "0.8",
                      "--Q", "1", "--r", "0.4")
        assert out.returncode == 2
        doc = json.loads(out.stdout)
        assert doc["error"] == "BelowCritical"
        assert doc["critical_r"] == pytest.approx(0.5, abs=1e-8)

    def test_missing_flags_usage_error(self):
        assert run_cli("solve", "--metric", "euclidean").returncode == 1

    def test_unknown_metric_usage_error(self):
        out = run_cli("solve", "--metric", "nope", "--q", "0.8", "--Q", "1",
                      "--r", "0.5")
        assert out.returncode == 1

    @pytest.mark.parametrize("metric, Q", [
        ("power:1100", "1"), ("power:1060", "1"), ("power:-2000", "1"),
        ("euclidean", "inf")])
    def test_unrepresentable_weight_usage_error(self, metric, Q):
        start = time.perf_counter()
        code, _ = run_main("solve", "--metric", metric, "--q", "0.5",
                           "--Q", Q, "--r", "0.6")
        assert code == 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command, tol", [
        ("verify", "-1"), ("verify", "0"), ("solve", "inf"), ("solve", "nan")])
    def test_bad_tolerance_usage_error(self, command, tol):
        # --tol nan used to solve the Nitsche critical case as "Subcritical"
        with pytest.raises(SystemExit) as info:
            run_main(command, "--metric", "euclidean", "--q", "0.8", "--Q", "1",
                     "--r", "0.5", "--tol", tol)
        assert info.value.code == 1

    def test_numerical_failure_exit_code(self):
        # log(1/r) = 1e-9 needs c near 1e18, beyond the solver's 1e12 bracket
        out = run_cli("solve", "--metric", "euclidean", "--q", "0.5",
                      "--Q", "1", "--r", "0.999999999")
        assert out.returncode == 4
        doc = json.loads(out.stdout)
        assert doc == {"error": "NoConvergence", "stage": "solver.solve_c",
                       "detail": "could not bracket c upward"}

    def test_consistent_with_critical_command(self):
        solved = json.loads(run_cli(
            "solve", "--metric", "sphere", "--q", "0.5", "--Q", "1",
            "--r", "0.7").stdout)
        crit = json.loads(run_cli(
            "critical", "--metric", "sphere", "--q", "0.5", "--Q", "1").stdout)
        assert abs(solved["critical_r"] - crit["critical_r"]) <= 1e-9
        assert abs(solved["critical_c"] - crit["critical_c"]) <= 1e-12


class TestCritical:
    def test_euclidean(self):
        doc = json.loads(run_cli("critical", "--metric", "euclidean",
                                 "--q", "0.8", "--Q", "1").stdout)
        assert doc["critical_c"] == pytest.approx(-0.64, abs=1e-9)
        assert doc["critical_r"] == pytest.approx(0.5, abs=1e-8)

    def test_inverse_r(self):
        doc = json.loads(run_cli("critical", "--metric", "inverse_r",
                                 "--q", "0.5", "--Q", "1").stdout)
        assert doc["critical_c"] == pytest.approx(-0.5, abs=1e-9)
        assert doc["critical_r"] == pytest.approx(3.0 - 2.0 * math.sqrt(2.0),
                                                  abs=1e-8)

    def test_divergent_modulus_null(self):
        doc = json.loads(run_cli("critical", "--metric", "power:-2",
                                 "--q", "0.5", "--Q", "1").stdout)
        assert doc["critical_r"] is None


class TestEval:
    def test_grid_shape_and_header(self):
        out = run_cli("eval", "--metric", "euclidean", "--q", "0.8", "--Q", "1",
                      "--r", "0.8", "--grid_s", "2", "--grid_t", "4")
        lines = out.stdout.strip().splitlines()
        assert lines[0] == EVAL_HEADER
        assert len(lines) == 1 + 2 * 4

    def test_conformal_hopf_columns_zero(self):
        out = run_cli("eval", "--metric", "euclidean", "--q", "0.8", "--Q", "1",
                      "--r", "0.8", "--grid_s", "3", "--grid_t", "4")
        for line in out.stdout.strip().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[-1]) == 0.0 and float(cells[-2]) == 0.0

    def test_critical_inner_rows_flat(self):
        out = run_cli("eval", "--metric", "euclidean", "--q", "0.8", "--Q", "1",
                      "--r", "0.5", "--grid_s", "3", "--grid_t", "4")
        rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
        inner = [row for row in rows if float(row[0]) == 0.5]
        assert inner and all(float(row[10]) <= 1e-9 for row in inner)

    def test_json_matches_csv(self):
        args = ("eval", "--metric", "sphere", "--q", "0.5", "--Q", "1",
                "--r", "0.7", "--grid_s", "4", "--grid_t", "8")
        code, text = run_main(*args)
        code_json, text_json = run_main(*args, "--format", "json")
        assert code == code_json == 0
        header, *rows = csv.reader(io.StringIO(text))
        records = json.loads(text_json)
        assert len(records) == len(rows) == 4 * 8
        for record, row in zip(records, rows):
            assert list(record) == header
            assert list(record.values()) == [float(cell) for cell in row]

    def test_below_critical_payload_as_solve(self):
        args = ("--metric", "euclidean", "--q", "0.8", "--Q", "1", "--r", "0.4")
        solved = run_main("solve", *args)
        evaluated = run_main("eval", *args)
        assert evaluated == solved
        assert solved[0] == 2
        doc = json.loads(solved[1])
        assert list(doc) == ["error", "critical_r"]
        assert doc["error"] == "BelowCritical"
        assert doc["critical_r"] == pytest.approx(0.5, abs=1e-8)

    def test_17_digit_round_trip(self):
        out = run_cli("eval", "--metric", "sphere", "--q", "0.5", "--Q", "1",
                      "--r", "0.7", "--grid_s", "2", "--grid_t", "4")
        for line in out.stdout.strip().splitlines()[1:]:
            for cell in line.split(","):
                assert repr(float(cell))  # every cell parses as a float


class TestSweep:
    def test_five_step_ladder(self):
        out = run_cli("sweep", "--metric", "euclidean", "--q", "0.8", "--Q", "1",
                      "--r_min", "0.5", "--r_max", "0.9", "--r_steps", "5")
        lines = out.stdout.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        rows = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert len(rows) == 5
        assert rows[0.5][2] == "Critical"
        assert abs(float(rows[0.8][1])) <= 1e-9
        assert float(rows[0.9][5]) >= 0.8 - 1e-9  # lonorm_inf for c > 0

    def test_all_below_critical(self):
        out = run_cli("sweep", "--metric", "euclidean", "--q", "0.8", "--Q", "1",
                      "--r_min", "0.3", "--r_max", "0.45", "--r_steps", "4")
        rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
        assert len(rows) == 4
        for row in rows:
            assert row[2] == "none"
            assert row[1] == "" and row[3] == ""

    def test_invalid_range(self):
        out = run_cli("sweep", "--metric", "euclidean", "--q", "0.8", "--Q", "1",
                      "--r_min", "0.9", "--r_max", "0.5", "--r_steps", "5")
        assert out.returncode == 1


class TestVerify:
    def test_critical_all_passed(self):
        out = run_cli("verify", "--metric", "euclidean", "--q", "0.8",
                      "--Q", "1", "--r", "0.5")
        assert out.returncode == 0, out.stdout
        doc = json.loads(out.stdout)
        assert doc["all_passed"] is True
        assert all(c["passed"] == (c["measured"] <= c["tolerance"])
                   for c in doc["checks"])

    def test_conformal_equality_check(self):
        doc = json.loads(run_cli("verify", "--metric", "euclidean", "--q", "0.8",
                                 "--Q", "1", "--r", "0.8").stdout)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["energy_attains_lower_bound"]["passed"]

    def test_tampered_tolerance_fails(self):
        out = run_cli("verify", "--metric", "euclidean", "--q", "0.8",
                      "--Q", "1", "--r", "0.5", "--tol", "1e-30")
        assert out.returncode == 3

    def test_below_critical_exit(self):
        out = run_cli("verify", "--metric", "euclidean", "--q", "0.8",
                      "--Q", "1", "--r", "0.4")
        assert out.returncode == 2


class TestDeterminism:
    def test_byte_identical_repeats(self):
        args = ("verify", "--metric", "sphere", "--q", "0.5", "--Q", "1",
                "--r", "0.7", "--seed", "42")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_json_round_trip_idempotent(self):
        out = run_cli("solve", "--metric", "inverse_r", "--q", "0.5", "--Q", "1",
                      "--r", "0.6")
        doc = json.loads(out.stdout)
        assert json.loads(json.dumps(doc)) == doc

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        out = run_cli("critical", "--metric", "euclidean", "--q", "0.8",
                      "--Q", "1", "--out", str(target))
        assert out.returncode == 0 and out.stdout == ""
        assert json.loads(target.read_text())["critical_r"] == pytest.approx(
            0.5, abs=1e-8)
