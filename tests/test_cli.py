"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

import fluxbound.bounds as bounds_module
from fluxbound.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION,
                           build_parser, main)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_defaults():
    args = build_parser().parse_args(["montecarlo"])
    assert args.seed == 42
    assert args.draws == 10000
    assert args.format == "csv"
    assert args.tolerance == 1e-9
    assert args.policy == "report-infinite"
    assert args.out is None
    sp = build_parser().parse_args(["spinpair"])
    assert (sp.p, sp.q, sp.omega, sp.g, sp.omega0) == (0.9, 0.1, 1.0, 2.0, 0.0)
    assert (sp.t_max, sp.t_steps) == (1.5, 301)
    sat = build_parser().parse_args(["saturation"])
    assert (sat.a_min, sat.a_max, sat.a_steps) == (0.0, 10.0, 101)
    ver = build_parser().parse_args(["verify"])
    assert ver.draws == 200


def test_montecarlo_csv_output(capsys):
    code, out, err = run_cli(["montecarlo", "--draws", "25"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == ("draw,flux_ratio_sq,s_tilde,pinsker_rhs,main_rhs,"
                        "strengthened_rhs,epsilon,redraws")
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) <= float(first[4]) + 1e-9  # ratio^2 <= curve
    assert "draws=25 violations=0" in err


def test_montecarlo_jsonl_output(capsys):
    code, out, err = run_cli(
        ["montecarlo", "--draws", "10", "--format", "jsonl"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 10
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"draw", "flux_ratio_sq", "s_tilde",
                               "pinsker_rhs", "main_rhs", "strengthened_rhs",
                               "epsilon", "redraws"}
        # infinite divergences are serialized as the string marker
        assert record["s_tilde"] == "inf" or record["s_tilde"] >= 0.0


def test_montecarlo_policy_flag(capsys):
    code, out, err = run_cli(
        ["montecarlo", "--draws", "10", "--policy", "redraw"], capsys)
    assert code == EXIT_OK
    assert "infinite=0" in err


def test_montecarlo_output_is_reproducible(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["montecarlo", "--draws", "15", "--out", str(first)]) == EXIT_OK
    assert main(["montecarlo", "--draws", "15", "--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_spinpair_closed_form_column(capsys):
    code, out, err = run_cli(["spinpair", "--t-steps", "61"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t,flux,flux_analytic,two_phi_sq,onsager,s_tilde"
    assert len(lines) == 62
    for line in lines[1:]:
        t, flux, analytic, two_phi_sq, onsager, s_tilde = line.split(",")
        assert abs(float(flux) - float(analytic)) <= 1e-9
        expected = math.sin(2.0 * float(t)) ** 2 * 0.8
        assert abs(float(analytic) - expected) <= 1e-12
        if onsager != "inf":
            assert float(s_tilde) >= float(onsager) - 1e-9
            assert float(onsager) >= float(two_phi_sq) - 1e-12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1])) <= 1e-15
    assert abs(float(first[5])) <= 1e-10


def test_spinpair_rejects_bad_populations(capsys):
    code, out, err = run_cli(["spinpair", "--p", "1.5"], capsys)
    assert code == EXIT_USAGE
    code, out, err = run_cli(["spinpair", "--t-steps", "0"], capsys)
    assert code == EXIT_USAGE


def test_saturation_stays_on_the_curve(capsys):
    code, out, err = run_cli(["saturation", "--a-steps", "21"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "a,tn_sq_over_4,B_of_s_tilde,abs_diff"
    assert len(lines) == 22
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for a, quarter, bound, diff in rows:
        assert diff <= 1e-8
        assert abs(quarter - bound) == pytest.approx(diff, abs=1e-15)
    # a = 0 is the degenerate corner, a = 2 sits at grid index 4
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0
    assert rows[4][0] == 2.0
    assert rows[4][1] == pytest.approx(0.5800256583859739, abs=1e-8)
    assert rows[4][2] == pytest.approx(0.5800256583859739, abs=1e-8)
    for col in (1, 2):
        values = [row[col] for row in rows]
        assert values == sorted(values)
    assert "points=21" in err


def test_saturation_rejects_bad_grids(capsys):
    assert run_cli(["saturation", "--a-steps", "0"], capsys)[0] == EXIT_USAGE
    assert run_cli(["saturation", "--a-min", "-1"], capsys)[0] == EXIT_USAGE
    assert run_cli(["saturation", "--a-min", "5", "--a-max", "1"],
                   capsys)[0] == EXIT_USAGE


def test_verify_reports_every_suite(capsys):
    code, out, err = run_cli(["verify", "--draws", "12"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "suite,checks,violations,min_slack"
    assert len(lines) == 11
    assert err.count("ok ") == 10
    assert "FAIL" not in err


def test_verify_fails_loudly_when_a_bound_is_broken(monkeypatch, capsys):
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x, config=None: 0.0)
    code, out, err = run_cli(["verify", "--draws", "8"], capsys)
    assert code == EXIT_VERIFICATION
    assert "FAIL" in err


def test_montecarlo_exits_nonzero_on_violations(monkeypatch, capsys):
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x, config=None: 0.0)
    code, out, err = run_cli(["montecarlo", "--draws", "10"], capsys)
    assert code == EXIT_VERIFICATION


def test_usage_errors(capsys):
    assert run_cli(["montecarlo", "--draws", "0"], capsys)[0] == EXIT_USAGE
    assert run_cli(["montecarlo", "--tolerance", "0"], capsys)[0] == EXIT_USAGE
    assert run_cli(["montecarlo", "--tolerance", "nan"], capsys)[0] == EXIT_USAGE
    assert run_cli(["verify", "--draws", "-3"], capsys)[0] == EXIT_USAGE
    # argparse-level failures leave through SystemExit, still with code 1
    for argv in ([], ["unknown-subcommand"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
    capsys.readouterr()


def test_out_of_range_seeds_are_usage_errors(capsys):
    for command in (["montecarlo", "--draws", "2"], ["verify", "--draws", "1"]):
        for seed in ("-1", str(1 << 64)):
            code, out, err = run_cli(command + ["--seed", seed], capsys)
            assert code == EXIT_USAGE
            assert out == ""
            assert f"master seed {seed} out of range" in err


def test_unwritable_output_path_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(
        ["saturation", "--a-steps", "3", "--out", str(target)], capsys)
    assert code == EXIT_IO
    assert "I/O error" in err


def test_subprocess_runs_are_byte_identical(tmp_path):
    files = []
    for name in ("r1.csv", "r2.csv"):
        target = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fluxbound.cli", "montecarlo",
             "--draws", "8", "--out", str(target)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        files.append(target.read_bytes())
    assert files[0] == files[1]


def test_subprocess_verify_exits_cleanly():
    proc = subprocess.run(
        [sys.executable, "-m", "fluxbound.cli", "verify", "--draws", "6"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("suite,checks,violations,min_slack")
