"""Command-line interface: subcommands, formats, exit codes, determinism."""

import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fluxbound.bounds as bounds_module
import fluxbound.cli as cli_module
from conftest import replay_draw, saturating_point, spin_pair_point_by_point
from fluxbound import SpinPairParams
from fluxbound.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION,
                           MAX_GRID_POINTS, build_parser, main)
from fluxbound.io import (MONTECARLO_HEADERS, SATURATION_HEADERS,
                          SPINPAIR_HEADERS, write_table)


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


def test_montecarlo_redraw_policy_matches_the_default_without_infinite_draws(
        capsys):
    # no protocol draw of this run has infinite divergence, so the two
    # policies, which share one blocked loop, write the same rows
    code, out, err = run_cli(["montecarlo", "--draws", "300"], capsys)
    redraw_code, redraw_out, redraw_err = run_cli(
        ["montecarlo", "--draws", "300", "--policy", "redraw"], capsys)
    assert code == redraw_code == EXIT_OK
    assert redraw_out == out
    assert redraw_err == err


def test_montecarlo_output_is_reproducible(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["montecarlo", "--draws", "15", "--out", str(first)]) == EXIT_OK
    assert main(["montecarlo", "--draws", "15", "--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def _table(headers, rows, fmt="csv") -> str:
    stream = io.StringIO()
    write_table(stream, headers, rows, fmt)
    return stream.getvalue()


def test_blocked_tables_equal_a_row_by_row_rendering(capsys):
    # 259 rows are two full blocks and a partial one; each reference
    # evaluates its rows one at a time
    draws = [replay_draw(42, k) for k in range(259)]
    code, out, _ = run_cli(["montecarlo", "--draws", "259"], capsys)
    assert code == EXIT_OK
    assert out == _table(MONTECARLO_HEADERS, [
        (r.draw, r.flux_ratio_sq, r.s_tilde, r.pinsker_rhs, r.main_rhs,
         r.strengthened_rhs, r.epsilon, r.redraws) for r in draws])

    params = SpinPairParams(times=tuple(np.linspace(0.0, 1.5, 259)))
    code, out, _ = run_cli(["spinpair", "--t-steps", "259", "--format", "jsonl"],
                           capsys)
    assert code == EXIT_OK
    assert out == _table(SPINPAIR_HEADERS, [
        (p.t, p.flux, p.flux_analytic, p.two_phi_sq, p.onsager, p.s_tilde)
        for p in spin_pair_point_by_point(params)], "jsonl")

    families = [saturating_point(a)[2] for a in np.linspace(0.0, 10.0, 259).tolist()]
    code, out, _ = run_cli(["saturation", "--a-steps", "259"], capsys)
    assert code == EXIT_OK
    assert out == _table(SATURATION_HEADERS, [
        (f.log_odds_gap, 0.25 * f.trace_norm * f.trace_norm, f.bound_value, f.gap)
        for f in families])


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


def test_saturation_handles_any_finite_gap(capsys):
    # e^{a/2} used to overflow in math.cosh from a ~ 1420 on
    for a_max in ("1e6", "1e308"):
        code, out, err = run_cli(
            ["saturation", "--a-max", a_max, "--a-steps", "3"], capsys)
        assert code == EXIT_OK
        rows = [[float(v) for v in line.split(",")]
                for line in out.splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(v) for row in rows for v in row)
        assert rows[-1][1:] == [1.0, 1.0, 0.0]


@pytest.mark.parametrize("argv, name", [
    (["spinpair", "--omega", "nan"], "level_splitting"),
    (["spinpair", "--omega", "inf"], "level_splitting"),
    (["spinpair", "--g", "nan"], "coupling_strength"),
    (["spinpair", "--g", "inf"], "coupling_strength"),
    (["spinpair", "--omega0", "nan"], "coupling_phase"),
    (["spinpair", "--t-max", "inf"], "--t-max"),
    (["spinpair", "--t-max", "nan"], "--t-max"),
    (["saturation", "--a-max", "inf"], "--a-max"),
    (["saturation", "--a-min", "nan"], "--a-min"),
    (["montecarlo", "--tolerance", "inf"], "--tolerance"),
    # finite, but g t overflows in the phases of the evolution
    (["spinpair", "--t-max", "1e308"], "times"),
    # positive, but subnormal: flux / omega used to print two_phi_sq = 2
    (["spinpair", "--t-steps", "3", "--omega", "5e-324"], "level_splitting"),
])
def test_non_finite_parameters_are_rejected_by_name(argv, name, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("fluxbound: ") and err.count("\n") == 1
    assert name in err
    assert caught == []


@pytest.mark.parametrize("argv, flag", [
    (["spinpair", "--t-steps"], "--t-steps"),
    (["saturation", "--a-steps"], "--a-steps"),
])
def test_oversized_grids_are_rejected_by_name_before_they_are_built(
        argv, flag, monkeypatch, capsys):
    # np.linspace used to end in a MemoryError traceback; the size is
    # checked before the grid is built, which the stand-in makes sure of
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli_module.np, "linspace", no_grid)
    for steps in ("1000000000000000", str(MAX_GRID_POINTS + 1)):
        code, out, err = run_cli(argv + [steps], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("fluxbound: ") and err.count("\n") == 1
        assert flag in err


def test_spinpair_rejects_a_coupling_too_large_for_the_eigensolver(capsys):
    # the eigensolver used to take this generator as converged with a zero
    # spectrum, and the run exited 0 with a flux column of zeros
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["spinpair", "--g", "1e200", "--t-steps", "3"],
                                 capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("fluxbound: ") and err.count("\n") == 1
    assert "too large" in err
    assert caught == []


def test_montecarlo_tolerance_only_scores_the_inequalities(capsys):
    # --tolerance used to tighten the library's identity checks as well, and
    # at 1e-16 the sign-operator check stopped the sweep with exit code 1
    code, out, err = run_cli(["montecarlo", "--draws", "200"], capsys)
    assert code == EXIT_OK
    tight_code, tight_out, tight_err = run_cli(
        ["montecarlo", "--draws", "200", "--tolerance", "1e-16"], capsys)
    assert tight_code != EXIT_USAGE, tight_err
    assert tight_out == out


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
                        lambda x: 0.0 * x)
    code, out, err = run_cli(["verify", "--draws", "8"], capsys)
    assert code == EXIT_VERIFICATION
    assert "FAIL" in err


def test_montecarlo_exits_nonzero_on_violations(monkeypatch, capsys):
    monkeypatch.setattr(bounds_module, "flux_ratio_sq_bound",
                        lambda x: 0.0 * x)
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


def test_montecarlo_draw_counts_beyond_the_key_are_usage_errors(capsys):
    # the draw index has 48 bits of the Philox key; a larger run used to
    # be accepted and is now refused before any draw is made
    code, out, err = run_cli(["montecarlo", "--draws", str((1 << 48) + 1)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "n_draws must be at most 2^48" in err


def test_a_run_too_large_for_memory_is_one_line(capsys):
    # 2^48 draws fit the key, but their records (2 PiB a column) exceed the
    # address space: numpy refuses the allocation, which used to escape as
    # a traceback
    code, out, err = run_cli(["montecarlo", "--draws", str(1 << 48)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("fluxbound: not enough memory: ")
    assert err.count("\n") == 1


# each subcommand's size flag at a small value, and every numeric flag it
# takes; no fuzzed value parses as a large size, and the size limits are
# tested by construction above (2^48 draws, MAX_GRID_POINTS + 1 points)
FUZZ_FLAGS = {
    "montecarlo": (("--draws", "3"), ("--seed", "--tolerance", "--draws")),
    "spinpair": (("--t-steps", "3"), ("--seed", "--tolerance", "--p", "--q",
                                      "--omega", "--g", "--omega0", "--t-max",
                                      "--t-steps")),
    "saturation": (("--a-steps", "3"), ("--seed", "--tolerance", "--a-min",
                                        "--a-max", "--a-steps")),
    "verify": (("--draws", "3"), ("--seed", "--tolerance", "--draws")),
}
# the columns that may carry the inf marker: an infinite divergence, and
# the entropy cost 2 r artanh(r) at ratio 1
INF_COLUMNS = {"montecarlo": {"s_tilde", "pinsker_rhs"},
               "spinpair": {"onsager", "s_tilde"}}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e308",
                                   "5e-324", "abc"])
@pytest.mark.parametrize("command, flag", [(command, flag)
                                           for command, (_, flags) in FUZZ_FLAGS.items()
                                           for flag in flags])
def test_fuzzed_numeric_flags_exit_with_a_documented_code(command, flag, value,
                                                          capsys):
    size = FUZZ_FLAGS[command][0]
    argv = [command, *(size if flag != size[0] else ()), f"{flag}={value}"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, EXIT_IO)
    assert "Traceback" not in out + err
    if code == EXIT_OK:
        header, *rows = out.splitlines()
        columns = zip(header.split(","), *(row.split(",") for row in rows))
        for name, *cells in columns:
            allowed = {"inf"} if name in INF_COLUMNS.get(command, ()) else set()
            assert not ({"nan", "inf", "-inf"} - allowed) & set(cells), name


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--draws", "3"], ["spinpair", "--t-steps", "3"],
    ["saturation", "--a-steps", "3"], ["verify", "--draws", "1"]],
    ids=lambda argv: argv[0])
def test_unwritable_output_path_is_an_io_error(argv, tmp_path, capsys):
    # the failed write is the run's one report: no summary line follows it
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("fluxbound: I/O error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


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
