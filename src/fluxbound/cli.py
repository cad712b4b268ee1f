"""Command-line interface.

Subcommands:
    montecarlo  random qubit sweep of every flux bound
    spinpair    two-spin exchange time series
    saturation  extremal two-level family against the bound curve
    verify      run every verification suite and report slacks

Common flags: --seed (master seed, default 42), --out (file path, default
stdout), --format (csv or jsonl, default csv), --tolerance (default 1e-9):
montecarlo and verify only score inequalities with it (a slack below
-tolerance, or NaN, is a violation), and spinpair and saturation ignore
it.  The library's invariant checks use the fixed thresholds in
fluxbound.config; verify's identity checks use fixed thresholds written
in fluxbound.verify (1e-8, 1e-9, 1e-10 or 1e-12).  Identical flags and
seed give byte-identical primary output; summaries go to stderr.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import io as _io
from .errors import FluxboundError, ValidationError
from .montecarlo import (POLICY_REDRAW, POLICY_REPORT_INFINITE, DrawConfig,
                         run_montecarlo)
from .thermo import SpinPairParams, saturating_family, spin_pair_timeseries
from .verify import VerifyConfig, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3
# largest --t-steps and --a-steps: every point is held in memory, at a few
# hundred bytes each, before the table is written
MAX_GRID_POINTS = 10**6


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this interface reserves 2
    # for verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42,
                        help="master seed (default 42)")
    parser.add_argument("--out", default=None,
                        help="output path (default stdout)")
    parser.add_argument("--format", choices=(_io.FORMAT_CSV, _io.FORMAT_JSONL),
                        default=_io.FORMAT_CSV, help="output format")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="inequality slack of montecarlo/verify (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fluxbound",
                     description="flux bounds for bounded observables")
    sub = parser.add_subparsers(dest="command", required=True)

    mc = sub.add_parser("montecarlo", parents=[], help="random qubit sweep")
    _add_common(mc)
    mc.add_argument("--draws", type=int, default=10000,
                    help="number of draws (default 10000)")
    mc.add_argument("--policy", choices=("redraw", "report-infinite"),
                    default="report-infinite",
                    help="handling of infinite-divergence draws")

    sp = sub.add_parser("spinpair", help="two-spin exchange time series")
    _add_common(sp)
    sp.add_argument("--p", type=float, default=0.9,
                    help="system excited population (default 0.9)")
    sp.add_argument("--q", type=float, default=0.1,
                    help="environment excited population (default 0.1)")
    sp.add_argument("--omega", type=float, default=1.0,
                    help="level splitting (default 1)")
    sp.add_argument("--g", type=float, default=2.0,
                    help="exchange coupling strength (default 2)")
    sp.add_argument("--omega0", type=float, default=0.0,
                    help="exchange coupling phase (default 0)")
    sp.add_argument("--t-max", type=float, default=1.5,
                    help="end of the time grid (default 1.5)")
    sp.add_argument("--t-steps", type=int, default=301,
                    help="number of grid points (default 301)")

    sat = sub.add_parser("saturation", help="extremal family vs the bound curve")
    _add_common(sat)
    sat.add_argument("--a-min", type=float, default=0.0,
                     help="smallest log-odds gap (default 0)")
    sat.add_argument("--a-max", type=float, default=10.0,
                     help="largest log-odds gap (default 10)")
    sat.add_argument("--a-steps", type=int, default=101,
                     help="number of grid points (default 101)")

    ver = sub.add_parser("verify", help="run every verification suite")
    _add_common(ver)
    ver.add_argument("--draws", type=int, default=200,
                     help="random draws per suite (default 200)")
    return parser


def _emit(args, headers, rows) -> int:
    try:
        if args.out is None:
            _io.write_table(sys.stdout, headers, rows, args.format)
        else:
            with open(args.out, "w", encoding="ascii", newline="") as stream:
                _io.write_table(stream, headers, rows, args.format)
    except OSError as exc:
        print(f"fluxbound: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    policy = (POLICY_REDRAW if args.policy == "redraw"
              else POLICY_REPORT_INFINITE)
    config = DrawConfig(n_draws=args.draws, master_seed=args.seed,
                        rejection_policy=policy,
                        slack_tolerance=args.tolerance)
    records, summary = run_montecarlo(config)
    status = _emit(args, _io.MONTECARLO_HEADERS, _io.montecarlo_rows(records))
    if status != EXIT_OK:
        return status
    total_violations = sum(summary.violations.values())
    print(f"draws={summary.n_draws} violations={total_violations} "
          f"min_slack_main={summary.min_slack_main:.3e} "
          f"s_tilde_ge_2={summary.draws_s_tilde_ge_2} "
          f"infinite={summary.infinite_records} redraws={summary.total_redraws}",
          file=sys.stderr)
    return EXIT_OK if total_violations == 0 else EXIT_VERIFICATION


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{flag} must be finite, got {value!r}")


def _require_grid_size(flag: str, steps: int) -> None:
    # checked before the grid is built, so an oversized one allocates nothing
    if steps > MAX_GRID_POINTS:
        raise ValidationError(
            f"{flag} must be at most {MAX_GRID_POINTS}, got {steps}")


def _cmd_spinpair(args) -> int:
    _require_finite("--t-max", args.t_max)
    _require_grid_size("--t-steps", args.t_steps)
    if args.t_steps < 1 or args.t_max < 0.0:
        raise ValidationError("invalid time grid")
    params = SpinPairParams(
        excited_population_system=args.p,
        excited_population_environment=args.q,
        level_splitting=args.omega,
        coupling_strength=args.g,
        coupling_phase=args.omega0,
        times=tuple(np.linspace(0.0, args.t_max, args.t_steps)),
    )
    points = spin_pair_timeseries(params)
    return _emit(args, _io.SPINPAIR_HEADERS, _io.spinpair_rows(points))


def _cmd_saturation(args) -> int:
    _require_finite("--a-min", args.a_min)
    _require_finite("--a-max", args.a_max)
    _require_grid_size("--a-steps", args.a_steps)
    if args.a_steps < 1 or args.a_max < args.a_min or args.a_min < 0.0:
        raise ValidationError("invalid gap grid")
    family = saturating_family(np.linspace(args.a_min, args.a_max, args.a_steps))[2]
    status = _emit(args, _io.SATURATION_HEADERS, _io.saturation_rows(family.rows()))
    if status != EXIT_OK:
        return status
    print(f"points={args.a_steps} max_abs_diff={np.max(family.gap):.3e}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = VerifyConfig(master_seed=args.seed, draws=args.draws,
                          slack_tolerance=args.tolerance)
    report = run_verify(config)
    status = _emit(args, _io.VERIFY_HEADERS, _io.verify_rows(report.suites))
    if status != EXIT_OK:
        return status
    for suite in report.suites:
        marker = "ok" if suite.violations == 0 else "FAIL"
        print(f"{marker} {suite.name}: checks={suite.checks} "
              f"violations={suite.violations} min_slack={suite.min_slack:.3e}"
              + (f" worst={suite.worst}" if suite.violations else ""),
              file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


_COMMANDS = {
    "montecarlo": _cmd_montecarlo,
    "spinpair": _cmd_spinpair,
    "saturation": _cmd_saturation,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tolerance <= 0.0 or not math.isfinite(args.tolerance):
        print("fluxbound: --tolerance must be a positive finite number",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except FluxboundError as exc:
        print(f"fluxbound: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
