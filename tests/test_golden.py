"""Golden outputs: fixed CLI runs against reference files in tests/data.

Each run goes through cli.main in-process.  Its stdout, its stderr and
its exit code are compared with the references token by token: text,
integers, booleans and the inf and nan markers exactly, and every other
number within 1e-12 (absolute up to magnitude 1, relative above).  The
stacked core's matrix products run through BLAS kernels chosen per CPU,
so the last bits of a float may differ between machines; byte identity
on one machine is what test_cli's subprocess test checks.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from fluxbound.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# name -> (argv, exit code); the stdout reference is GOLDEN / name with the
# run's format as suffix, the stderr one the same name with .stderr
RUNS = {
    "montecarlo": (["montecarlo", "--draws", "300"], EXIT_OK),
    "montecarlo_redraw_seed7": (["montecarlo", "--draws", "300", "--policy",
                                 "redraw", "--seed", "7"], EXIT_OK),
    "spinpair": (["spinpair"], EXIT_OK),
    "saturation": (["saturation"], EXIT_OK),
    "verify": (["verify"], EXIT_OK),
    "verify_draws24_seed7": (["verify", "--draws", "24", "--seed", "7",
                              "--format", "jsonl"], EXIT_OK),
    "verify_tolerance_1e-16": (["verify", "--tolerance", "1e-16"], EXIT_OK),
}

# a number inside a line: an optional sign, digits with an optional
# fraction or a bare fraction, and an optional exponent
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_INTEGER = re.compile(r"-?\d+")
# a float in a fixed exponent format, such as the summaries' %.3e
_FIXED = re.compile(r"-?\d\.(\d+)e[-+]\d+")


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reference_paths(name: str) -> tuple:
    argv = RUNS[name][0]
    suffix = ".jsonl" if "jsonl" in argv else ".csv"
    return GOLDEN / f"{name}{suffix}", GOLDEN / f"{name}.stderr"


def _numbers_agree(got: str, want: str, fixed: bool) -> bool:
    if _INTEGER.fullmatch(got) and _INTEGER.fullmatch(want):
        return got == want
    formats = _FIXED.fullmatch(got), _FIXED.fullmatch(want)
    # the fraction digits of a summary's number are part of its format
    if fixed and all(formats) and len(formats[0][1]) != len(formats[1][1]):
        return False
    a, b = float(got), float(want)
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def mismatch(got: str, want: str, fixed: bool = False) -> str | None:
    """The first line where two outputs differ beyond the golden rule, as
    a message, or None when they agree.  fixed (for stderr, whose floats
    are printed as %.3e) also compares the fraction digits of every
    number in exponent format."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    for number, (line, expected) in enumerate(zip(got_lines, want_lines), 1):
        parts, wanted = _NUMBER.split(line), _NUMBER.split(expected)
        # split keeps the numbers at the odd positions
        agree = len(parts) == len(wanted) and all(
            _numbers_agree(p, w, fixed) if k % 2 else p == w
            for k, (p, w) in enumerate(zip(parts, wanted)))
        if not agree:
            return f"line {number}: {line!r}, expected {expected!r}"
    return None


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_its_golden_reference(name):
    argv, expected_code = RUNS[name]
    out_path, err_path = reference_paths(name)
    code, out, err = run(argv)
    assert code == expected_code
    assert mismatch(out, out_path.read_text(encoding="ascii")) is None
    assert mismatch(err, err_path.read_text(encoding="ascii"), fixed=True) is None


def test_the_golden_rule_compares_text_exactly_and_floats_to_1e_12():
    assert mismatch("a,1,0.5,inf\n", "a,1,0.5,inf\n") is None
    assert mismatch("x=0.30000000000000004", "x=0.3") is None
    # CSV prints a float that is an integer without a fraction
    assert mismatch("5.0000000000000009", "5") is None
    assert mismatch("12.000000001", "12") is not None
    assert mismatch("1.0000000001", "1.0") is not None
    assert mismatch("2", "3") is not None
    assert mismatch("true", "false") is not None
    assert mismatch("inf", "nan") is not None
    assert mismatch("nan", "0.0") is not None
    assert mismatch("ok a: min_slack=1.234e-05", "FAIL a: min_slack=1.234e-05") is not None
    assert mismatch("min_slack=1.2341e-05", "min_slack=1.234e-05") is not None
    # in a summary, a number's format is compared as well as its value
    assert mismatch("min_slack=1.2340e-05", "min_slack=1.234e-05") is None
    assert mismatch("min_slack=1.2340e-05", "min_slack=1.234e-05",
                    fixed=True) is not None
    assert mismatch("min_slack=-3.300e-13", "min_slack=3.300e-13", fixed=True) is None
    assert mismatch("a\nb", "a") is not None
