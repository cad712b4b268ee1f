"""Serialization: value formatting, CSV/JSONL table layout, row adapters."""

import dataclasses
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxbound import saturating_family, spin_pair_timeseries, SpinPairParams
from fluxbound.errors import FluxboundError, ValidationError
from fluxbound.io import (CHUNK_ROWS, FORMAT_CSV, FORMAT_JSONL,
                          MONTECARLO_HEADERS, SATURATION_HEADERS,
                          SPINPAIR_HEADERS, VERIFY_HEADERS, montecarlo_rows,
                          saturation_rows, spinpair_rows, verify_rows,
                          write_table)
from fluxbound.montecarlo import (POLICY_REDRAW, POLICY_REPORT_INFINITE,
                                  DrawConfig, qubit_matrices, run_montecarlo)
from fluxbound.verify import VerifyConfig, run_verify


# the per-value writer the chunked one replaced, kept as the reference for
# tables of Python bools, ints, floats and strings
def _reference_format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _reference_jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _reference_format_value(value)
    return value


def _reference_table(headers, rows, fmt):
    out = []
    if fmt == FORMAT_CSV:
        out.append(",".join(headers) + "\n")
        for row in rows:
            out.append(",".join(_reference_format_value(v) for v in row) + "\n")
    else:
        for row in rows:
            record = {k: _reference_jsonable(v) for k, v in zip(headers, row)}
            out.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(out)


def _written(headers, rows, fmt):
    out = io.StringIO()
    write_table(out, headers, rows, fmt)
    return out.getvalue()


def _csv_token(value) -> str:
    """The CSV token of one value, alone in a one-column table."""
    _, token = _written(("value",), [(value,)], FORMAT_CSV).splitlines()
    return token


def _assert_matches_reference(headers, rows, fmt):
    written = _written(headers, rows, fmt).splitlines(keepends=True)
    expected = _reference_table(headers, rows, fmt).splitlines(keepends=True)
    # the first differing line, and not pytest's diff of two whole tables,
    # which would slow the shrinking of a failing example to minutes
    mismatch = next(((k, a, b) for k, (a, b)
                     in enumerate(itertools.zip_longest(written, expected))
                     if a != b), None)
    assert mismatch is None, "line %d: %r != %r" % mismatch


def test_headers_are_pinned():
    assert MONTECARLO_HEADERS == ("draw", "flux_ratio_sq", "s_tilde",
                                  "pinsker_rhs", "main_rhs",
                                  "strengthened_rhs", "epsilon", "redraws")
    assert SPINPAIR_HEADERS == ("t", "flux", "flux_analytic", "two_phi_sq",
                                "onsager", "s_tilde")
    assert SATURATION_HEADERS == ("a", "tn_sq_over_4", "B_of_s_tilde",
                                  "abs_diff")
    assert VERIFY_HEADERS == ("suite", "checks", "violations", "min_slack")


def test_csv_tokens_round_trip_floats():
    rng = np.random.default_rng(3)
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        assert float(_csv_token(float(x))) == float(x)


def test_csv_token_special_cases():
    assert _csv_token(math.inf) == "inf"
    assert _csv_token(-math.inf) == "-inf"
    assert _csv_token(math.nan) == "nan"
    assert _csv_token(True) == "true"
    assert _csv_token(False) == "false"
    assert _csv_token(7) == "7"
    assert _csv_token("saturation") == "saturation"
    assert _csv_token(0.1) == "0.10000000000000001"


def test_write_table_csv_layout():
    out = io.StringIO()
    write_table(out, ("a", "b"), [(1, 0.5), (2, math.inf)], FORMAT_CSV)
    assert out.getvalue() == "a,b\n1,0.5\n2,inf\n"


def test_write_table_jsonl_layout():
    out = io.StringIO()
    write_table(out, ("a", "b"), [(1, 0.5), (2, math.inf)], FORMAT_JSONL)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[0]) == {"a": 1, "b": 0.5}
    # infinities become string markers so every line is strict JSON
    assert json.loads(lines[1]) == {"a": 2, "b": "inf"}


def test_write_table_jsonl_writes_nan_as_a_marker():
    # a NaN slack, which verify reports as a suite's min_slack, used to be
    # written as the bare token NaN, which strict JSON parsers reject
    out = io.StringIO()
    write_table(out, ("suite", "min_slack"), [("probe", math.nan)], FORMAT_JSONL)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    assert json.loads(out.getvalue(), parse_constant=reject) == {
        "suite": "probe", "min_slack": "nan"}


def test_write_table_rejects_unknown_formats():
    with pytest.raises(ValueError) as excinfo:
        write_table(io.StringIO(), ("a",), [(1,)], "parquet")
    assert isinstance(excinfo.value, FluxboundError)


def test_montecarlo_rows_align_with_headers():
    records, _ = run_montecarlo(DrawConfig(n_draws=3, master_seed=42))
    rows = list(montecarlo_rows(records))
    assert len(rows) == 3
    assert all(len(row) == len(MONTECARLO_HEADERS) for row in rows)
    assert [row[0] for row in rows] == [0, 1, 2]
    assert rows[0][1] == records.flux_ratio_sq[0]


def test_spinpair_rows_align_with_headers():
    points = spin_pair_timeseries(SpinPairParams(times=(0.0, 0.5)))
    rows = list(spinpair_rows(points))
    assert all(len(row) == len(SPINPAIR_HEADERS) for row in rows)
    assert rows[0][0] == 0.0
    assert rows[1][1] == points.flux[1]


def test_saturation_rows_align_with_headers():
    family = saturating_family(np.array([0.5, 1.0]))[2]
    rows = list(saturation_rows(family))
    assert all(len(row) == len(SATURATION_HEADERS) for row in rows)
    a, quarter_tn_sq, bound, diff = rows[0]
    assert a == 0.5
    assert quarter_tn_sq == pytest.approx(math.tanh(0.25) ** 2, rel=1e-10)
    assert diff == family.gap[0]


def test_verify_rows_align_with_headers():
    report = run_verify(VerifyConfig(draws=3))
    rows = list(verify_rows(report.suites))
    assert all(len(row) == len(VERIFY_HEADERS) for row in rows)
    assert [row[0] for row in rows] == [s.name for s in report.suites]


# property tests: derandomized and without an example database, so that
# every run tries the same inputs
PROPERTY = settings(derandomize=True, database=None, max_examples=150,
                    deadline=None)
EDGE_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
               1.7976931348623157e308, 0.1, 5.0)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
KINDS = (st.booleans(), st.integers(), st.text(), FLOATS)
MIXED = st.one_of(*KINDS)
ROW_COUNTS = (0, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1)
# headers that a %-template or a JSON key must escape, among any text
HEADERS = st.one_of(st.sampled_from(("%s", "100%", '"q"', "a\\b")), st.text())


@st.composite
def tables(draw):
    """Headers and rows whose columns each draw from a pool of values of
    one kind, or of mixed kinds, cycled over the rows."""
    headers = draw(st.lists(HEADERS, min_size=1, max_size=5, unique=True))
    pools = [draw(st.lists(draw(st.sampled_from((MIXED,) + KINDS)),
                           min_size=1, max_size=9)) for _ in headers]
    n_rows = draw(st.sampled_from(ROW_COUNTS))
    rows = [tuple(pool[k * (c + 1) % len(pool)]
                  for c, pool in enumerate(pools)) for k in range(n_rows)]
    return tuple(headers), rows


@PROPERTY
@given(tables(), st.sampled_from((FORMAT_CSV, FORMAT_JSONL)))
def test_write_table_matches_the_per_value_writer(table, fmt):
    _assert_matches_reference(*table, fmt)


def _sometimes_infinite(u):
    """A stacked sampler whose rows with a last uniform below 0.4 are
    infinite-divergence triples."""
    theta, rho, sigma = qubit_matrices(u)
    infinite = u[:, 6] < 0.4
    theta[infinite] = np.diag([1.0, -1.0])
    rho[infinite] = np.eye(2) / 2
    sigma[infinite] = np.diag([1.0, 0.0])
    return theta, rho, sigma


def _real_tables():
    for policy in (POLICY_REDRAW, POLICY_REPORT_INFINITE):
        config = DrawConfig(n_draws=300, master_seed=5,
                            rejection_policy=policy)
        records, _ = run_montecarlo(config, sampler=_sometimes_infinite)
        yield MONTECARLO_HEADERS, list(montecarlo_rows(records))
    points = spin_pair_timeseries(
        SpinPairParams(times=tuple(np.linspace(0.0, 1.5, 301))))
    yield SPINPAIR_HEADERS, list(spinpair_rows(points))
    family = saturating_family(np.linspace(0.0, 40.0, 301))[2]
    yield SATURATION_HEADERS, list(saturation_rows(family))
    suites = run_verify(VerifyConfig(draws=3)).suites
    suites[0] = dataclasses.replace(suites[0], min_slack=math.nan)
    yield VERIFY_HEADERS, list(verify_rows(suites))


def test_real_records_match_the_per_value_writer():
    tables = list(_real_tables())
    # the report-infinite sweep holds infinite s_tilde values and the
    # verify table a NaN, so both kinds of marker are written
    assert any(math.isinf(row[2]) for row in tables[1][1])
    for headers, rows in tables:
        for fmt in (FORMAT_CSV, FORMAT_JSONL):
            _assert_matches_reference(headers, rows, fmt)


def test_write_table_rejects_ragged_rows():
    for fmt in (FORMAT_CSV, FORMAT_JSONL):
        for bad in ((3,), (3, 4.0, 5)):
            rows = [(1, 2.0)] * (CHUNK_ROWS + 2) + [bad]
            with pytest.raises(ValidationError) as excinfo:
                write_table(io.StringIO(), ("a", "b"), rows, fmt)
            assert str(excinfo.value) == (
                f"row {CHUNK_ROWS + 2} has {len(bad)} values for 2 headers")
        # nor is a table without columns written as rows of nothing
        with pytest.raises(ValidationError):
            write_table(io.StringIO(), (), [()], fmt)


def test_numpy_scalars_are_written_as_python_values():
    row = (np.bool_(True), np.int64(3), np.float64(0.1), np.float32(0.1),
           np.float64(-np.inf), np.str_("x"))
    python = (True, 3, 0.1, float(np.float32(0.1)), -math.inf, "x")
    headers = tuple("abcdef")
    for fmt in (FORMAT_CSV, FORMAT_JSONL):
        # alone, and mixed into a column with Python values
        for rows in ([row], [row, python]):
            assert _written(headers, rows, fmt) == _reference_table(
                headers, [python] * len(rows), fmt)
    assert _csv_token(np.bool_(False)) == "false"
    assert _csv_token(np.uint8(255)) == "255"


@pytest.mark.parametrize("fmt", [FORMAT_CSV, FORMAT_JSONL])
@pytest.mark.parametrize("value", [None, 1j, b"x", [1.0], object()])
def test_write_table_rejects_other_values_naming_the_header(fmt, value):
    for rows in ([(1, value)], [(1, 2.0), (1, value)]):
        with pytest.raises(ValidationError, match="'slack'"):
            write_table(io.StringIO(), ("n", "slack"), rows, fmt)


class _Recorder:
    """A stream that counts the lines written to it."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("fmt", [FORMAT_CSV, FORMAT_JSONL])
def test_write_table_streams_its_rows(fmt):
    # grids reach 10^6 rows: each chunk is written before the next is read
    stream = _Recorder()
    lines_before_the_last_row = []

    def rows():
        for k in range(3 * CHUNK_ROWS + 1):
            if k == 3 * CHUNK_ROWS:
                lines_before_the_last_row.append(stream.lines)
            yield (k, 0.5 * k)

    write_table(stream, ("k", "x"), rows(), fmt)
    header = int(fmt == FORMAT_CSV)
    assert lines_before_the_last_row == [header + 3 * CHUNK_ROWS]
    assert stream.lines == header + 3 * CHUNK_ROWS + 1


def test_write_table_takes_the_benchmark_call_shape():
    # the dense-spectra benchmark passes row tuples of ints, floats and a
    # Python bool, and no format
    headers = ("n", "index", "flux_ratio_sq", "holds_all")
    rows = [(8, 0, 0.25, True), (16, 1, math.inf, False)]
    out = io.StringIO()
    write_table(out, headers, rows)
    assert out.getvalue() == ("n,index,flux_ratio_sq,holds_all\n"
                              "8,0,0.25,true\n16,1,inf,false\n")
