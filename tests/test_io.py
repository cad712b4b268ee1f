"""Serialization: value formatting, CSV/JSONL table layout, row adapters."""

import io
import json
import math

import numpy as np
import pytest

from fluxbound import saturating_family, spin_pair_timeseries, SpinPairParams
from fluxbound.errors import FluxboundError
from fluxbound.io import (FORMAT_CSV, FORMAT_JSONL, MONTECARLO_HEADERS,
                          SATURATION_HEADERS, SPINPAIR_HEADERS, VERIFY_HEADERS,
                          format_value, montecarlo_rows, saturation_rows,
                          spinpair_rows, verify_rows, write_table)
from fluxbound.montecarlo import DrawConfig, run_montecarlo
from fluxbound.verify import VerifyConfig, run_verify


def test_headers_are_pinned():
    assert MONTECARLO_HEADERS == ("draw", "flux_ratio_sq", "s_tilde",
                                  "pinsker_rhs", "main_rhs",
                                  "strengthened_rhs", "epsilon", "redraws")
    assert SPINPAIR_HEADERS == ("t", "flux", "flux_analytic", "two_phi_sq",
                                "onsager", "s_tilde")
    assert SATURATION_HEADERS == ("a", "tn_sq_over_4", "B_of_s_tilde",
                                  "abs_diff")
    assert VERIFY_HEADERS == ("suite", "checks", "violations", "min_slack")


def test_format_value_round_trips_floats():
    rng = np.random.default_rng(3)
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        assert float(format_value(float(x))) == float(x)


def test_format_value_special_cases():
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"
    assert format_value(math.nan) == "nan"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value("saturation") == "saturation"
    assert format_value(0.1) == "0.10000000000000001"


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
