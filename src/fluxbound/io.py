"""Deterministic CSV and JSON-lines serialization.

Floats are written with 17 significant digits (full round-trip), which
spells infinities and NaN "inf", "-inf" and "nan", and integers as plain
integers.  No field needs RFC-4180 quoting, so rows are plain comma joins
of the columns of a record of arrays, and the byte stream depends only
on the values.
"""

from __future__ import annotations

import json
import math

from .errors import ValidationError

FORMAT_CSV = "csv"
FORMAT_JSONL = "jsonl"


def format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _jsonable(value):
    # strict JSON has no infinities or NaN: they become string markers
    if isinstance(value, float) and not math.isfinite(value):
        return format_value(value)
    return value


def write_table(stream, headers, rows, fmt: str = FORMAT_CSV) -> None:
    """Write rows (sequences aligned with headers) as CSV or JSON lines."""
    if fmt == FORMAT_CSV:
        stream.write(",".join(headers) + "\n")
        for row in rows:
            stream.write(",".join(format_value(v) for v in row) + "\n")
    elif fmt == FORMAT_JSONL:
        for row in rows:
            record = {k: _jsonable(v) for k, v in zip(headers, row)}
            stream.write(json.dumps(record, separators=(",", ":")) + "\n")
    else:
        raise ValidationError(f"unknown output format {fmt!r}")


MONTECARLO_HEADERS = ("draw", "flux_ratio_sq", "s_tilde", "pinsker_rhs",
                      "main_rhs", "strengthened_rhs", "epsilon", "redraws")
SPINPAIR_HEADERS = ("t", "flux", "flux_analytic", "two_phi_sq", "onsager",
                    "s_tilde")
SATURATION_HEADERS = ("a", "tn_sq_over_4", "B_of_s_tilde", "abs_diff")
VERIFY_HEADERS = ("suite", "checks", "violations", "min_slack")


def _columns(*columns):
    """The rows of equal-length arrays, with Python scalars."""
    return zip(*(column.tolist() for column in columns))


def montecarlo_rows(records):
    return _columns(*(getattr(records, name) for name in MONTECARLO_HEADERS))


def spinpair_rows(points):
    return _columns(*(getattr(points, name) for name in SPINPAIR_HEADERS))


def saturation_rows(family):
    tn = family.trace_norm
    return _columns(family.log_odds_gap, 0.25 * tn * tn, family.bound_value,
                    family.gap)


def verify_rows(suites):
    for s in suites:
        yield (s.name, s.checks, s.violations, s.min_slack)
