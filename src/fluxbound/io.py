"""Deterministic CSV and JSON-lines serialization.

One token rule per kind of value and format: integers as integers,
booleans as true/false, floats as "%.17g" in CSV and as their shortest
round-trip repr in JSONL (5 against 5.0), inf, -inf and nan quoted in
JSONL so that every line is strict JSON, and numpy scalars as the Python
values they hold.  No field needs quoting.  Rows are formatted CHUNK_ROWS
at a time, column by column, and written through one %-template per table.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import islice

import numpy as np

from .errors import ValidationError

FORMAT_CSV = "csv"
FORMAT_JSONL = "jsonl"
# rows formatted together, which bounds a write's memory; 1,024-row chunks
# were slower (in-process medians of 15, 2-core VM): montecarlo CSV 4.61 ->
# 4.89 ms, spinpair JSONL 6.79 -> 8.17 ms, saturation CSV 4.73 -> 5.10 ms
CHUNK_ROWS = 256


def _json_floats(column):
    if math.isfinite(sum(column)):  # only if every value is finite
        return map(repr, column)
    return [repr(x) if math.isfinite(x) else f'"{x!r}"' for x in column]


# per format and kind of value, the rule from a column to its tokens
_BOOLS, _INTS = partial(map, ("false", "true").__getitem__), partial(map, repr)
_RULES = {FORMAT_CSV: {bool: _BOOLS, int: _INTS, str: iter,
                       float: partial(map, "%.17g".__mod__)},
          FORMAT_JSONL: {bool: _BOOLS, int: _INTS, float: _json_floats,
                         str: partial(map, json.dumps)}}
# the kinds, each with the types written as it, numpy scalars included
_KINDS = {bool: (bool, np.bool_), int: (int, np.integer),
          float: (float, np.floating), str: str}


def _tokens(column, header, rules):
    types = set(map(type, column))
    if len(types) > 1:  # each value of a mixed column takes its own rule
        return ["".join(_tokens((value,), header, rules)) for value in column]
    found = types.pop()
    for kind, written in _KINDS.items():
        if issubclass(found, written):
            return rules[kind](
                column if found is kind else list(map(kind, column)))
    raise ValidationError(f"column {header!r} holds a {found.__name__}, not "
                          "a bool, integer, float or string")


def write_table(stream, headers, rows, fmt: str = FORMAT_CSV) -> None:
    """Write rows (sequences aligned with headers) as CSV or JSON lines."""
    if fmt not in _RULES:
        raise ValidationError(f"unknown output format {fmt!r}")
    if not headers:
        raise ValidationError("a table needs at least one column")
    width, rows, done = len(headers), iter(rows), 0
    if fmt == FORMAT_CSV:
        stream.write(",".join(headers) + "\n")
        template = ",".join(["%s"] * width) + "\n"
    else:
        template = "{%s}\n" % ",".join(
            json.dumps(h).replace("%", "%%") + ":%s" for h in headers)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        if set(map(len, chunk)) != {width}:
            k = next(k for k, row in enumerate(chunk) if len(row) != width)
            raise ValidationError(f"row {done + k} has {len(chunk[k])} "
                                  f"values for {width} headers")
        columns = [_tokens(column, header, _RULES[fmt])
                   for header, column in zip(headers, zip(*chunk))]
        stream.writelines(map(template.__mod__, zip(*columns)))
        done += len(chunk)


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
