"""Deterministic CSV and JSON-lines serialization.

One token rule per kind of value and format: integers as integers,
booleans as true/false, floats as "%.17g" in CSV and as their shortest
round-trip repr in JSONL (5 against 5.0), inf, -inf and nan quoted in
JSONL so that every line is strict JSON, and numpy scalars as the Python
values they hold.  No field needs quoting.  Rows are written CHUNK_ROWS at
a time through a row template typed per chunk: an int or float column
puts its conversion (%d, %.17g or JSONL's %r) in the template, and its
values go to % as they are; any other column enters as %s with its tokens.
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
# were no faster (in-process medians of 40, 2-core VM): montecarlo CSV 2.92
# -> 2.92 ms, spinpair JSONL 5.94 -> 5.90 ms, saturation CSV 2.89 -> 2.90 ms
CHUNK_ROWS = 256


# per format and kind of value, the %-conversion from a value to its token,
# or the rule from a column to its tokens
_BOOLS = partial(map, ("false", "true").__getitem__)
_RULES = {FORMAT_CSV: {bool: _BOOLS, int: "%d", float: "%.17g", str: iter},
          FORMAT_JSONL: {bool: _BOOLS, int: "%d", float: "%r",
                         str: partial(map, json.dumps)}}
# the kinds, each with the types written as it, numpy scalars included
_KINDS = {bool: (bool, np.bool_), int: (int, np.integer),
          float: (float, np.floating), str: str}


def _field(column, header, rules):
    """The column's conversion in the row template and the values it fills
    in, as the Python values they hold (kinds go by exact type: a bool is an
    int, np.float64 a float): an int or float column's own conversion, and
    "%s" with tokens for any other."""
    types = set(map(type, column))
    if len(types) > 1:  # each value of a mixed column takes its own rule
        return "%s", [spec % tuple(values) for spec, values
                      in (_field((value,), header, rules) for value in column)]
    found = types.pop()
    for kind, written in _KINDS.items():
        if issubclass(found, written):
            rule = rules[kind]
            values = column if found is kind else list(map(kind, column))
            if not isinstance(rule, str):
                return "%s", rule(values)
            if rule == "%r" and not math.isfinite(sum(values)):
                # JSONL quotes inf, -inf and nan, so that a line is strict JSON
                return "%s", [repr(x) if math.isfinite(x) else f'"{x!r}"'
                              for x in values]
            return rule, values
    raise ValidationError(f"column {header!r} holds a {found.__name__}, not "
                          "a bool, integer, float or string")


def write_table(stream, headers, rows, fmt: str = FORMAT_CSV) -> None:
    """Write rows (sequences aligned with headers) as CSV or JSON lines; a
    value of another kind, or an int with more digits than Python writes
    as text, raises ValidationError naming its column."""
    if fmt not in _RULES:
        raise ValidationError(f"unknown output format {fmt!r}")
    if not headers:
        raise ValidationError("a table needs at least one column")
    width, rows, done = len(headers), iter(rows), 0
    if fmt == FORMAT_CSV:
        stream.write(",".join(headers) + "\n")
        template = ",".join(["%s"] * width) + "\n"
    else:
        # a key's % is escaped for both the chunk's % and the row's
        template = "{%s}\n" % ",".join(
            json.dumps(h).replace("%", "%%%%") + ":%s" for h in headers)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        if set(map(len, chunk)) != {width}:
            k = next(k for k, row in enumerate(chunk) if len(row) != width)
            raise ValidationError(f"row {done + k} has {len(chunk[k])} "
                                  f"values for {width} headers")
        try:
            specs, columns = zip(*(_field(column, header, _RULES[fmt])
                                   for header, column in zip(headers, zip(*chunk))))
            stream.writelines(map((template % specs).__mod__, zip(*columns)))
        except ValueError:
            header = _long_int_header(headers, chunk)
            if header is None:
                raise
            raise ValidationError(f"column {header!r} holds an integer with more "
                                  "digits than Python writes as text") from None
        done += len(chunk)


def _long_int_header(headers, chunk):
    """The header of the chunk's first column holding an int whose decimal
    digits pass Python's limit (sys.get_int_max_str_digits), or None."""
    for header, column in zip(headers, zip(*chunk)):
        for value in column:
            if isinstance(value, int):
                try:
                    str(value)
                except ValueError:
                    return header
    return None


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
