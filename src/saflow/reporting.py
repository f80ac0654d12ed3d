"""The CSV writer of every output file, and the verification suites' check record."""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    input: str
    expected: str
    actual: str
    tolerance: str
    passed: bool


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(x).lower()
    if isinstance(x, float):
        return repr(float(x))  # np.float64 too, without its type name
    return "" if x is None else str(x)


def write_csv(path, header: str, rows) -> None:
    """Write rows under a header line: a float cell as repr(float(x)), a bool
    (numpy's too) as true/false, None as empty, anything else as str(x).  A
    cell with a comma, quote or newline is quoted as in RFC 4180."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(map(_cell, row) for row in rows)


def write_report_csv(rows: list[CheckResult], path) -> None:
    write_csv(path, "check_id,input,expected,actual,tolerance,pass", map(astuple, rows))
