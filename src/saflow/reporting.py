"""The CSV writer of every output file."""

from __future__ import annotations

import csv

import numpy as np


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
