"""Numeric CSV reading and writing.

Format: comma separator, one header row of column names, one row per time
point, decimal point '.', no index column.  Values are written with 17
significant digits so that write-then-read restores them exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptyData, ParseError


@dataclass(frozen=True, eq=False)
class CsvTable:
    """Rectangular numeric table with named columns."""

    header: tuple
    values: np.ndarray


def read_csv(path) -> CsvTable:
    """Read a numeric CSV file; errors name the offending row and column."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData(f"{path}: file is empty") from None
        header = tuple(name.strip() for name in header)
        if not any(header):
            raise ParseError(f"{path}: row 1: the header row has no column names")
        width = len(header)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ParseError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {width}")
            parsed = []
            for col, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {line_no}, column {col}: "
                        f"cannot parse {cell.strip()!r} as a number") from None
                if not np.isfinite(value):
                    raise ParseError(
                        f"{path}: row {line_no}, column {col}: non-finite value")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise EmptyData(f"{path}: no data rows")
    return CsvTable(header, np.array(rows, dtype=float))


def write_csv(path, table: CsvTable) -> None:
    """Write a table with full round-trip precision."""
    values = np.asarray(table.values, dtype=float)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.header)
        for row in values:
            writer.writerow([f"{v:.17g}" for v in row])
