"""The parsing rules of every file the package reads, and its CSV writer.

CSV files are UTF-8, written with LF line endings, and start with an exact
header row. Every row has the header's column count and a first column no
other row repeats; a bad row, or a field over the csv module's size limit, is
named as ``path:line``. JSON documents nest no deeper than the parser's
recursion limit, JSON probabilities are JSON numbers (no bool, no string
and no integer beyond the float range), and JSON hex is canonical: a string
of lowercase hex digit pairs, no whitespace. Every breach of these rules
raises :class:`FormatError`.

Every float sum that reaches an output goes through :func:`float_sum`, so
the files and figures written are the same on every supported Python.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, Sequence

from .errors import FormatError


def float_sum(values: Iterable[float]) -> float:
    """Left-to-right sum, as the builtin ``sum`` adds floats before Python
    3.12 (from 3.12 on the builtin compensates rounding error)."""
    total = 0
    for value in values:
        total += value
    return total


def read_csv(path, header: Sequence[str]) -> list[tuple[str, list[str]]]:
    """The rows under ``header``, each paired with its ``path:line`` label."""
    rows: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found != list(header):
                raise FormatError(f"{path!s}: unexpected header {found!r}")
            for row in reader:
                where = f"{path!s}:{reader.line_num}"  # a quoted newline spans lines
                if len(row) != len(header):
                    raise FormatError(f"{where}: expected {len(header)} columns, got {len(row)}")
                if row[0] in seen:
                    raise FormatError(f"{where}: duplicate {header[0]} {row[0]!r}")
                seen.add(row[0])
                rows.append((where, row))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path!s}: not UTF-8: {exc}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise FormatError(f"{path!s}:{reader.line_num}: {exc}") from None
    return rows


def csv_probability(text: str, where: str) -> float:
    """A probability column as a float; its range is not checked here."""
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{where}: bad probability {text!r}") from None


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``header`` and then ``rows``, UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def load_json(path, what: str):
    """The decoded JSON document at ``path``; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{what} {path!s} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{what} {path!s} is nested too deeply to parse") from None


def json_probabilities(value, what: str) -> dict[str, float]:
    """A decoded JSON object of key -> probability, values as floats."""
    # bool is an int subclass: JSON true must not pass as 1
    if not isinstance(value, dict) or not all(type(p) in (int, float) for p in value.values()):
        raise FormatError(f"{what} probabilities must be an object of JSON numbers")
    try:
        return {key: float(p) for key, p in value.items()}
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise FormatError(f"{what} probability out of range: {exc}") from None


def json_hex(value, what: str) -> bytes:
    """A decoded JSON string of canonical hex as bytes: ``bytes.fromhex(h).hex() == h``,
    so each accepted value has one reading."""
    try:
        data = bytes.fromhex(value)
    except (TypeError, ValueError) as exc:  # no str, or not hex digit pairs
        raise FormatError(f"{what} {value!r:.80} is not hex: {exc}") from None
    if data.hex() != value:  # uppercase or whitespace
        raise FormatError(f"{what} {value!r:.80} is non-canonical hex")
    return data
