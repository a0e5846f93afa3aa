"""The shared file-format rules: every CSV reader enforces them alike, and
no module but ``_formats`` parses a file itself."""

import ast
import csv
import re
from pathlib import Path

import pytest

import adaptive_merkle
from adaptive_merkle import AdaptiveTree, FormatError, MerkleProof
from adaptive_merkle._formats import float_sum, load_json
from adaptive_merkle.bench import load_script
from adaptive_merkle.workload import load_distribution_csv

# name -> (header, row(key, probability), loader)
CSV_READERS = {
    "distribution": ("key,probability", lambda key, p: f"{key},{p}", load_distribution_csv),
}


@pytest.mark.parametrize("defect", ["header", "columns", "repeated_key", "probability", "encoding", "field_limit"])
@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_csv_reader_rejects_malformed_file(tmp_path, reader, defect):
    header, row, load = CSV_READERS[reader]
    path = tmp_path / "table.csv"
    lines = [header, row("A", "0.5"), row("B", "0.5")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    load(path)  # the file is valid before the defect goes in

    encoding, where = "utf-8", f"{path}:3: "
    if defect == "header":
        lines[0] = header.replace("probability", "prob")
        where = f"{path}: unexpected header"
    elif defect == "encoding":
        lines[2] = row("\u00e9", "0.5")
        encoding, where = "latin-1", f"{path}: not UTF-8"
    elif defect == "columns":
        lines[2] += ",0"
    elif defect == "repeated_key":
        lines[2] = row("A", "0.5")
    elif defect == "field_limit":  # one byte over the csv module's limit
        lines[2] = row("B" * (csv.field_size_limit() + 1), "0.5")
    else:
        lines[2] = row("B", "half")
    path.write_text("\n".join(lines) + "\n", encoding=encoding)
    with pytest.raises(FormatError, match="^" + re.escape(where)):
        load(path)


JSON_LOADERS = {
    "snapshot": AdaptiveTree.load,
    "script": load_script,
    "proof": lambda path: MerkleProof.from_json_dict(load_json(path, "proof")),  # CLI verify
}


@pytest.mark.parametrize(
    "content, message",
    [(b"{", "is not valid JSON"), (b'{"arity": "\xff"}', "is not valid JSON"), (b"[" * 200000, "nested too deeply")],
    ids=["not_json", "not_utf8", "too_deep"],
)
@pytest.mark.parametrize("load", sorted(JSON_LOADERS))
def test_json_loader_rejects_undecodable_file(tmp_path, load, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=message):
        JSON_LOADERS[load](path)


JSON_LOADS = ("load", "loads")


def _parses_files(node) -> bool:
    """``import csv``, ``from csv import ...``, ``json.load(s)`` or ``from json import load(s)``."""
    if isinstance(node, ast.Import):
        return any(alias.name == "csv" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv" or (
            node.module == "json" and any(alias.name in JSON_LOADS for alias in node.names)
        )
    return (
        isinstance(node, ast.Attribute)
        and node.attr in JSON_LOADS
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    )


def test_only_formats_module_parses_files():
    # A second module that reads CSV or JSON itself would grow its own
    # header, column and number rules next to the shared ones.
    package = Path(adaptive_merkle.__file__).parent
    offenders = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        if source.name != "_formats.py"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if _parses_files(node)
    ]
    assert offenders == []


def test_row_label_counts_physical_lines(tmp_path):
    # a quoted key holding a newline spans lines 2-3, so the bad row is line 4
    path = tmp_path / "dist.csv"
    path.write_text('key,probability\n"A\nB",0.5\nC,half\n', encoding="utf-8")
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}:4: bad probability")):
        load_distribution_csv(path)


@pytest.mark.parametrize("values, total", [([1.0, 1e100, 1.0, -1e100], 0.0), ([0.1] * 10, 0.9999999999999999), ([], 0)])
def test_float_sum_adds_left_to_right(values, total):
    # A compensated sum (the builtin from Python 3.12 on) gives 2.0 and 1.0
    # for the first two; the goldens were written with plain addition.
    assert float_sum(values) == total
    assert float_sum(iter(values)) == total
