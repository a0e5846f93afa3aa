"""The README's "Library tour" code block runs as documented, it documents
every public top-level name, its module table and private names name only
what exists, and its snapshot and wire tables match the writer and reader."""

import argparse
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import adaptive_merkle
from adaptive_merkle import TreeConfig, build_balanced, cli, proofs

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the comments promise: the new leaf splits B and delta drops to 0
    assert capsys.readouterr().out.splitlines()[0] == "split ('B',) 0.0"


def test_public_names_documented():
    # The top level grows only with its documentation: every public name it
    # exports appears backticked in the README, and there are 19 of them.
    text = README.read_text(encoding="utf-8")
    backticked = set(re.findall(r"`([^`]*)`", text))
    public = [
        name
        for name in dir(adaptive_merkle)
        if not name.startswith("_") and not inspect.ismodule(getattr(adaptive_merkle, name))
    ]
    assert len(public) == 19
    assert [name for name in public if name not in backticked] == []


def test_module_table_names_exist():
    # Every backticked identifier in a row names an attribute of the row's
    # module, an attribute of a class defined there, or a CLI subcommand.
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(adaptive_merkle[\w.]*)` \| (.*) \|$", text, re.MULTILINE)
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(rows) >= 10
    unknown = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = set(dir(module)) | set(subparsers.choices)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module_name:
                names |= set(dir(obj))
        unknown += [
            (module_name, name)
            for name in re.findall(r"`([^`]*)`", contents)
            if name.isidentifier() and name not in names
        ]
    assert unknown == []


def test_private_names_exist():
    # Every backticked private name (a dotted name with a part that starts
    # with one underscore, such as `_rehash` or `restructure._NodeRanks`) names
    # an attribute of a package module, of a class defined there or of a
    # built tree, so a design note cannot outlive the code it describes.
    text = README.read_text(encoding="utf-8")
    private = {
        name
        for name in re.findall(r"`([A-Za-z_][\w.]*)(?:\(\))?`", text)
        if any(part.startswith("_") and not part.startswith("__") for part in name.split("."))
    }
    modules = {"adaptive_merkle": adaptive_merkle} | {
        info.name: importlib.import_module(f"adaptive_merkle.{info.name}")
        for info in pkgutil.iter_modules(adaptive_merkle.__path__)
    }
    tree = build_balanced([("A", b"A", 0.5), ("B", b"B", 0.5)], TreeConfig(2))
    owners = [*modules.values(), tree] + [
        obj
        for module in modules.values()
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    ]

    def resolves(name):
        first, *rest = name.split(".")
        if first in modules:
            starts = [modules[first]]
        else:
            starts = [getattr(owner, first) for owner in owners if hasattr(owner, first)]
        for start in starts:
            try:
                functools.reduce(getattr, rest, start)
                return True
            except AttributeError:
                pass
        return False

    assert len(private) >= 5
    assert sorted(name for name in private if not resolves(name)) == []


def test_snapshot_field_table_names_what_to_snapshot_writes():
    # the first column of the snapshot field table, in order, is the key
    # list of a written snapshot
    text = README.read_text(encoding="utf-8")
    section = text[text.index("* **Snapshot**") : text.index("* **Proof**, canonical wire")]
    fields = re.findall(r"^  \| `(\w+)` \|", section, re.MULTILINE)
    tree = build_balanced([("A", b"A", 0.5), ("B", b"B", 0.5)], TreeConfig(2))
    assert fields == list(tree.to_snapshot())


def test_wire_table_gives_the_wire_version():
    text = README.read_text(encoding="utf-8")
    (version,) = re.findall(r"^  \| version \| 1 B \| `0x([0-9a-f]{2})` \|$", text, re.MULTILINE)
    assert bytes.fromhex(version) == proofs._WIRE_VERSION
