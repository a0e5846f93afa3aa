"""The README's "Library tour" code block runs as documented, and its module
table names only what exists."""

import argparse
import importlib
import inspect
import re
from pathlib import Path

from adaptive_merkle import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the comments promise: the new leaf splits B and delta drops to 0
    assert capsys.readouterr().out.splitlines()[0] == "split ('B',) 0.0"


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
