"""The README's "Library tour" code block runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the comments promise: the new leaf splits B and delta drops to 0
    assert capsys.readouterr().out.splitlines()[0] == "split ('B',) 0.0"
