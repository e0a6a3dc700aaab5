"""The README's examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(section):
    """The first python code block under the README heading ``section``."""
    text = README.read_text()
    body = text.split(f"\n{section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_example_prints_the_square_loop():
    code = python_block("## Library")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    expected = "1.0 1.4142135623730951 ((0, 1), (0, 3), (1, 2), (2, 3))"
    assert printed.getvalue() == expected + "\n"
    assert f"# {expected}\n" in code  # the output the README shows
