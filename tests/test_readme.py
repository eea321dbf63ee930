"""The README's library example runs, and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PRINT_LINE = re.compile(r"^(print\(.*\))\s+# (.*)$")


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_prints_its_comments():
    block = library_block()
    expected = [m.group(2) for line in block.splitlines()
                if (m := PRINT_LINE.match(line))]
    assert len(expected) == block.count("print(") == 7
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
