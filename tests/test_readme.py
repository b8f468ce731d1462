"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# the number that ends a print line's comment; a trailing "..." makes it a prefix
COMMENTED_VALUE = re.compile(r"#.*?(-?\d[\d.]*?)(\.\.\.)?$")


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_prints_its_commented_values():
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    checked = []
    for line, text in zip(prints, printed):
        match = COMMENTED_VALUE.search(line)
        if match is not None:
            value, prefix = match.groups()
            assert text.startswith(value) if prefix else text == value, (line, text)
            checked.append(value)
    assert checked == ["8.742857", "4.36", "1.0", "15.49", "0.87878"]
