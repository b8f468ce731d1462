"""The README's library quick start runs and prints what its comments say, and
every line of its CLI block exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from entspec import cli

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


def cli_lines() -> list[str]:
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("entspec ")]


LINES = cli_lines()


@pytest.mark.parametrize(
    "line", LINES, ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(LINES)]
)
def test_cli_block_lines_exit_0(line, tmp_path, monkeypatch, capsys):
    # optional [...] parts are left out, and a trailing # comment is not an argument
    args = shlex.split(re.sub(r"\[[^]]*\]", "", line), comments=True)
    monkeypatch.chdir(tmp_path)  # `--out` files land in the test's directory
    assert args[0] == "entspec" and cli.main(args[1:]) == 0
    assert capsys.readouterr().err == ""
