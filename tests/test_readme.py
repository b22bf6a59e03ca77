"""The README's Python quick start runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = r"-?\d+\.\d+"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # each print carries a comment with the numbers it shows, to the
    # digits given there
    printed = out.getvalue().splitlines()
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert len(printed) == len(expected) == 3
    for line, comment in zip(printed, expected):
        shown = [float(x) for x in re.findall(NUMBER, line)]
        for number in re.findall(NUMBER, comment):
            digits = len(number.split(".")[1])
            assert any(abs(x - float(number)) <= 10.0 ** -digits for x in shown), (line, comment)
