"""The README's Python quick start and its helix-pst commands run against
the current API and CLI."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from helix_pst import cli

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


def readme_commands() -> list[list[str]]:
    """The argv of every helix-pst command in the README's sh blocks,
    continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("helix-pst ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.run_command(argv) == 0, argv
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--output", "--output-dir"):
                assert (tmp_path / value).exists(), argv


def test_negative_grid_start_needs_the_joined_form():
    # the README's note: argparse reads a separate -3:3:3 as a flag
    [joined] = [argv for argv in readme_commands() if "--gamma-grid=-3:3:3" in argv]
    at = joined.index("--gamma-grid=-3:3:3")
    split = joined[:at] + ["--gamma-grid", "-3:3:3"] + joined[at + 1:]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.run_command(split) == 2
    assert "expected one argument" in err.getvalue()
