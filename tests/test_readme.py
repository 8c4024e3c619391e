"""The library example, the shell examples and the quoted refusals in README.md
hold as written."""

import doctest
import io
import re
import shlex
from pathlib import Path

from delseq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    example = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    report = io.StringIO()
    result = doctest.DocTestRunner().run(example, out=report.write)
    assert result.attempted > 0
    assert result.failed == 0, report.getvalue()


def test_readme_refusals_are_the_cli_messages(capsys, monkeypatch):
    monkeypatch.delenv("DELSEQ_MAX_BITS", raising=False)
    # markdown joins a code span's lines with a space
    text = " ".join(README.read_text().split())
    quoted = re.findall(r"`([^`]*exceeds the cap[^`]*)`", text)
    pairs = re.findall(r"`([^`]+)` refuses [a-z ]*with `([^`]+)`", text)
    assert len(quoted) >= 3 and [message for _, message in pairs] == quoted
    for command, message in pairs:
        assert main(shlex.split(command)) == 3, command
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_readme_commands_run(capsys, monkeypatch):
    monkeypatch.delenv("DELSEQ_MAX_BITS", raising=False)
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("delseq ")
    ]
    assert len(commands) >= 10
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
