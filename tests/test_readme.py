"""The README's ``## Example`` block, run as a doctest, and a CLI call the README quotes."""

import doctest
import json
import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_block_runs_as_a_doctest():
    section = README.read_text().split("\n## Example\n", 1)[1]
    block = re.search(r"```pycon\n(.*?)```", section, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README ## Example", str(README), 0)
    checked = [example for example in test.examples if example.want]
    assert len(checked) >= 7, "the Example block lost its checked values"
    results = doctest.DocTestRunner().run(test)
    assert results.failed == 0 and results.attempted == len(test.examples)


def test_readme_expression_after_a_double_dash_answers(capsys):
    from symcd.cli import main

    command = re.search(r'`(symcd intersect [^`]* -- "-[^`]*")` answers (-?\d+)', README.read_text().replace("\n", " "))
    argv = shlex.split(command.group(1))[1:]
    assert main(["--format", "json", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == command.group(2) == "-60"
