"""The README's ``## Example`` block, run as a doctest."""

import doctest
import re
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
