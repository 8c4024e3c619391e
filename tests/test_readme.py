"""The library example in README.md runs as written."""

import doctest
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    example = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    report = io.StringIO()
    result = doctest.DocTestRunner().run(example, out=report.write)
    assert result.attempted > 0
    assert result.failed == 0, report.getvalue()
