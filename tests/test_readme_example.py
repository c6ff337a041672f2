"""README's library example, run as the text it is, so that the documented
example cannot fall out of step with the library unseen."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_of_the_readme_runs():
    section = _README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    assert "generate(s_beta(3))" in block
    exec(compile(block, f"{_README.name}: Library example", "exec"), {})
