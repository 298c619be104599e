"""The library example in README.md runs as documented."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_prints_the_documented_values(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == [
        "(14, 78, 172, 180, 73)",
        "OK: 73 cells, formula == enumeration",
        "73",
    ]
