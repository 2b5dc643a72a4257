"""README's "Python API" example, run as written, so it cannot rot."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
