"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    """The first python block under the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n")[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    code = quick_start_code()
    assert "encode_detailed" in code and "decode" in code
    exec(compile(code, str(README), "exec"), {})
