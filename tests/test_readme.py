"""The README's Library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_and_gives_its_documented_value():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace: dict = {}
    exec(code, namespace)
    assert repr(namespace["s"]).startswith("0.4551")
