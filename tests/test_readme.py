"""The README's library examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_of_the_readme_run_in_order():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    namespace: dict[str, object] = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
