"""The README's Python examples run as written and print what they claim."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_print_their_comments():
    """Each ```python block runs, in order and in one namespace; a
    ``print(...)  # value`` line must print that value."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    claimed = re.findall(r"^print\([^#\n]*\)[ \t]+# (\S+)", "\n".join(blocks), re.M)
    assert claimed
    printed = out.getvalue().split()
    for value in claimed:
        assert value in printed, value
