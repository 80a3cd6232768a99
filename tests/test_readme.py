"""The README's Python examples run, and print what they say they print."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_print_what_they_claim():
    """Run every ```python block in order, in one namespace.

    A ``# -> text`` line claims that the last line the code before it
    printed (since the previous claim) is text.
    """
    blocks = _python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    claims = 0
    for block in blocks:
        chunk = []
        for line in block.splitlines() + [None]:
            claim = None if line is None else re.match(r"# -> (.*)$", line)
            if line is not None and not claim:
                chunk.append(line)
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile("\n".join(chunk), str(README), "exec"),
                     namespace)
            chunk = []
            if claim:
                printed = out.getvalue().splitlines()
                assert printed, "nothing printed before %r" % line
                assert printed[-1] == claim.group(1)
                claims += 1
    assert claims >= 3
