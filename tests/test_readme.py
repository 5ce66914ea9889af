"""README's "Library quick start" block, run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# what the block's print lines print, as their comments state
STATED = ["('t7', 't2', 't4')", "3", "3"]


def test_library_quick_start_prints_what_its_comments_state():
    text = README.read_text()
    match = re.search(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert match, "README has no python block"
    assert text.rfind("\n## ", 0, match.start()) == text.index("\n## Library quick start")
    block = match.group(1)
    comments = [
        line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    assert len(comments) == len(STATED)
    for comment, stated in zip(comments, STATED):
        assert re.match(re.escape(stated) + r"(\W|$)", comment), comment
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == STATED
