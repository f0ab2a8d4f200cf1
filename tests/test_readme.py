"""README's "Library usage" example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_example_runs():
    text = README.read_text()
    section = text[text.index("## Library usage"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == code.count("print(")
    # 1 - |phi|^alpha and the tilted cluster sum 1 / (1 - phi) at phi = alpha = 0.5
    assert abs(float(lines[1]) - (1.0 - 0.5**0.5)) < 1e-12
    assert abs(float(lines[6]) - 2.0) < 1e-9
