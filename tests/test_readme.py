"""The README's library example runs as written."""

import re
from pathlib import Path

import clipshift

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    trace, grad = scope["trace"], scope["grad"]
    assert len(trace) == 1000
    # the shifted method escapes x0 = 1 and descends
    assert scope["f"] < trace[0].f
    assert float(grad @ grad) < trace[0].grad_norm_sq


def test_theory_calculators_named_are_exported():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"The theory calculators \(([^)]*)\)", text).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert names, listed
    assert [name for name in names if name not in clipshift.__all__] == []
