"""The README's library section: its example runs as written, and its list
of exports is the package's ``__all__``."""

import contextlib
import io
import re
from pathlib import Path

import paulidfs

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    text = README.read_text()
    return text[text.index("## Library example") : text.index("## Conventions")]


def test_library_example_prints_its_comments():
    (example,) = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    assert out.getvalue().split() == ["2", "True", "1.0"]


def test_export_list_is_all():
    listed = library_section().split("The package exports:", 1)[1]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(paulidfs.__all__)
