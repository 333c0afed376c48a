"""The README's library example runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library use'"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out
