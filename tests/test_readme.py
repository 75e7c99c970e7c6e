"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "sgk_plot.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
