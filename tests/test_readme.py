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


def test_memory_budget_covers_the_readme_table():
    # the budget is the largest figure of the README's memory table, and
    # the text above the table states it
    from paretoscape import cli
    section = README.read_text().split("### Memory budget\n")[1].split("\n#")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    figures = [int(b) for line in rows for b in re.findall(r"(\d+) B", line)]
    assert len(rows) == 4 and len(figures) == 12
    assert max(figures) == cli.BUDGET_BYTES_PER_POINT
    budget = " ".join(section.split())
    assert (f"{cli.BUDGET_BASE_BYTES // 2 ** 20} MB base plus "
            f"{cli.BUDGET_BYTES_PER_POINT} bytes per grid point") in budget
