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


def _table_figures(lines):
    """The rows of a memory table among ``lines``, and their figures."""
    rows = [line for line in lines if line.startswith("| `")]
    return rows, [int(b) for line in rows for b in re.findall(r"(\d+) B", line)]


def test_memory_budget_covers_the_readme_table():
    # the budget is the largest figure of the README's memory table, and
    # the text above the table states it
    from paretoscape import cli
    section = README.read_text().split("### Memory budget\n")[1].split("\n#")[0]
    rows, figures = _table_figures(section.splitlines())
    assert len(rows) == 4 and len(figures) == 12
    assert max(figures) == cli.BUDGET_BYTES_PER_POINT
    budget = " ".join(section.split())
    assert (f"{cli.BUDGET_BASE_BYTES // 2 ** 20} MB base plus "
            f"{cli.BUDGET_BYTES_PER_POINT} bytes per grid point") in budget


def test_memory_table_prints_rows_the_readme_check_reads(capsys):
    # one run per reading at tiny sizes: the figures mean nothing here, as
    # the children's ru_maxrss starts from this process's, but the rows
    # must parse as the README's do
    from memory_table import main
    assert main(["--modes", "cost", "--sizes", "3", "4", "--runs", "1"]) == 0
    rows, figures = _table_figures(capsys.readouterr().out.splitlines())
    assert len(rows) == 1 and rows[0].startswith("| `cost` | ")
    assert len(figures) == 2
