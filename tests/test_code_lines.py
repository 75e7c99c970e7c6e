"""The code-line counter behind the ``src`` line counts in ROADMAP.md."""

from code_lines import code_lines, main

SNIPPET = '''"""A module docstring."""

import os  # a comment after code


class C:
    """A class docstring."""

    def f(self, x):
        """A docstring
        over two lines."""
        # a comment line
        s = """a string
        inside an expression"""
        return (x +
                1)
'''


def test_code_lines_counts_only_code(tmp_path, capsys):
    # import, class, def, the two lines of the assigned string and the two
    # of the return
    assert code_lines(SNIPPET) == 7
    assert code_lines("") == 0
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["8", "total"]
