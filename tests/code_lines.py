"""Count the code lines of Python sources: lines that hold a token other
than a comment, a docstring or a line break.

Usage: python tests/code_lines.py [PATH ...]   (default: src)

Each file is read with ``tokenize``.  A docstring is a string statement:
a string token that starts a logical line and is followed by its end.  A
line counts once however many tokens it holds, and a token that spans
lines, such as a triple-quoted string inside an expression, counts every
line it spans.  Prints one line per file and the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python text ``source``."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        starts = k == 0 or tokens[k - 1].type in (
            tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
        ends = k + 1 == len(tokens) or tokens[k + 1].type in (
            tokenize.NEWLINE, tokenize.ENDMARKER)
        if tok.type == tokenize.STRING and starts and ends:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    paths = [Path(a) for a in argv] or [Path("src")]
    files = sorted(f for p in paths
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
