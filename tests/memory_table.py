"""Measure the README's memory table: the CLI's peak RSS per grid point.

Usage: python tests/memory_table.py [--modes MODE ...] [--sizes N ...]
                                    [--runs R]
       (default: every mode, sizes 500 1000 2000, two runs)

For each mode and size n, the CLI runs on sgk, kursawe and mindist at n²
with both exports and ``--format png``, in a temporary directory.  Each
run's peak RSS is the ``ru_maxrss`` that ``os.wait4`` returns for that
child alone, the largest of the CLI process and its CSV workers; the same
run at 2×2 is subtracted from it, and the rest is divided by n².  Of R
runs the larger reading is kept, for the 2×2 run as well.  Prints the
2×2 readings, then the table in the README's format: per mode and size
the largest figure of the three problems, marked with its problem unless
it is kursawe's.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODES = ("plot", "gfh", "cost", "critical")
PROBLEMS = ("sgk", "kursawe", "mindist")
# the problem whose figure the README leaves unmarked
UNMARKED = "kursawe"


def peak_rss_kib(problem: str, mode: str, n: int) -> int:
    """``ru_maxrss`` (KiB) of one CLI run at n² with both exports."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as folder:
        proc = subprocess.Popen(
            [sys.executable, "-m", "paretoscape.cli", "--problem", problem,
             "--mode", mode, "--resolution", f"{n},{n}", "--format", "png",
             "--out", "image.png", "--export-csv", "table.csv",
             "--export-json", "table.json"],
            cwd=folder, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"the CLI failed on {problem} {mode} at {n}²")
    return usage.ru_maxrss


def measure(modes, sizes, runs: int = 2):
    """(bases, rows): the 2×2 reading in MB per (mode, problem), and the
    table rows, one per mode, as the README writes them."""
    def larger(problem, mode, n):
        return max(peak_rss_kib(problem, mode, n) for _ in range(runs))

    bases, rows = {}, []
    for mode in modes:
        cells = []
        for problem in PROBLEMS:
            bases[mode, problem] = larger(problem, mode, 2) / 1024
        for n in sizes:
            figures = {p: round((larger(p, mode, n) / 1024 - bases[mode, p])
                                * 2**20 / (n * n))
                       for p in PROBLEMS}
            top = max(PROBLEMS, key=lambda p: (figures[p], p == UNMARKED))
            mark = "" if top == UNMARKED else f" ({top})"
            cells.append(f"{figures[top]} B{mark}")
        rows.append(f"| `{mode}` | " + " | ".join(cells) + " |")
    return bases, rows


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES))
    p.add_argument("--sizes", nargs="+", type=int, default=[500, 1000, 2000])
    p.add_argument("--runs", type=int, default=2)
    args = p.parse_args(argv)
    if args.runs < 1 or min(args.sizes) < 2:
        p.error("--runs must be >= 1 and every size >= 2")
    bases, rows = measure(args.modes, args.sizes, args.runs)
    for (mode, problem), mb in bases.items():
        print(f"2x2 {mode} {problem}: {mb:.1f} MB")
    print("| mode | " + " | ".join(f"{n}²" for n in args.sizes) + " |")
    print("| --- |" + " --- |" * len(args.sizes))
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
