"""Equidistant evaluation grids and whole-grid objective evaluation.

Scalar fields over a grid are plain float arrays of shape (n1, n2) indexed
``values[j1, j2]`` (0-based internally; exports use the 1-based convention).
Vector fields add a trailing axis of length 2.  Per-point CSV exports all go
through ``export_grid_csv``, which iterates j2 in the outer loop and j1 in
the inner loop ("j1 fastest").  The per-point stages of the pipeline run
in blocks of ``BLOCK_ROWS`` grid rows (``row_blocks``, with ``with_halo``
for stencils) on the calling thread plus helper threads (``map_blocks``),
with outputs that depend neither on the block size nor on the thread
count.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .problems import BiObjectiveProblem, DomainError


class EvaluationError(RuntimeError):
    """A problem produced a non-finite objective or gradient on the grid."""


@dataclass
class Grid:
    """Axis-aligned equidistant grid on [lower1,upper1] x [lower2,upper2].

    Coordinates include both box corners exactly: the last entry of each
    coordinate array is set to the upper bound rather than accumulated, so
    boundary logic can test for exact membership.
    """

    lower: np.ndarray          # (2,)
    upper: np.ndarray          # (2,)
    n1: int
    n2: int
    s1: float                  # spacing along x1
    s2: float                  # spacing along x2
    x1: np.ndarray             # (n1,) coordinates along axis 1
    x2: np.ndarray             # (n2,) coordinates along axis 2

    def meshes(self):
        """Coordinate meshes X1, X2 of shape (n1, n2)."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)


def build_grid(lower, upper, n1: int, n2: int) -> Grid:
    """Construct an n1 x n2 grid spanning the box [lower, upper].

    Args:
        lower, upper: box corners, length-2 sequences with lower < upper
            componentwise.
        n1, n2: number of grid points per axis, integers of at least 2.

    Raises:
        TypeError: a resolution is not an integer (``operator.index``).
        ValueError: on inverted/degenerate bounds or resolutions below 2.
    """
    n1, n2 = operator.index(n1), operator.index(n2)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (2,) or upper.shape != (2,):
        raise ValueError("grid bounds must be length-2 sequences")
    if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
        raise ValueError("grid bounds must be finite")
    if not np.all(lower < upper):
        raise ValueError(
            f"lower bounds {lower.tolist()} must be strictly below upper bounds "
            f"{upper.tolist()}"
        )
    if n1 < 2 or n2 < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {n1} x {n2}")
    s1 = (upper[0] - lower[0]) / (n1 - 1)
    s2 = (upper[1] - lower[1]) / (n2 - 1)
    x1 = lower[0] + s1 * np.arange(n1)
    x2 = lower[1] + s2 * np.arange(n2)
    x1[-1] = upper[0]
    x2[-1] = upper[1]
    return Grid(lower=lower, upper=upper, n1=n1, n2=n2,
                s1=float(s1), s2=float(s2), x1=x1, x2=x2)


# grid rows per block of the per-point stages: their temporaries grow with
# one block per thread, not with the whole grid.  glibc gives each helper
# thread its own malloc arena, which keeps freed block temporaries resident,
# so the block size sets the peak RSS: the CLI sgk plot at 2000² (2 CPUs)
# peaked at 480, 482, 485 and 493 MB with 16-, 32-, 64- and 128-row blocks
# (487 MB on one thread with 128) at about the same wall time
BLOCK_ROWS = 32


def row_blocks(n: int) -> list:
    """Slices of at most ``BLOCK_ROWS`` consecutive indices, in order,
    that cover ``range(n)``."""
    return [slice(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS)]


def with_halo(rows: slice, n: int):
    """(slab, inner): ``rows`` widened by one halo row on each side, within
    ``range(n)``, and the position of ``rows`` inside that slab.  A stencil
    over the slab gives the rows of ``inner`` the values it gives them on
    all n rows."""
    lo, hi = max(rows.start - 1, 0), min(rows.stop + 1, n)
    return slice(lo, hi), slice(rows.start - lo, rows.stop - lo)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_blocks(fn, blocks) -> list:
    """``[fn(b) for b in blocks]``, computed on the calling thread plus
    min(P, len(blocks)) - 1 helper threads, P = ``_cpus()``.

    Each thread takes the next block not yet taken until none is left, so
    ``fn`` must be safe to run concurrently on different blocks: the stages
    write disjoint rows of preallocated arrays, and numpy releases the
    interpreter lock inside its loops.  Results come back in block order.
    The helpers are started and joined inside each call, so no thread
    outlives it (``export_grid_csv`` forks).  After a block raises, no
    thread takes another block, and the exception of the lowest-numbered
    failing block is raised here once every helper has finished.
    Thread-local numpy state such as ``np.errstate`` is not inherited by
    the helpers: ``fn`` sets what it needs.

    The calling thread takes blocks itself instead of waiting on a
    ``concurrent.futures.ThreadPoolExecutor`` of P workers, because glibc
    gives every thread that allocates a malloc arena which keeps freed
    block temporaries resident: P workers plus the idle caller cost one
    arena more.  In CLI runs on a 2-CPU host (medians of 3-5 alternated
    runs) an executor raised the peak RSS 482.5 -> 487.1 MB (sgk plot,
    2000²), 247.9 -> 252.9 MB (kursawe cost, 1000²) and 178.6 -> 180.5 MB
    (mindist critical, 1000²); with 16-row blocks, which win the sgk
    memory back (482.8 MB), the sgk wall time rose 2.28 -> 2.73 s.
    """
    blocks = list(blocks)
    results = [None] * len(blocks)
    errors = {}
    lock = threading.Lock()
    pending = iter(range(len(blocks)))

    def work():
        while True:
            with lock:
                k = None if errors else next(pending, None)
            if k is None:
                return
            try:
                results[k] = fn(blocks[k])
            except BaseException as exc:    # re-raised by the calling thread
                with lock:
                    errors[k] = exc

    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(_cpus(), len(blocks)) - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def evaluate_grid(problem: BiObjectiveProblem, grid: Grid, workers: int = 1):
    """Evaluate both objectives on every grid point.

    Returns two (n1, n2) arrays (f1, f2).  The grid box must lie inside the
    problem's box.  Blocks of ``row_blocks`` grid rows are evaluated by
    ``map_blocks`` into preallocated arrays; the objectives are elementwise,
    so the output does not depend on the block size or the thread count.
    ``workers`` is ignored: ``perfbench/chain.py`` still passes it.

    Raises:
        DomainError: grid box not contained in the problem box.
        EvaluationError: any objective value is NaN or infinite, reporting
            the first offending point.
    """
    for i in range(2):
        if grid.lower[i] < problem.lower[i] or grid.upper[i] > problem.upper[i]:
            raise DomainError(
                f"grid box [{grid.lower[i]}, {grid.upper[i]}] along x{i + 1} is not "
                f"contained in the domain [{problem.lower[i]}, {problem.upper[i]}] "
                f"of problem {problem.name!r}"
            )
    X1, X2 = grid.meshes()
    f1 = np.empty(grid.shape, dtype=float)
    f2 = np.empty(grid.shape, dtype=float)

    def eval_block(rows: slice):
        f1[rows], f2[rows] = problem.evaluate_arrays(X1[rows], X2[rows])

    map_blocks(eval_block, row_blocks(grid.n1))
    check_finite(problem, grid, (("f1", f1), ("f2", f2)))
    return f1, f2


def check_finite(problem, grid: Grid, named_fields) -> None:
    """Raise EvaluationError at the first grid point, in scan order, where
    a (name, field) pair's scalar or vector field is NaN or infinite."""
    for name, f in named_fields:
        bad = ~np.isfinite(f)
        if bad.any():
            i, j = np.argwhere(bad)[0][:2]
            raise EvaluationError(
                f"problem {problem.name!r} produced non-finite {name} = {f[i, j]} "
                f"at grid point (j1={i + 1}, j2={j + 1}), x = ({grid.x1[i]}, {grid.x2[j]})"
            )


# rows per formatted block of a CSV export: bounds the Python strings alive
# at once, which also bounds a CSV worker's resident set above the parent's
CSV_BLOCK_ROWS = 4096

# the export in progress, read by _csv_block in this process and, inherited
# by fork, in the CSV workers; the lock keeps concurrent exports apart
_csv_lock = threading.Lock()
_csv_job = None


def _text(values: np.ndarray) -> list:
    """The text of each element of 1-d ``values``: floats as
    ``float.__repr__``, anything else as ``str`` of ``.tolist()``."""
    fmt = float.__repr__ if values.dtype.kind == "f" else str
    return list(map(fmt, values.tolist()))


def _distinct_text(values: np.ndarray):
    """(strings, inverse) with ``strings[inverse]`` the text of 1-d
    ``values``, or None if more than a quarter of the values are distinct.

    Floats are told apart by their bit pattern, since ``-0.0 == 0.0`` but
    the two print differently.  One sort counts the distinct values; only
    the distinct-value path searches for ``inverse``, stored in the
    smallest unsigned dtype that holds it."""
    key = values
    if values.dtype.kind == "f":
        key = values.view(f"u{values.itemsize}")
    ordered = np.sort(key)
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    if 4 * np.count_nonzero(first) > values.size:
        return None
    distinct = ordered[first]
    inverse = np.searchsorted(distinct, key)
    return (np.array(_text(distinct.view(values.dtype)), dtype=object),
            inverse.astype(np.min_scalar_type(distinct.size - 1)))


def _csv_block(lo: int) -> bytes:
    """The ASCII rows ``lo`` to ``lo + CSV_BLOCK_ROWS`` of the export in
    progress."""
    n1, n, axes, columns, distinct = _csv_job
    hi = min(lo + CSV_BLOCK_ROWS, n)
    j, i = np.divmod(np.arange(lo, hi), n1)
    text = [a[k].tolist() for a, k in zip(axes, (i, j, i, j))]
    for c, d in zip(columns, distinct):
        if d is None:
            text.append(_text(c[i, j]))
        else:
            text.append(d[0][d[1][lo:hi]].tolist())
    return ("\n".join(map(",".join, zip(*text))) + "\n").encode("ascii")


def export_grid_csv(path, grid: Grid, header, columns) -> None:
    """Write per-grid-point columns as CSV, one row per point, j1 fastest.

    Every row starts with the 1-based ``j1,j2`` and the coordinates
    ``x1,x2``, followed by one value per entry of ``columns``, each an
    (n1, n2) array named by ``header``.  Floats print as ``repr`` and
    integers as ``str``, the text of ``.tolist()``; each distinct value is
    formatted once.  The axes have n1 + n2 distinct values; a column with
    at most a quarter of its values distinct is formatted per distinct
    value and indexed per row, any other column row by row.

    Rows are formatted ``CSV_BLOCK_ROWS`` at a time and written in order.
    When some column takes the row-by-row path, there are at least two
    blocks and this process may run on P >= 2 CPUs (its affinity mask, else
    ``os.cpu_count()``), the blocks are formatted in a pool of
    min(P, blocks) processes started by ``fork``: they inherit the axis
    strings, the distinct-value tables and the columns, so that only block
    starts and block bytes are pickled.  The pool is joined, or
    terminated on an exception, before this returns.  The output bytes do
    not depend on P.  ``CSV_BLOCK_ROWS`` is 4096 because a worker's resident
    set is the parent's plus its block's strings: the mindist ``critical``
    CLI run at 1000² peaked at 186–187 MB with 16384-row blocks in the pool,
    177–179 MB with 4096, and 181 MB exporting serially.
    """
    global _csv_job
    n = grid.n1 * grid.n2
    axes = [np.array(_text(a), dtype=object)
            for a in (np.arange(1, grid.n1 + 1), np.arange(1, grid.n2 + 1),
                      grid.x1, grid.x2)]
    # per column: (strings, inverse) on the distinct-value path, else None
    distinct = [_distinct_text(c.T.ravel()) for c in columns]
    head = (",".join(["j1", "j2", "x1", "x2", *header]) + "\n").encode("ascii")
    starts = range(0, n, CSV_BLOCK_ROWS)
    processes = min(_cpus(), len(starts))
    row_by_row = any(d is None for d in distinct)
    with _csv_lock:
        _csv_job = (grid.n1, n, axes, columns, distinct)
        try:
            if processes < 2 or not hasattr(os, "fork") or not row_by_row:
                _write_blocks(path, head, map(_csv_block, starts))
            else:
                # imported here: the CLI's start-up need not pay for it
                import multiprocessing
                with multiprocessing.get_context("fork").Pool(processes) as pool:
                    _write_blocks(path, head, pool.imap(_csv_block, starts))
                    pool.close()
                    pool.join()
        finally:
            _csv_job = None


def _write_blocks(path, head: bytes, blocks) -> None:
    # opened only after any fork, so that no worker holds the file
    with open(path, "wb") as fh:
        fh.write(head)
        fh.writelines(blocks)
