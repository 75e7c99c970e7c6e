"""Equidistant evaluation grids and whole-grid objective evaluation.

Scalar fields over a grid are plain float arrays of shape (n1, n2) indexed
``values[j1, j2]`` (0-based internally; exports use the 1-based convention).
Vector fields add a trailing axis of length 2.  Per-point CSV exports all go
through ``export_grid_csv``, which iterates j2 in the outer loop and j1 in
the inner loop ("j1 fastest") and reads each column a slice of j2 columns
at a time, so a column may compute its values per slice.  It passes its
job to the block formatter as an argument; forked workers, which take the
job from the pool's initializer, format all but the first of its
contiguous runs of rows into temporary files, and one path writes the
header, the first run and those files into the output for any number of
workers.  The per-point stages of
the pipeline run in blocks of ``BLOCK_ROWS`` grid rows (``row_blocks``,
with ``with_halo`` for stencils) on the calling thread plus helper threads
(``map_blocks``; ``fill_blocks`` when each block writes its rows of one new
array, as the on-read fields of ``gradients.FieldSet`` do), with outputs
that depend neither on the block size nor on the thread count.
"""

from __future__ import annotations

import contextlib
import operator
import os
import shutil
import stat
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from .problems import BiObjectiveProblem, DomainError


class EvaluationError(RuntimeError):
    """A problem produced a non-finite objective, gradient, gradient norm,
    gradient scale or largest descent divergence on the grid."""


@dataclass
class Grid:
    """Axis-aligned equidistant grid on [lower1,upper1] x [lower2,upper2].

    Coordinates include both box corners exactly: the last entry of each
    coordinate array is set to the upper bound rather than accumulated, so
    boundary logic can test for exact membership.  The grid keeps only the
    two axes: the point (j1, j2) lies at ``(x1[j1], x2[j2])``.
    """

    lower: np.ndarray          # (2,)
    upper: np.ndarray          # (2,)
    n1: int
    n2: int
    s1: float                  # spacing along x1
    s2: float                  # spacing along x2
    x1: np.ndarray             # (n1,) coordinates along axis 1
    x2: np.ndarray             # (n2,) coordinates along axis 2

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
        ValueError: on inverted/degenerate bounds, resolutions below 2, or
            an axis whose spacing is not finite or whose coordinates are
            not strictly increasing.
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
    # a box wider than the largest float gets an infinite spacing and a NaN
    # first coordinate, and a box a few ulps wide repeats coordinates:
    # neither passes the strictly-increasing check
    with np.errstate(over="ignore", invalid="ignore"):
        s = (upper - lower) / np.array([n1 - 1, n2 - 1])
        x1, x2 = (lower[a] + s[a] * np.arange(n) for a, n in ((0, n1), (1, n2)))
    x1[-1], x2[-1] = upper
    for axis, x in enumerate((x1, x2)):
        if not np.all(x[1:] > x[:-1]):
            raise ValueError(
                f"grid axis {axis + 1}: spacing {float(s[axis])!r} does not give "
                f"{x.size} finite, strictly increasing coordinates")
    return Grid(lower=lower, upper=upper, n1=n1, n2=n2,
                s1=float(s[0]), s2=float(s[1]), x1=x1, x2=x2)


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


def fill_blocks(shape, rows_of, dtype=float) -> np.ndarray:
    """A new array of ``shape`` and ``dtype`` whose rows ``rows`` hold
    ``rows_of(rows)``, for each slice of ``row_blocks(shape[0])``, filled
    by ``map_blocks``."""
    out = np.empty(shape, dtype=dtype)

    def fill(rows: slice):
        out[rows] = rows_of(rows)

    map_blocks(fill, row_blocks(shape[0]))
    return out


def evaluate_grid(problem: BiObjectiveProblem, grid: Grid, workers: int = 1):
    """Evaluate both objectives on every grid point.

    Returns two (n1, n2) arrays (f1, f2).  The grid box must lie inside the
    problem's box.  Blocks of ``row_blocks`` grid rows are evaluated by
    ``map_blocks`` into preallocated arrays, each from coordinate meshes of
    its own rows that it builds from the axes ``x1`` and ``x2``, so no
    whole-grid coordinate array is allocated.  The objectives are
    elementwise and every block gets the coordinate values a whole-grid
    mesh would hold, so the output does not depend on the block size or
    the thread count.  ``workers`` is ignored: ``perfbench/chain.py``
    still passes it.

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
    f1 = np.empty(grid.shape, dtype=float)
    f2 = np.empty(grid.shape, dtype=float)

    def eval_block(rows: slice):
        f1[rows], f2[rows] = problem.fn(
            *np.meshgrid(grid.x1[rows], grid.x2, indexing="ij"))

    map_blocks(eval_block, row_blocks(grid.n1))
    check_finite(problem, grid, (("f1", f1), ("f2", f2)))
    return f1, f2


def check_finite(problem, grid: Grid, named_fields, start: int = 0) -> None:
    """Raise EvaluationError at the first grid point, in scan order, where
    a (name, field) pair's scalar or vector field is NaN or infinite.  The
    fields hold the grid rows from ``start`` on, and the error names the
    point by its index in the whole grid."""
    for name, f in named_fields:
        bad = ~np.isfinite(f)
        if bad.any():
            i, j = np.argwhere(bad)[0][:2]
            raise EvaluationError(
                f"problem {problem.name!r} produced non-finite {name} = {f[i, j]} "
                f"at grid point (j1={start + i + 1}, j2={j + 1}), "
                f"x = ({grid.x1[start + i]}, {grid.x2[j]})"
            )


# rows per formatted block of a CSV export: bounds the Python strings alive
# at once in the calling process and in each CSV worker.  The mindist
# critical CLI run at 1000² (2 CPUs, three runs each) peaked at 151.7-152.3,
# 153.6-153.8 and 159.0-159.7 MB with 1024-, 4096- and 16384-row blocks
CSV_BLOCK_ROWS = 4096

# values per sorted slab while _distinct_text counts a column's distinct
# values
_DISTINCT_CHUNK = 2**16

# the most distinct values a column may have to be formatted per distinct
# value: bounds each distinct-value table and the count that decides it
_DISTINCT_CAP = 2**16


def _text(values: np.ndarray) -> list:
    """The text of each element of 1-d ``values``: floats as
    ``float.__repr__``, anything else as ``str`` of ``.tolist()``."""
    fmt = float.__repr__ if values.dtype.kind == "f" else str
    return list(map(fmt, values.tolist()))


def _bits(values: np.ndarray) -> np.ndarray:
    """``values``, with floats viewed as unsigned integers of their size:
    ``-0.0 == 0.0``, but the two print differently."""
    if values.dtype.kind == "f":
        return values.view(f"u{values.itemsize}")
    return values


def _distinct_text(part, n1: int, n2: int):
    """(bits, strings): the sorted distinct ``_bits`` of the (n1, n2) column
    whose j2 columns ``js`` are ``part(js)`` (see ``export_grid_csv``) and
    the text of each, or None if more than a quarter of its values, or
    more than ``_DISTINCT_CAP``, are distinct.

    The column is read in slabs of whole j2 columns; each sorted slab is
    merged into the distinct values so far, and the count stops once it
    passes that limit.  As the count only grows, the slabs decide neither
    the distinct values nor whether it stops.  A slab holds
    ``_DISTINCT_CHUNK`` values (at least one j2 column), so the count holds
    at most the limit plus two slabs of values, whatever the grid size."""
    limit, lo, bits = min(n1 * n2 // 4, _DISTINCT_CAP), 0, ()
    while lo < n2:
        hi = lo + max(1, _DISTINCT_CHUNK // n1)
        slab = np.sort(_bits(part(slice(lo, hi))), axis=None)
        bits = np.concatenate((bits, slab)) if lo else slab
        del slab                        # no copy is held through the merge
        bits.sort(kind="stable")        # merges the two sorted runs
        bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
        if bits.size > limit:
            return None
        lo = hi
    dtype = part(slice(0, 1)).dtype
    return bits, np.array(_text(bits.view(dtype)), dtype=object)


def _csv_block(job, lo: int) -> bytes:
    """The ASCII rows ``lo`` to ``lo + CSV_BLOCK_ROWS`` of the export
    ``job``, from the j2 columns ``j[0]`` to ``j[-1]`` that they cover."""
    n1, n, axes, columns, distinct = job
    hi = min(lo + CSV_BLOCK_ROWS, n)
    j, i = np.divmod(np.arange(lo, hi), n1)
    text = [a[k].tolist() for a, k in zip(axes, (i, j, i, j))]
    js = slice(j[0], j[-1] + 1)         # the j2 columns the block covers
    for part, d in zip(columns, distinct):
        values = part(js)[i, j - js.start]
        if d is None:
            text.append(_text(values))
        else:
            bits, strings = d
            text.append(strings[np.searchsorted(bits, _bits(values))].tolist())
    return ("\n".join(map(",".join, zip(*text))) + "\n").encode("ascii")


def _write_run(fh, job, run: range) -> None:
    """Write the blocks numbered in ``run`` of the export ``job`` to
    ``fh``."""
    for b in run:
        fh.write(_csv_block(job, b * CSV_BLOCK_ROWS))


def _adopt(job) -> None:
    """The initializer of a CSV worker: take ``job`` as its export."""
    global _job
    _job = job


def _spill_run(task) -> None:
    """In a CSV worker: write the run of ``task`` = (fd, run) into the
    inherited spill ``fd``."""
    fd, run = task
    with open(fd, "wb", closefd=False) as fh:
        _write_run(fh, _job, run)


def _spill(folder: str):
    """An unnamed temporary file in ``folder``, else in the default
    temporary directory."""
    try:
        return tempfile.TemporaryFile(dir=folder)
    except OSError:     # e.g. the output is a pipe such as /dev/fd/63
        return tempfile.TemporaryFile()


def export_grid_csv(path, grid: Grid, header, columns) -> None:
    """Write per-grid-point columns as CSV, one row per point, j1 fastest.

    Every row starts with the 1-based ``j1,j2`` and the coordinates
    ``x1,x2``, followed by one value per entry of ``columns``, named by
    ``header``.  A column is a function ``part(js)`` that gives the
    (n1, len(js)) array of its values at the j2 columns of the slice
    ``js``, which the export does not write into, or an (n1, n2) array
    ``c``, read as ``c[:, js]``.  The export reads a column only that way:
    the distinct-value count in slabs of whole j2 columns, and each block
    the j2 columns its rows cover, so a column that computes its values is
    never held whole.  Floats print as ``repr`` and integers as ``str``,
    the text of ``.tolist()``; each distinct value is formatted once.  The
    axes have n1 + n2 distinct values; a column with at most a quarter of
    its values distinct, and at most ``_DISTINCT_CAP``, is formatted per
    distinct value (``_distinct_text``) and looked up per block, any other
    column row by row.  Besides the distinct-value tables, which hold at
    most that cap each, and their count, nothing sized by the grid is
    allocated: with one row-by-row and one distinct-value array column the
    traced peak grows by 3.8 B per grid point, where a transposed copy, a
    full sort and a full-length inverse per column would take 26.3 B.

    Rows are formatted ``CSV_BLOCK_ROWS`` at a time, and the blocks are
    split into R = min(P, blocks) contiguous runs, P being the CPUs this
    process may run on (its affinity mask, else ``os.cpu_count()``).  The
    axis strings, the columns and the distinct-value tables form the job,
    which this process passes to ``_write_run`` and ``_csv_block`` as an
    argument; no module state holds it.  For R >= 2, R - 1 workers started
    by ``fork`` take the job from the pool's initializer (``_adopt``),
    which the fork hands over without pickling, and each formats one run
    into an unnamed temporary file (a spill) in the output's directory, or
    in the default temporary directory where that refuses.  Whatever R,
    this process then writes the header and run 0 into ``path`` and
    appends each spill in order, through a buffer, once its worker is
    done.  The mindist ``critical`` CLI run at 1000² (2 CPUs, 11 runs),
    while its export still built whole gradient fields, peaked at a median
    151.5 MB this way, 145 MB of it live before the export, and at
    178.1 MB with a pool that piped every formatted block back to the
    parent.

    One exit stack owns the spills and the pool, which is closed and
    joined before this returns, also on an exception: terminating it could
    kill a worker that holds the result queue's lock, and then the pool's
    own shutdown waits forever for that lock.  On any exception the spills
    are closed, which deletes them, and ``_discard`` undoes what was
    written into ``path``, so that no shorter table is left that still
    parses.  The output bytes do not depend on P.
    """
    n = grid.n1 * grid.n2
    axes = [np.array(_text(a), dtype=object)
            for a in (np.arange(1, grid.n1 + 1), np.arange(1, grid.n2 + 1),
                      grid.x1, grid.x2)]
    columns = [c if callable(c) else (lambda js, c=c: c[:, js])
               for c in columns]
    # per column: (bits, strings) on the distinct-value path, else None
    distinct = [_distinct_text(c, grid.n1, grid.n2) for c in columns]
    job = (grid.n1, n, axes, columns, distinct)
    blocks = -(-n // CSV_BLOCK_ROWS)
    processes = min(_cpus(), blocks) if hasattr(os, "fork") else 1
    runs = [range(k * blocks // processes, (k + 1) * blocks // processes)
            for k in range(processes)]
    folder = os.path.dirname(os.path.abspath(path))
    with contextlib.ExitStack() as stack:
        spills = [stack.enter_context(_spill(folder)) for _ in runs[1:]]
        spilled = ()        # per spill, in order: its worker's result
        if spills:
            # imported here: the CLI's start-up need not pay for it
            import multiprocessing
            pool = multiprocessing.get_context("fork").Pool(
                len(spills), _adopt, (job,))
            stack.callback(pool.join)
            stack.callback(pool.close)      # runs first: last in, first out
            spilled = pool.imap(_spill_run, [
                (spill.fileno(), run) for spill, run in zip(spills, runs[1:])])
        # opened only after any fork, so that no worker holds the file
        fh = open(path, "wb")
        try:
            with fh:
                fh.write((",".join(["j1", "j2", "x1", "x2", *header])
                          + "\n").encode("ascii"))
                _write_run(fh, job, runs[0])
                # a worker's result raises its exception
                for spill, _ in zip(spills, spilled):
                    spill.seek(0)
                    shutil.copyfileobj(spill, fh)
        except BaseException:
            _discard(path)
            raise


def _discard(path) -> None:
    """Undo a failed export into ``path``: remove the file if ``path``
    names a regular file, empty the regular file that a link or a /dev/fd
    entry leads to, and leave anything else, such as a pipe, alone.  An
    error here is ignored, so that the export's own is the one raised."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
        elif stat.S_ISREG(os.stat(path).st_mode):
            os.truncate(path, 0)
