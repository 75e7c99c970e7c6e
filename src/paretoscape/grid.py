"""Equidistant evaluation grids and whole-grid objective evaluation.

Scalar fields over a grid are plain float arrays of shape (n1, n2) indexed
``values[j1, j2]`` (0-based internally; exports use the 1-based convention).
Vector fields add a trailing axis of length 2.  Per-point CSV exports all go
through ``export_grid_csv``, which iterates j2 in the outer loop and j1 in
the inner loop ("j1 fastest").
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from .problems import BiObjectiveProblem, DomainError


class EvaluationError(RuntimeError):
    """A problem produced a non-finite objective value on the grid."""


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
        n1, n2: number of grid points per axis, each at least 2.

    Raises:
        ValueError: on inverted/degenerate bounds or resolutions below 2.
    """
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
    return Grid(lower=lower, upper=upper, n1=int(n1), n2=int(n2),
                s1=float(s1), s2=float(s2), x1=x1, x2=x2)


def evaluate_grid(problem: BiObjectiveProblem, grid: Grid, workers: int = 1):
    """Evaluate both objectives on every grid point.

    Returns two (n1, n2) arrays (f1, f2).  The grid box must lie inside the
    problem's box.  ``workers > 1`` splits the grid into row blocks evaluated
    on a thread pool; results are written into preallocated arrays slice by
    slice, so the output is identical for any worker count.

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

    def eval_block(sl: slice):
        a, b = problem.evaluate_arrays(X1[sl], X2[sl])
        f1[sl] = a
        f2[sl] = b

    if workers <= 1:
        eval_block(slice(None))
    else:
        block = max(1, -(-grid.n1 // workers))
        slices = [slice(i, min(i + block, grid.n1)) for i in range(0, grid.n1, block)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(eval_block, slices))

    for name, f in (("f1", f1), ("f2", f2)):
        bad = ~np.isfinite(f)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise EvaluationError(
                f"problem {problem.name!r} produced non-finite {name} = {f[i, j]} "
                f"at grid point (j1={i + 1}, j2={j + 1}), x = ({grid.x1[i]}, {grid.x2[j]})"
            )
    return f1, f2


# rows per formatted block of a CSV export: bounds the Python strings alive
# at once while keeping the per-block numpy overhead negligible
CSV_BLOCK_ROWS = 16384


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


def export_grid_csv(path, grid: Grid, header, columns) -> None:
    """Write per-grid-point columns as CSV, one row per point, j1 fastest.

    Every row starts with the 1-based ``j1,j2`` and the coordinates
    ``x1,x2``, followed by one value per entry of ``columns``, each an
    (n1, n2) array named by ``header``.  Floats print as ``repr`` and
    integers as ``str``, the text of ``.tolist()``; each distinct value is
    formatted once.  The axes have n1 + n2 distinct values; a column with
    at most a quarter of its values distinct is formatted per distinct
    value and indexed per row, any other column row by row.  Rows are
    written ``CSV_BLOCK_ROWS`` at a time.
    """
    n1, n = grid.n1, grid.n1 * grid.n2
    axes = [np.array(_text(a), dtype=object)
            for a in (np.arange(1, grid.n1 + 1), np.arange(1, grid.n2 + 1),
                      grid.x1, grid.x2)]
    # per column: (strings, inverse) on the distinct-value path, else None
    distinct = [_distinct_text(c.T.ravel()) for c in columns]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(["j1", "j2", "x1", "x2", *header]) + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, n)
            j, i = np.divmod(np.arange(lo, hi), n1)
            text = [a[k].tolist() for a, k in zip(axes, (i, j, i, j))]
            for c, d in zip(columns, distinct):
                if d is None:
                    text.append(_text(c[i, j]))
                else:
                    text.append(d[0][d[1][lo:hi]].tolist())
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")
