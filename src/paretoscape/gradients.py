"""Finite-difference gradient machinery on evaluation grids.

All derivatives use numpy's ``np.gradient`` stencil: second-order central
differences in the grid interior, first-order one-sided ones on the
first/last index of each axis.  The multi-objective gradient is the sum of
the two normalised single-objective gradients (an ascent direction);
wherever either single gradient is (numerically) zero the joint gradient is
the zero vector, which encodes single-objective criticality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (EvaluationError, Grid, check_finite, evaluate_grid,
                   export_grid_csv, map_blocks, row_blocks, with_halo)

# default zero-gradient tolerance, relative to the gradient scale
ZERO_TOL_REL = 1e-12


def _gradient_rows(values: np.ndarray, grid: Grid, rows: slice,
                   out: np.ndarray) -> None:
    """Gradient field of a scalar grid field at grid rows ``rows``, into
    ``out`` of shape (len(rows), n2, 2), from those rows and a halo row on
    each side.

    numpy's stencil, which ``divergence`` uses too: (f[i+1] - f[i-1]) / 2s
    inside, (f[1] - f[0]) / s and (f[-1] - f[-2]) / s on the boundary.
    """
    slab, inner = with_halo(rows, grid.n1)
    out[..., 0] = np.gradient(values[slab], grid.s1, axis=0)[inner]
    out[..., 1] = np.gradient(values[rows], grid.s2, axis=1)


def gradient_norms(g: np.ndarray) -> np.ndarray:
    return np.hypot(g[..., 0], g[..., 1])


def _is_zero(norms: np.ndarray, zero_tol: float) -> np.ndarray:
    """The one zero-gradient rule: a norm below ``zero_tol`` or exactly 0."""
    return (norms <= 0.0) | (norms < zero_tol)


def _unit_sum(g1, g2, n1, n2, zero_tol: float) -> np.ndarray:
    """Sum of the normalised single-objective gradients g1 and g2, given
    their norms n1 and n2.

    Points where either gradient norm is below ``zero_tol`` (or exactly
    zero) get the zero vector: a vanishing single-objective gradient means
    the point is critical on its own and no direction of joint ascent is
    defined there.
    """
    zero = _is_zero(n1, zero_tol) | _is_zero(n2, zero_tol)
    d1 = np.where(zero, 1.0, n1)[..., None]
    d2 = np.where(zero, 1.0, n2)[..., None]
    mo = g1 / d1 + g2 / d2
    mo[zero] = 0.0
    return mo


def divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a vector field, same stencils as the gradients,
    computed per block of ``row_blocks`` rows with a halo row by
    ``map_blocks``."""
    if v.shape != grid.shape + (2,):
        raise ValueError(f"vector field shape {v.shape} does not match grid {grid.shape}")
    div = np.empty(grid.shape)

    def block(rows: slice):
        slab, inner = with_halo(rows, grid.n1)
        div[rows] = (np.gradient(v[slab, :, 0], grid.s1, axis=0)[inner]
                     + np.gradient(v[rows, :, 1], grid.s2, axis=1))

    map_blocks(block, row_blocks(grid.n1))
    return div


@dataclass
class FieldSet:
    """All per-grid-point fields the detection pipeline works on.

    ``mo`` starts as the very array ``mo_raw`` holds, the raw ascent
    multi-objective gradient; ``classify`` rebinds it to a rotated copy
    (normal components removed where descent would leave the box) and sets
    ``div_descent`` = div(-mo), which the exports need, from None.  No step
    writes either array in place, so ``mo_raw`` keeps the unrotated field
    for as long as it is held.  ``classify``'s boundary test reads it before
    the rotation; the rotation keeps every boundary verdict, so nothing in
    the pipeline reads it after ``classify``, and ``analyze`` goes on with a
    copy of the set whose ``mo_raw`` is None (only the probe of
    ``perfbench/chain.py``, which builds its own set, reads it later).
    """

    grid: Grid
    f1: np.ndarray
    f2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    mo_raw: Optional[np.ndarray]
    mo: np.ndarray
    zero_tol: float
    div_descent: Optional[np.ndarray] = None


def check_tolerance(name: str, value: float) -> None:
    """Raise ValueError unless a tolerance is finite and non-negative."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def absolute_tolerance(name: str, rel: float, scale_name: str,
                       scale: float) -> float:
    """``rel * scale``, or ValueError naming both factors if that overflows."""
    tol = float(rel) * scale
    if not math.isfinite(tol):
        raise ValueError(f"{name} {rel!r} times the {scale_name} {scale!r} "
                         f"overflows")
    return tol


def build_fieldset(problem, grid: Grid, zero_tol_rel: float = ZERO_TOL_REL,
                   workers: int = 1) -> FieldSet:
    """Evaluate a problem on a grid and derive all first-order fields.

    ``zero_tol_rel`` is relative to the gradient scale, the pooled mean
    norm 0.5 * (mean ||g1|| + mean ||g2||), taken over the whole grid's
    norm arrays.  The stencils, the norms and ``_unit_sum`` run per block
    of ``row_blocks`` rows (the stencils with a halo row) through
    ``map_blocks``, with the same expressions on each element as on the
    whole grid, so the fields do not depend on the block size or the
    thread count.  ``workers`` is ignored: ``perfbench/chain.py`` still
    passes it.

    Raises:
        ValueError: ``zero_tol_rel`` is negative, infinite or NaN, or its
            product with the gradient scale overflows.
        EvaluationError: an objective, a finite-difference gradient or its
            norm is NaN or infinite, or the gradient scale overflows.
    """
    check_tolerance("zero_tol_rel", zero_tol_rel)
    f1, f2 = evaluate_grid(problem, grid)
    g1, g2 = np.empty(grid.shape + (2,)), np.empty(grid.shape + (2,))
    n1, n2 = np.empty(grid.shape), np.empty(grid.shape)

    def first_order(rows: slice):
        with np.errstate(over="ignore"):
            for f, g, n in ((f1, g1, n1), (f2, g2, n2)):
                _gradient_rows(f, grid, rows, g[rows])
                n[rows] = gradient_norms(g[rows])

    map_blocks(first_order, row_blocks(grid.n1))
    with np.errstate(over="ignore"):
        scale = float(0.5 * (n1.mean() + n2.mean()))
    check_finite(problem, grid, (("gradient of f1", g1), ("gradient of f2", g2),
                                 ("gradient norm of f1", n1),
                                 ("gradient norm of f2", n2)))
    if not math.isfinite(scale):
        raise EvaluationError(f"problem {problem.name!r}: gradient scale overflows")
    zero_tol = absolute_tolerance("zero_tol_rel", zero_tol_rel,
                                  "gradient scale", scale)
    mo = np.empty(grid.shape + (2,))

    def unit_sum(rows: slice):
        mo[rows] = _unit_sum(g1[rows], g2[rows], n1[rows], n2[rows], zero_tol)

    map_blocks(unit_sum, row_blocks(grid.n1))
    return FieldSet(grid=grid, f1=f1, f2=f2, g1=g1, g2=g2,
                    mo_raw=mo, mo=mo, zero_tol=zero_tol)


def export_fields_csv(path, fields: FieldSet) -> None:
    """CSV dump of the gradient fields: one row per grid point, j1 fastest.

    Columns: j1,j2,x1,x2,g1x,g1y,g2x,g2y,mox,moy,div  (mo = rotated field,
    div = divergence of the descent field -mo: both set by ``classify``).
    """
    export_grid_csv(
        path, fields.grid,
        ["g1x", "g1y", "g2x", "g2y", "mox", "moy", "div"],
        [fields.g1[..., 0], fields.g1[..., 1],
         fields.g2[..., 0], fields.g2[..., 1],
         fields.mo[..., 0], fields.mo[..., 1], fields.div_descent])
