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
from functools import partial
from typing import Optional

import numpy as np

from .grid import (EvaluationError, Grid, check_finite, evaluate_grid,
                   export_grid_csv, fill_blocks, map_blocks, row_blocks,
                   with_halo)

# default zero-gradient tolerance, relative to the gradient scale
ZERO_TOL_REL = 1e-12


def gradient_rows(grid: Grid, rows: slice, *values) -> list:
    """The gradient field of each scalar grid field of ``values`` at grid
    rows ``rows`` (clipped at n1), a new (len(rows), n2, 2) array each,
    computed from those rows and a halo row on each side.

    numpy's stencil, which ``_divergence_rows`` uses too: (f[i+1] -
    f[i-1]) / 2s inside, (f[1] - f[0]) / s and (f[-1] - f[-2]) / s on the
    boundary, so every element gets the expression it gets on the whole
    grid.  No stage stores a gradient field: each computes the rows it
    reads here.
    """
    slab, inner = with_halo(rows, grid.n1)
    return [np.stack([np.gradient(f[slab], grid.s1, axis=0)[inner],
                      np.gradient(f[rows], grid.s2, axis=1)], axis=-1)
            for f in values]


def _column_derivative(f: np.ndarray, grid: Grid, axis: int,
                       js: slice) -> np.ndarray:
    """The derivative along ``axis`` of a scalar grid field ``f`` at grid
    columns ``js`` (clipped at n2), a new (n1, len(js)) array: the column
    twin of ``gradient_rows``, with its stencil.  Along axis 0 it reads all
    n1 rows of those columns, along axis 1 those columns and a halo column
    on each side, so every element gets the expression it gets on the whole
    grid."""
    if axis == 0:
        return np.gradient(f[:, js], grid.s1, axis=0)
    slab, inner = with_halo(js, grid.n2)
    return np.gradient(f[:, slab], grid.s2, axis=1)[:, inner]


def gradient_norms(g: np.ndarray) -> np.ndarray:
    return np.hypot(g[..., 0], g[..., 1])


def _is_zero(norms: np.ndarray, zero_tol: float) -> np.ndarray:
    """The one zero-gradient rule: a norm below ``zero_tol`` or exactly 0."""
    return (norms <= 0.0) | (norms < zero_tol)


def _unit_sum(g1, g2, zero_tol: float):
    """(mo, zero): the sum of the normalised single-objective gradients g1
    and g2, and the mask of the zero rule.

    Points where either gradient norm is below ``zero_tol`` (or exactly
    zero) are set in ``zero`` and get the zero vector: a vanishing
    single-objective gradient means the point is critical on its own and no
    direction of joint ascent is defined there.
    """
    n1, n2 = gradient_norms(g1), gradient_norms(g2)
    zero = _is_zero(n1, zero_tol) | _is_zero(n2, zero_tol)
    n1[zero] = 1.0
    n2[zero] = 1.0
    mo = g1 / n1[..., None]
    mo += g2 / n2[..., None]
    mo[zero] = 0.0
    return mo, zero


def _divergence_rows(v: np.ndarray, grid: Grid, rows: slice) -> np.ndarray:
    """A new array of the divergence of a vector field at grid rows
    ``rows``, from those rows and a halo row on each side, with the stencil
    of ``gradient_rows``: every element gets the expression it gets on the
    whole grid.  No whole-grid divergence is built: ``classify`` and the
    critical-points JSON compute it per block of ``row_blocks`` rows."""
    slab, inner = with_halo(rows, grid.n1)
    return (np.gradient(v[slab, :, 0], grid.s1, axis=0)[inner]
            + np.gradient(v[rows, :, 1], grid.s2, axis=1))


@dataclass
class FieldSet:
    """All per-grid-point fields the detection pipeline works on.

    ``build_fieldset`` sets ``f1``, ``f2`` and ``zero_tol``.  No gradient
    field is stored: the stages that read gradients compute the rows they
    need from ``f1`` and ``f2`` with ``gradient_rows``.  ``classify`` sets
    ``mo``, the joint ascent field with its normal components removed where
    descent would leave the box, which starts as None.  No divergence of
    the descent field is stored or built whole either: each reader
    computes the rows or columns it needs from ``mo``.  No step writes an
    array of the set in place.  ``analyze`` goes on after
    ``decompose_efficient_set`` with a copy of the set whose ``f1`` and
    ``f2`` are None unless its mode reads them again.

    ``g1``, ``g2`` and ``mo_raw`` build a new whole-grid array on each read,
    per block of ``row_blocks`` rows through ``fill_blocks``; every
    expression is the one the stages evaluate per block, so the bytes do not
    depend on the block size or the thread count.  No stage and no export
    reads them: the critical-mode field export computes the j2 columns it
    formats from ``f1``, ``f2`` and ``mo`` (``export_fields_csv``), and only
    the probes of ``perfbench/chain.py`` and the tests read these
    properties.
    """

    grid: Grid
    f1: Optional[np.ndarray]
    f2: Optional[np.ndarray]
    zero_tol: float
    mo: Optional[np.ndarray] = None

    @property
    def g1(self) -> np.ndarray:
        """A new array of the gradient field of ``f1``."""
        return fill_blocks(self.grid.shape + (2,), lambda rows: gradient_rows(
            self.grid, rows, self.f1)[0])

    @property
    def g2(self) -> np.ndarray:
        """A new array of the gradient field of ``f2``."""
        return fill_blocks(self.grid.shape + (2,), lambda rows: gradient_rows(
            self.grid, rows, self.f2)[0])

    @property
    def mo_raw(self) -> np.ndarray:
        """A new array of the unrotated joint ascent field, the unit sum of
        the gradients of ``f1`` and ``f2``: the bytes that ``classify``'s
        first-order blocks write into the ``mo`` it starts from."""
        return fill_blocks(self.grid.shape + (2,), lambda rows: _unit_sum(
            *gradient_rows(self.grid, rows, self.f1, self.f2),
            self.zero_tol)[0])


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
    """Evaluate a problem on a grid and derive its zero-gradient tolerance.

    Sets ``f1``, ``f2`` and ``zero_tol``; the joint field ``mo`` is built by
    ``classify``.  ``zero_tol_rel`` is relative to the gradient scale, the
    pooled mean norm 0.5 * (mean ||g1|| + mean ||g2||), taken over the
    whole grid's norm arrays.  Each block of ``row_blocks`` rows computes
    its gradients with ``gradient_rows`` only to write its rows of the two
    norm arrays, through ``map_blocks``, and keeps its gradients and norms
    for the finite checks only if one of them is not finite.  The norm
    arrays are dropped once the scale is taken, so no gradient field and
    no norm field outlives this call.  The elementwise expressions are
    those of the whole grid, so ``zero_tol`` does not depend on the block
    size or the thread count.  ``workers`` is ignored:
    ``perfbench/chain.py`` still passes it.

    Raises:
        ValueError: ``zero_tol_rel`` is negative, infinite or NaN, or its
            product with the gradient scale overflows.
        EvaluationError: an objective, a finite-difference gradient or its
            norm is NaN or infinite, or the gradient scale overflows.  The
            error names the first such point in the order of the checks:
            the gradient of f1, of f2, the norm of the gradient of f1, of
            f2, each in scan order, by its index in the whole grid.
    """
    check_tolerance("zero_tol_rel", zero_tol_rel)
    f1, f2 = evaluate_grid(problem, grid)
    n1, n2 = np.empty(grid.shape), np.empty(grid.shape)

    def first_order(rows: slice):
        with np.errstate(over="ignore"):
            g = gradient_rows(grid, rows, f1, f2)
            n1[rows], n2[rows] = map(gradient_norms, g)
        checked = (*g, n1[rows], n2[rows])
        return None if all(np.isfinite(a).all() for a in checked) else checked

    blocks = row_blocks(grid.n1)
    per_block = map_blocks(first_order, blocks)
    for k, name in enumerate(("gradient of f1", "gradient of f2",
                              "gradient norm of f1", "gradient norm of f2")):
        for rows, checked in zip(blocks, per_block):
            if checked is not None:
                check_finite(problem, grid, ((name, checked[k]),), rows.start)
    with np.errstate(over="ignore"):
        scale = float(0.5 * (n1.mean() + n2.mean()))
    if not math.isfinite(scale):
        raise EvaluationError(f"problem {problem.name!r}: gradient scale overflows")
    zero_tol = absolute_tolerance("zero_tol_rel", zero_tol_rel,
                                  "gradient scale", scale)
    return FieldSet(grid=grid, f1=f1, f2=f2, zero_tol=zero_tol)


def export_fields_csv(path, fields: FieldSet) -> None:
    """CSV dump of the gradient fields: one row per grid point, j1 fastest.

    Columns: j1,j2,x1,x2,g1x,g1y,g2x,g2y,mox,moy,div  (mo = rotated field,
    div = divergence of the descent field -mo: both follow from
    ``classify``).  No whole-grid gradient or divergence field is built:
    each gradient and ``div`` column is a function of a slice of j2 columns
    that computes those columns from ``f1``, ``f2`` or ``mo`` with
    ``_column_derivative``, in the operand order of ``_divergence_rows``,
    so every byte is the one the whole-grid ``g1`` and ``g2`` and the
    per-block divergence of ``classify`` give.
    """
    grid, mo = fields.grid, fields.mo
    columns = [partial(_column_derivative, f, grid, axis)
               for f in (fields.f1, fields.f2) for axis in (0, 1)]
    export_grid_csv(
        path, grid, ["g1x", "g1y", "g2x", "g2y", "mox", "moy", "div"],
        columns + [mo[..., 0], mo[..., 1], lambda js: -(
            _column_derivative(mo[..., 0], grid, 0, js)
            + _column_derivative(mo[..., 1], grid, 1, js))])
