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
                   export_grid_csv, fill_blocks, map_blocks, row_blocks,
                   with_halo)

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
    of ``_gradient_rows``."""
    slab, inner = with_halo(rows, grid.n1)
    return (np.gradient(v[slab, :, 0], grid.s1, axis=0)[inner]
            + np.gradient(v[rows, :, 1], grid.s2, axis=1))


def divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a vector field, same stencils as the gradients,
    computed per block of ``row_blocks`` rows with a halo row by
    ``fill_blocks``."""
    if v.shape != grid.shape + (2,):
        raise ValueError(f"vector field shape {v.shape} does not match grid {grid.shape}")
    return fill_blocks(grid.shape, lambda rows: _divergence_rows(v, grid, rows))


@dataclass
class FieldSet:
    """All per-grid-point fields the detection pipeline works on.

    ``build_fieldset`` sets ``f1``, ``f2``, ``g1``, ``g2`` and ``zero_tol``.
    ``classify`` sets ``mo``, the joint ascent field with its normal
    components removed where descent would leave the box, which starts as
    None.  The divergence of the descent field, ``div_descent``, is not
    stored: it is computed from ``mo`` on each read.  No step writes an
    array of the set in place.  ``analyze`` goes on after ``classify`` with
    a copy of the set whose ``g1`` and ``g2`` are None unless its mode
    exports them.
    """

    grid: Grid
    f1: np.ndarray
    f2: np.ndarray
    g1: Optional[np.ndarray]
    g2: Optional[np.ndarray]
    zero_tol: float
    mo: Optional[np.ndarray] = None

    @property
    def div_descent(self) -> Optional[np.ndarray]:
        """None while ``mo`` is None, else a new array of div(-mo), built per
        block by ``divergence``: the bytes ``classify`` tests, which only the
        critical-mode exports need for the whole grid."""
        if self.mo is None:
            return None
        div = divergence(self.mo, self.grid)
        return np.negative(div, out=div)

    @property
    def mo_raw(self) -> np.ndarray:
        """A new array of the unrotated joint ascent field, the unit sum of
        ``g1`` and ``g2``, built per block of ``row_blocks`` rows through
        ``fill_blocks``; the norms and ``_unit_sum`` are elementwise, so its
        bytes do not depend on the block size or the thread count.  These
        are the bytes that ``classify``'s first-order blocks write into the
        ``mo`` it starts from; only the boundary probe of
        ``perfbench/chain.py`` and the tests read this property."""
        return fill_blocks(self.grid.shape + (2,), lambda rows: _unit_sum(
            self.g1[rows], self.g2[rows], self.zero_tol)[0])


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
    """Evaluate a problem on a grid and derive its gradient fields.

    Sets ``f1``, ``f2``, ``g1``, ``g2`` and ``zero_tol``; the joint field
    ``mo`` is built by ``classify``.  ``zero_tol_rel`` is relative to the
    gradient scale, the pooled mean norm 0.5 * (mean ||g1|| + mean ||g2||),
    taken over the whole grid's norm arrays, which are dropped once the
    scale and the finite checks are done.  The stencils and the norms run
    per block of ``row_blocks`` rows (the stencils with a halo row) through
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
    return FieldSet(grid=grid, f1=f1, f2=f2, g1=g1, g2=g2, zero_tol=zero_tol)


def export_fields_csv(path, fields: FieldSet) -> None:
    """CSV dump of the gradient fields: one row per grid point, j1 fastest.

    Columns: j1,j2,x1,x2,g1x,g1y,g2x,g2y,mox,moy,div  (mo = rotated field,
    div = divergence of the descent field -mo, read once: both follow
    from ``classify``).
    """
    export_grid_csv(
        path, fields.grid,
        ["g1x", "g1y", "g2x", "g2y", "mox", "moy", "div"],
        [fields.g1[..., 0], fields.g1[..., 1],
         fields.g2[..., 0], fields.g2[..., 1],
         fields.mo[..., 0], fields.mo[..., 1], fields.div_descent])
