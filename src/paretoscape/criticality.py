"""First- and second-order criticality classification of grid points.

The detector walks the grid in overlapping right triangles (each point with
a horizontal and a vertical neighbour, in all four diagonal orientations)
and flags a triangle as critical when the convex hull of the six
single-objective gradients at its corners contains the origin — the
discrete counterpart of the first-order efficiency condition, robust to the
efficient set passing between grid points.

Criticality of a hull is decided by one angular-gap kernel, shared by the
scalar ``origin_in_hull`` and the grid-wide ``interior_criticality``: sort the
gradient directions, and the origin lies in the hull iff no open half-plane
contains all of them, i.e. the largest angular gap between consecutive
directions is at most pi (ties at exactly pi count as enclosing, so exactly
opposed gradients register).  Any (numerically) zero gradient, by the one
rule in ``gradients``, makes the hull trivially enclosing.

A second-order condition separates locally efficient points from ridge/
saddle criticality: a critical triangle survives only if the divergence of
the joint descent field -mo is non-positive (up to div_tol) at all three
corners.  Boundary points get the analogous treatment along each box edge
(tangential first-order test on point pairs, outward-descent second-order
test; one table of the four box edges drives both), and finally any
efficient-labelled point strictly dominated by one of its eight grid
neighbours is demoted — the neighbourhood definition of local efficiency
applied at the resolution the grid can support.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .gradients import (FieldSet, _is_zero, check_tolerance, divergence,
                        gradient_norms)
from .grid import Grid


class PointClass(IntEnum):
    NON_CRITICAL = 0
    CRITICAL_ONLY = 1
    EFFICIENT_INTERIOR = 2
    EFFICIENT_BOUNDARY = 3


CLASS_NAMES = {
    PointClass.NON_CRITICAL: "NonCritical",
    PointClass.CRITICAL_ONLY: "CriticalOnly",
    PointClass.EFFICIENT_INTERIOR: "LocallyEfficientInterior",
    PointClass.EFFICIENT_BOUNDARY: "LocallyEfficientBoundary",
}

# four diagonal orientations of the (anchor, horizontal, vertical) triangle
ORIENTATIONS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# descent-path neighbour offsets, fixed order (ties resolved to the first)
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def _gap_encloses(angles: np.ndarray, zero) -> np.ndarray:
    """Angular-gap test over the last axis of ``angles`` (sorted in place).

    True where ``zero`` is set or the largest gap between consecutive
    directions, the wrap-around gap included, is at most pi (ties enclosing):
    then no open half-plane contains all vectors, so the origin is enclosed.
    """
    angles.sort(axis=-1)
    gaps = np.diff(angles, axis=-1).max(axis=-1, initial=0.0)
    wrap = angles[..., 0] + 2.0 * np.pi - angles[..., -1]
    return zero | (np.maximum(gaps, wrap) <= np.pi)


def origin_in_hull(vectors, zero_tol: float = 0.0) -> bool:
    """True iff the origin lies in the convex hull of the given 2-D vectors.

    Any vector with norm below ``zero_tol`` (or exactly zero) makes the
    answer True; otherwise the angular-gap test decides.
    """
    vs = np.asarray(vectors, dtype=float).reshape(-1, 2)
    if vs.shape[0] == 0:
        raise ValueError("origin_in_hull requires at least one vector")
    zero = _is_zero(gradient_norms(vs), zero_tol).any()
    return bool(_gap_encloses(np.arctan2(vs[:, 1], vs[:, 0]), zero))


def pair_slices(d: int):
    """(source, shifted) slices pairing index i with i+d along one axis."""
    if d == 1:
        return slice(0, -1), slice(1, None)
    if d == -1:
        return slice(1, None), slice(0, -1)
    return slice(None), slice(None)


def interior_criticality(g1: np.ndarray, g2: np.ndarray, grid: Grid,
                         zero_tol: float = 0.0):
    """First-order test over all triangle neighbourhoods.

    Returns:
        triangles: int32 array (T, 4), rows (i, j, di, dj) meaning corners
            (i, j), (i+di, j), (i, j+dj) — only critical triangles listed.
        crit_mask: (n1, n2) bool, True at every corner of a critical triangle.
    """
    ang1 = np.arctan2(g1[..., 1], g1[..., 0])
    ang2 = np.arctan2(g2[..., 1], g2[..., 0])
    zero = (_is_zero(gradient_norms(g1), zero_tol)
            | _is_zero(gradient_norms(g2), zero_tol))

    crit_mask = np.zeros(grid.shape, dtype=bool)
    tri_rows = []
    for di, dj in ORIENTATIONS:
        ai, hi = pair_slices(di)
        aj, vj = pair_slices(dj)
        angles = np.stack(
            [ang1[ai, aj], ang1[hi, aj], ang1[ai, vj],
             ang2[ai, aj], ang2[hi, aj], ang2[ai, vj]], axis=-1)
        crit = _gap_encloses(
            angles, zero[ai, aj] | zero[hi, aj] | zero[ai, vj])

        crit_mask[ai, aj] |= crit
        crit_mask[hi, aj] |= crit
        crit_mask[ai, vj] |= crit

        idx = np.argwhere(crit)
        if idx.size:
            rows = np.empty((idx.shape[0], 4), dtype=np.int32)
            rows[:, 0] = idx[:, 0] + (1 if di == -1 else 0)
            rows[:, 1] = idx[:, 1] + (1 if dj == -1 else 0)
            rows[:, 2] = di
            rows[:, 3] = dj
            tri_rows.append(rows)
    triangles = (np.concatenate(tri_rows, axis=0) if tri_rows
                 else np.empty((0, 4), dtype=np.int32))
    return triangles, crit_mask


def triangle_corners(triangles: np.ndarray):
    """Corner index arrays (i, j) of shape (T, 3) each."""
    i, j, di, dj = (triangles[:, k] for k in range(4))
    ci = np.stack([i, i + di, i], axis=1)
    cj = np.stack([j, j, j + dj], axis=1)
    return ci, cj


def triangle_second_order(triangles: np.ndarray, div_descent: np.ndarray,
                          div_tol: float) -> np.ndarray:
    """Efficiency flags for critical triangles.

    A triangle is locally efficient iff div(-mo) <= div_tol at all three
    corners; otherwise the triangle sits on a ridge or repelling structure.
    """
    if triangles.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    ci, cj = triangle_corners(triangles)
    ok = div_descent[ci, cj] <= div_tol
    return ok.all(axis=1)


# box edges in edge-id order bottom (j2=1), top (j2=n2), left (j1=1), right
# (j1=n1): the edge's fixed grid index, its tangential axis, and the sign of
# the outward normal, which lies along the other axis
_EDGES = ((0, 0, -1.0), (-1, 0, 1.0), (0, 1, -1.0), (-1, 1, 1.0))


def boundary_criticality(g1: np.ndarray, g2: np.ndarray, mo_raw: np.ndarray,
                         grid: Grid):
    """First- and second-order tests for adjacent point pairs on box edges.

    A pair is *critical* iff no tangential direction is a strict common
    descent direction for both objectives at both points.  A critical pair
    is *efficient* iff the joint descent direction -mo points outward or
    along the boundary (mo . n_out <= 0) at both points, i.e. descent cannot
    re-enter the box.

    Returns:
        pairs: int32 (M, 5) rows (i_p, j_p, i_q, j_q, edge_id)
        pair_critical: bool (M,)
        pair_efficient: bool (M,)  (implies critical)
        crit_mask: (n1, n2) bool, endpoints of critical pairs
    """
    pairs, crit, eff = [], [], []
    crit_mask = np.zeros(grid.shape, dtype=bool)
    for edge_id, (fixed, t, n_sign) in enumerate(_EDGES):
        line = (slice(None), fixed) if t == 0 else (fixed, slice(None))
        d1 = g1[line][:, t]
        d2 = g2[line][:, t]
        mo_out = n_sign * mo_raw[line][:, 1 - t]
        plus = (d1[:-1] < 0) & (d2[:-1] < 0) & (d1[1:] < 0) & (d2[1:] < 0)
        minus = (d1[:-1] > 0) & (d2[:-1] > 0) & (d1[1:] > 0) & (d2[1:] > 0)
        c = ~(plus | minus)
        crit.append(c)
        eff.append(c & (mo_out[:-1] <= 0.0) & (mo_out[1:] <= 0.0))

        rows = np.empty((c.size, 5), dtype=np.int32)
        rows[:, t] = np.arange(c.size)
        rows[:, 2 + t] = rows[:, t] + 1
        rows[:, [1 - t, 3 - t]] = fixed % grid.shape[1 - t]
        rows[:, 4] = edge_id
        pairs.append(rows)
        m = crit_mask[line]
        m[:-1] |= c
        m[1:] |= c

    return (np.concatenate(pairs, axis=0),
            np.concatenate(crit), np.concatenate(eff), crit_mask)


def rotate_boundary_field(mo_raw: np.ndarray, skip_mask: np.ndarray,
                          grid: Grid) -> np.ndarray:
    """Project the joint gradient onto box edges where descent would exit.

    At a non-critical boundary point whose descent direction -mo leaves the
    box (mo . n_out < 0), the normal component is removed so descent paths
    slide along the boundary instead of stopping against it.  Corners are
    covered by applying both incident edges.  Points in ``skip_mask``
    (first-order critical) keep their field.
    """
    mo = mo_raw.copy()
    for fixed, t, n_sign in _EDGES:
        line = (slice(None), fixed) if t == 0 else (fixed, slice(None))
        edge = mo[line]
        exits = ~skip_mask[line] & (n_sign * edge[:, 1 - t] < 0.0)
        edge[exits, 1 - t] = 0.0
    return mo


def neighbor_dominated_mask(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """True where some 8-neighbour strictly dominates the point."""
    dom = np.zeros(f1.shape, dtype=bool)
    for di, dj in NEIGHBOR_OFFSETS:
        ai, bi = pair_slices(di)
        aj, bj = pair_slices(dj)
        a1, a2 = f1[ai, aj], f2[ai, aj]
        b1, b2 = f1[bi, bj], f2[bi, bj]
        dom[ai, aj] |= (b1 <= a1) & (b2 <= a2) & ((b1 < a1) | (b2 < a2))
    return dom


@dataclass
class CriticalityMap:
    """Full classification of a grid, with the evidence that produced it."""

    grid: Grid
    labels: np.ndarray              # (n1, n2) uint8 of PointClass values
    triangles: np.ndarray           # (T, 4) critical triangles (i, j, di, dj)
    triangle_efficient: np.ndarray  # (T,) bool, second-order flags
    pairs: np.ndarray               # (M, 5) boundary pairs (+ edge id)
    pair_critical: np.ndarray       # (M,) bool
    pair_efficient: np.ndarray      # (M,) bool
    div_tol: float
    zero_tol: float
    n_trimmed: int = 0              # efficient points demoted by the trim

    @property
    def efficient_mask(self) -> np.ndarray:
        return self.labels >= PointClass.EFFICIENT_INTERIOR

    @property
    def critical_mask(self) -> np.ndarray:
        return self.labels >= PointClass.CRITICAL_ONLY

    @property
    def critical_only_mask(self) -> np.ndarray:
        return self.labels == PointClass.CRITICAL_ONLY

    def counts(self) -> dict:
        u, c = np.unique(self.labels, return_counts=True)
        by = {int(k): 0 for k in PointClass}
        by.update({int(k): int(v) for k, v in zip(u, c)})
        return {CLASS_NAMES[PointClass(k)]: v for k, v in by.items()}


def classify(fields: FieldSet, div_tol_rel: float = 1e-9) -> CriticalityMap:
    """Run the full first/second-order classification.

    Mutates ``fields``: ``fields.mo`` becomes the boundary-rotated field and
    ``fields.div_descent`` the divergence of its negation.  The absolute
    divergence tolerance is ``div_tol_rel * max|div|``.

    Raises:
        ValueError: ``div_tol_rel`` is negative, infinite or NaN.
    """
    check_tolerance("div_tol_rel", div_tol_rel)
    grid = fields.grid
    triangles, interior_mask = interior_criticality(
        fields.g1, fields.g2, grid, fields.zero_tol)
    pairs, pair_crit, pair_eff, boundary_mask = boundary_criticality(
        fields.g1, fields.g2, fields.mo_raw, grid)
    first_order = interior_mask | boundary_mask

    fields.mo = rotate_boundary_field(fields.mo_raw, first_order, grid)
    fields.div_descent = -divergence(fields.mo, grid)
    div_tol = div_tol_rel * float(np.abs(fields.div_descent).max(initial=0.0))

    tri_eff = triangle_second_order(triangles, fields.div_descent, div_tol)

    labels = np.zeros(grid.shape, dtype=np.uint8)
    labels[first_order] = PointClass.CRITICAL_ONLY
    if triangles.shape[0]:
        ci, cj = triangle_corners(triangles[tri_eff])
        labels[ci.ravel(), cj.ravel()] = PointClass.EFFICIENT_INTERIOR
    eff_pairs = pairs[pair_eff]
    if eff_pairs.shape[0]:
        labels[eff_pairs[:, 0], eff_pairs[:, 1]] = PointClass.EFFICIENT_BOUNDARY
        labels[eff_pairs[:, 2], eff_pairs[:, 3]] = PointClass.EFFICIENT_BOUNDARY

    eff = labels >= PointClass.EFFICIENT_INTERIOR
    demote = eff & neighbor_dominated_mask(fields.f1, fields.f2)
    labels[demote] = PointClass.CRITICAL_ONLY

    return CriticalityMap(
        grid=grid, labels=labels,
        triangles=triangles, triangle_efficient=tri_eff,
        pairs=pairs, pair_critical=pair_crit, pair_efficient=pair_eff,
        div_tol=div_tol, zero_tol=fields.zero_tol,
        n_trimmed=int(demote.sum()),
    )


def export_critical_points_json(path, critmap: CriticalityMap,
                                fields: FieldSet) -> None:
    """JSON array of every critical point (j1 fastest ordering).

    Each entry: {"j1","j2","x1","x2","class","div","f1","f2"} with 1-based
    grid indices and the class name string.
    """
    grid = critmap.grid
    j, i = np.nonzero(critmap.labels.T)     # j2 outer, j1 inner
    div = fields.div_descent
    divs = div[i, j].tolist() if div is not None else [None] * i.size
    records = [
        {"j1": a + 1, "j2": b + 1, "x1": x1, "x2": x2,
         "class": CLASS_NAMES[lab], "div": d, "f1": v1, "f2": v2}
        for a, b, x1, x2, lab, d, v1, v2 in zip(
            i.tolist(), j.tolist(), grid.x1[i].tolist(), grid.x2[j].tolist(),
            critmap.labels[i, j].tolist(), divs,
            fields.f1[i, j].tolist(), fields.f2[i, j].tolist())
    ]
    with open(path, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
