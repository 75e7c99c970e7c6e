"""First- and second-order criticality classification of grid points.

The detector walks the grid in overlapping right triangles (each point with
a horizontal and a vertical neighbour, in all four diagonal orientations)
and flags a triangle as critical when the convex hull of the six
single-objective gradients at its corners contains the origin — the
discrete counterpart of the first-order efficiency condition, robust to the
efficient set passing between grid points.

Criticality of a hull is decided by one exact predicate, shared by the
scalar ``origin_in_hull`` and the grid-wide ``interior_criticality``: the
origin lies outside the hull iff some vector has every other one strictly
counter-clockwise of it within a half-turn (cross > 0) or along it (cross
== 0 and dot > 0), i.e. iff an open half-plane contains them all, so exactly
opposed gradients register.  Each cross and dot sign is exact (Shewchuk's
robust orientation predicates): unequal rounded products decide it, and
only equal ones are compared through exact two-product error terms.  On
the grid a cheap certificate clears most cells first: if one direction has
a provably positive dot product with all eight gradients of a cell, none of
its four triangles encloses the origin.  Any (numerically) zero gradient,
by the one rule in ``gradients``, makes the hull trivially enclosing.

A second-order condition separates locally efficient points from ridge/
saddle criticality: a critical triangle survives only if the divergence of
the joint descent field -mo is non-positive (up to div_tol) at all three
corners.  Boundary points get the analogous treatment along each box edge
(tangential first-order test on point pairs, outward-descent second-order
test; one table of the four box edges drives both), and finally any
efficient-labelled point strictly dominated by one of its eight grid
neighbours is demoted — the neighbourhood definition of local efficiency
applied at the resolution the grid can support.

The interior test, the divergence and the dominance trim run per block of
grid rows on all usable CPUs (``grid.map_blocks``), the stencils with a
halo row, and the trim over the 8-neighbour pairs of ``neighbor_pairs``,
the walk that the descent of ``landscape.gfh_heights`` also takes; the
labels do not depend on the block size or the thread count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .gradients import (FieldSet, _divergence_rows, _is_zero, _unit_sum,
                        absolute_tolerance, check_tolerance, gradient_norms,
                        gradient_rows)
from .grid import CSV_BLOCK_ROWS, EvaluationError, Grid, map_blocks, row_blocks

# default divergence tolerance, relative to the largest divergence
DIV_TOL_REL = 1e-9


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

# 8-neighbour offsets, fixed order (descent ties resolved to the first);
# offset 7 - k is the opposite of offset k
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def neighbor_pairs(rows: slice, n1: int):
    """For each offset k of ``NEIGHBOR_OFFSETS``, in order, (k, a, b): ``a``
    the (row, column) slices of the points of grid rows ``rows`` whose
    neighbour at offset k lies on a grid of n1 rows, and ``b`` the slices
    of those neighbours, views of the same shape.  Over the blocks of
    ``row_blocks(n1)`` every in-grid ordered 8-neighbour pair appears once.
    """
    for k, (di, dj) in enumerate(NEIGHBOR_OFFSETS):
        lo, hi = max(rows.start, -di), min(rows.stop, n1 - di)
        aj, bj = (slice(0, -1), slice(1, None))[::dj] if dj else (slice(None),) * 2
        yield k, (slice(lo, hi), aj), (slice(lo + di, hi + di), bj)


def _two_product(a: np.ndarray, b: np.ndarray):
    """(p, e) with p the rounded a*b and a*b == p + e exactly (Dekker's
    TwoProduct); exact for |a|, |b| < 1, where nothing over- or underflows."""
    p = a * b
    a1 = a * 134217729.0                # 2**27 + 1 splits 53 bits into 26 + 27
    a_hi = a1 - (a1 - a)
    a_lo = a - a_hi
    b1 = b * 134217729.0
    b_hi = b1 - (b1 - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _product_sign(a, b, c, d) -> np.ndarray:
    """Exact sign (int8 -1, 0 or 1) of a*b - c*d for finite float arrays.

    Rounding is monotone, so unequal rounded products already order the
    exact ones.  Ties (equal, or both overflowed to the same infinity) are
    broken exactly on the frexp mantissas, whose products neither over- nor
    underflow, and the exponent sums.
    """
    with np.errstate(over="ignore"):
        p, q = a * b, c * d
    sign = np.subtract(p > q, p < q, dtype=np.int8)
    tie = np.flatnonzero(sign == 0)
    if tie.size == 0:
        return sign
    (ma, ea), (mb, eb), (mc, ec), (md, ed) = (np.frexp(v[tie])
                                              for v in (a, b, c, d))
    p1, e1 = _two_product(ma, mb)
    p2, e2 = _two_product(mc, md)
    # both exact mantissa products are 0 or of magnitude in [1/4, 1), so an
    # exponent gap clipped to 4 still orders them
    shift = np.clip(ea + eb - ec - ed, -4, 4)
    p1, e1 = np.ldexp(p1, shift), np.ldexp(e1, shift)
    sign[tie] = np.where(p1 != p2, np.sign(p1 - p2), np.sign(e1 - e2))
    return sign


def _ahead(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact orientation table of K vectors per column, x and y of shape
    (K, M): a (K, K, M) bool array, True at [i, k] where vector k lies
    strictly counter-clockwise of vector i within a half-turn (cross > 0) or
    along it (cross == 0 and dot > 0), and on the diagonal."""
    k_vectors = x.shape[0]
    ahead = np.ones((k_vectors,) + x.shape, dtype=bool)
    for i, k in itertools.combinations(range(k_vectors), 2):
        cross = _product_sign(x[i], y[k], y[i], x[k])
        along = (cross == 0) & (_product_sign(x[i], x[k], -y[i], y[k]) > 0)
        ahead[i, k] = (cross > 0) | along
        ahead[k, i] = (cross < 0) | along
    return ahead


def _encloses(ahead: np.ndarray, zero) -> np.ndarray:
    """True where ``zero`` is set or no vector has all the others ahead of
    it; such a vector would put them all in an open half-plane, outside of
    which the origin lies."""
    return zero | ~ahead.all(axis=1).any(axis=0)


def origin_in_hull(vectors, zero_tol: float = 0.0) -> bool:
    """True iff the origin lies in the convex hull of the given 2-D vectors.

    Any vector with norm below ``zero_tol`` (or exactly zero) makes the
    answer True.  Otherwise the exact orientation test decides: the origin
    lies outside iff all vectors fit in an open half-plane, so exactly
    opposed vectors enclose it.  Vectors must be finite.
    """
    vs = np.asarray(vectors, dtype=float).reshape(-1, 2)
    if vs.shape[0] == 0:
        raise ValueError("origin_in_hull requires at least one vector")
    zero = _is_zero(gradient_norms(vs), zero_tol).any()
    return bool(_encloses(_ahead(vs[:, :1], vs[:, 1:]), zero)[0])


# offsets of the corners of the cell [i, i+1] x [j, j+1]; corner (oi, oj)
# is number oi + 2 * oj
_CELL_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))


def interior_criticality(g1: np.ndarray, g2: np.ndarray, grid: Grid,
                         zero_tol: float = 0.0):
    """First-order test over all triangle neighbourhoods of the gradient
    fields ``g1`` and ``g2``, (n1, n2, 2) arrays: ``_interior`` on their
    rows, writing no ``mo``."""
    return _interior(lambda p: (g1[p], g2[p]), grid, zero_tol, None)


def _interior(gradients, grid: Grid, zero_tol: float, mo):
    """First-order test over all triangle neighbourhoods.

    Each grid cell holds one triangle per orientation.  A cell whose eight
    gradients all have a provably positive dot product with its anchor's
    unit sum d = g1/|g1| + g2/|g2| (and no zero-rule corner) lies in an open
    half-plane, so none of its triangles is critical.  The other cells get
    the exact orientation test of ``origin_in_hull``, on their eight
    gradients.

    Both run per block of ``row_blocks`` point rows through ``map_blocks``;
    a block takes the gradients of its rows plus the next one (clipped at
    n1) from ``gradients(points)``, two (len(points), n2, 2) arrays, and
    tests the cells anchored in its rows.  Its one ``_unit_sum`` call gives
    the zero rule and the certificate's d, and, if ``mo`` is given, the
    block writes its rows of that unit sum into ``mo``, an (n1, n2, 2)
    float array, with the bytes of ``FieldSet.mo_raw``.  The temporaries
    grow with one block per thread; each element gets the same expressions
    as on the whole grid, so the result does not depend on the block size
    or the thread count.

    Returns:
        triangles: int32 array (T, 4), rows (i, j, di, dj) meaning corners
            (i, j), (i+di, j), (i, j+dj) — only critical triangles listed,
            orientation by orientation in ``ORIENTATIONS`` order, row-major.
        crit_mask: (n1, n2) bool, True at every corner of a critical triangle.
    """
    def block(rows: slice) -> list:
        # the critical triangles of the cells anchored in point rows ``rows``
        g1_rows, g2_rows = gradients(slice(rows.start, rows.stop + 1))
        d, zero = _unit_sum(g1_rows, g2_rows, zero_tol)
        if mo is not None:
            mo[rows] = d[:rows.stop - rows.start]
        ci, cj, cell_zero = _uncertified_cells(g1_rows, g2_rows, d, zero)
        corner_g = [g[ci + oi, cj + oj] for g in (g1_rows, g2_rows)
                    for oi, oj in _CELL_CORNERS]
        ahead = _ahead(  # vectors 0-3: g1 at corners 0-3, then g2
            np.stack([g[:, 0] for g in corner_g]),
            np.stack([g[:, 1] for g in corner_g]))
        found = []
        for di, dj in ORIENTATIONS:
            ai, aj = int(di < 0), int(dj < 0)
            corners = [ai + 2 * aj, ai + di + 2 * aj, ai + 2 * (aj + dj)]
            six = corners + [c + 4 for c in corners]
            crit = _encloses(ahead[np.ix_(six, six)],
                             cell_zero[corners].any(axis=0))
            rows_found = np.empty((int(crit.sum()), 4), dtype=np.int32)
            rows_found[:, 0] = ci[crit] + (rows.start + ai)
            rows_found[:, 1] = cj[crit] + aj
            rows_found[:, 2] = di
            rows_found[:, 3] = dj
            found.append(rows_found)
        return found

    per_block = map_blocks(block, row_blocks(grid.n1))
    triangles = np.concatenate([found[k] for k in range(len(ORIENTATIONS))
                                for found in per_block], axis=0)

    crit_mask = np.zeros(grid.shape, dtype=bool)
    for ci, cj in _corner_columns(triangles):
        crit_mask[ci, cj] = True
    return triangles, crit_mask


def _uncertified_cells(g1: np.ndarray, g2: np.ndarray, d: np.ndarray,
                       zero: np.ndarray):
    """Indices (ci, cj), within the slab, of the cells of the point rows
    ``g1`` and ``g2`` that the half-plane certificate does not clear, and
    the (4, len(ci)) zero-rule flags of their corners.

    ``d`` and ``zero`` are the slab's ``_unit_sum``, so no norm is taken
    here.  A cell is certified when its anchor's d has a positive dot
    product with all eight gradients and no corner is a zero-rule point.
    Off the zero rule, d is g1/|g1| + g2/|g2| to the bit; a zero-rule
    anchor, whose d is the zero vector, is never certified.
    """
    g1x, g1y, g2x, g2y = (g[..., c] for g in (g1, g2) for c in (0, 1))
    m, n2 = zero.shape

    # the certificate: fl(fl(a) + fl(b)) > 0 iff fl(a) > -fl(b), and as
    # rounding is monotone that proves a + b > 0 exactly
    dx, dy = d[:-1, :-1, 0], d[:-1, :-1, 1]
    certified = np.ones((m - 1, n2 - 1), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        dot, part = np.empty_like(dx), np.empty_like(dx)
        for oi, oj in _CELL_CORNERS:
            corner = np.s_[oi:m - 1 + oi, oj:n2 - 1 + oj]
            certified &= ~zero[corner]
            for gx, gy in ((g1x, g1y), (g2x, g2y)):
                np.multiply(dx, gx[corner], out=dot)
                dot += np.multiply(dy, gy[corner], out=part)
                certified &= dot > 0.0

    ci, cj = np.divmod(np.flatnonzero(~certified), n2 - 1)
    cell_zero = np.stack([zero[ci + oi, cj + oj] for oi, oj in _CELL_CORNERS])
    return ci, cj, cell_zero


def _corner_columns(triangles: np.ndarray):
    """The corners (i, j), (i+di, j) and (i, j+dj) of every triangle, one
    pair of (T,) index arrays per corner, each built only when it is
    reached, so that no (T, 3) index stack is held."""
    i, j, di, dj = (triangles[:, k] for k in range(4))
    yield i, j
    yield i + di, j
    yield i, j + dj


def triangle_corners(triangles: np.ndarray):
    """Corner index arrays (i, j) of shape (T, 3) each."""
    ci, cj = zip(*_corner_columns(triangles))
    return np.stack(ci, axis=1), np.stack(cj, axis=1)


def triangle_second_order(triangles: np.ndarray, attracting: np.ndarray):
    """Efficiency flags for critical triangles.

    A triangle is locally efficient iff div(-mo) <= div_tol at all three
    corners; otherwise the triangle sits on a ridge or repelling structure.
    ``attracting`` is the (n1, n2) bool mask of that condition, read only at
    the corners, one gather per corner.
    """
    efficient = np.ones(triangles.shape[0], dtype=bool)
    for corner in _corner_columns(triangles):
        efficient &= attracting[corner]
    return efficient


# box edges in edge-id order bottom (j2=1), top (j2=n2), left (j1=1), right
# (j1=n1): the edge's fixed grid index, its tangential axis, the sign of the
# outward normal, which lies along the other axis, and its grid line
_EDGES = ((0, 0, -1.0, np.s_[:, 0]), (-1, 0, 1.0, np.s_[:, -1]),
          (0, 1, -1.0, np.s_[0, :]), (-1, 1, 1.0, np.s_[-1, :]))


def boundary_criticality(g1: np.ndarray, g2: np.ndarray, mo_raw: np.ndarray,
                         grid: Grid):
    """``_boundary`` of the gradient fields ``g1`` and ``g2``, (n1, n2, 2)
    arrays, read along the edge lines."""
    return _boundary(lambda e, t: (g1[e][:, t], g2[e][:, t]), mo_raw, grid)


def _boundary(tangents, mo_raw: np.ndarray, grid: Grid):
    """First- and second-order tests for adjacent point pairs on box edges.

    A pair is *critical* iff no tangential direction is a strict common
    descent direction for both objectives at both points.  A critical pair
    is *efficient* iff the joint descent direction -mo points outward or
    along the boundary (mo . n_out <= 0) at both points, i.e. descent cannot
    re-enter the box.  ``tangents(line, t)`` gives the derivatives of f1
    and f2 along axis ``t`` at the points of the edge's grid ``line``.

    Returns:
        pairs: int32 (M, 5) rows (i_p, j_p, i_q, j_q, edge_id)
        pair_critical: bool (M,)
        pair_efficient: bool (M,)  (implies critical)
        crit_mask: (n1, n2) bool, endpoints of critical pairs
    """
    pairs, crit, eff = [], [], []
    crit_mask = np.zeros(grid.shape, dtype=bool)
    for edge_id, (fixed, t, n_sign, line) in enumerate(_EDGES):
        d1, d2 = tangents(line, t)
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


def rotate_boundary_field(mo: np.ndarray, skip_mask: np.ndarray) -> None:
    """Project the joint gradient onto box edges where descent would exit,
    in place.

    At a non-critical boundary point whose descent direction -mo leaves the
    box (mo . n_out < 0), the normal component is removed so descent paths
    slide along the boundary instead of stopping against it.  Corners are
    covered by applying both incident edges.  Points in ``skip_mask``
    (first-order critical) keep their field.  Only the four edge lines of
    ``mo`` are written; ``classify`` hands it the array it has just built.
    """
    for _, t, n_sign, line in _EDGES:
        edge = mo[line]
        exits = ~skip_mask[line] & (n_sign * edge[:, 1 - t] < 0.0)
        edge[exits, 1 - t] = 0.0


def neighbor_dominated_mask(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """True where some 8-neighbour strictly dominates the point.  Each
    block of ``row_blocks`` rows, through ``map_blocks``, ORs each
    ``neighbor_pairs`` comparison into its own rows of one mask."""
    dom = np.zeros(f1.shape, dtype=bool)

    def block(rows: slice):
        for _, a, b in neighbor_pairs(rows, f1.shape[0]):
            a1, a2, b1, b2 = f1[a], f2[a], f1[b], f2[b]
            dom[a] |= (b1 <= a1) & (b2 <= a2) & ((b1 < a1) | (b2 < a2))

    map_blocks(block, row_blocks(f1.shape[0]))
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
    n_trimmed: int = 0              # efficient points demoted by the trim

    @property
    def efficient_mask(self) -> np.ndarray:
        return self.labels >= PointClass.EFFICIENT_INTERIOR

    def counts(self) -> dict:
        c = np.bincount(self.labels.ravel(), minlength=len(PointClass))
        return {CLASS_NAMES[k]: int(c[k]) for k in PointClass}


def classify(fields: FieldSet,
             div_tol_rel: float = DIV_TOL_REL) -> CriticalityMap:
    """Run the full first/second-order classification.

    Sets ``fields.mo`` to the boundary-rotated joint field.  No gradient
    field is read or built: each block of the interior test computes the
    gradients of its point rows plus the next one from ``f1`` and ``f2``
    (``gradient_rows``, with its halo row), and writes the unit sum of
    those gradients into a new array as it tests its cells, one
    ``_unit_sum`` call per block giving each point's zero rule, certificate
    direction and field.  The boundary test takes the tangential
    derivatives of each edge from that edge's line of ``f1`` and ``f2``,
    with the same stencil, and reads the unrotated field from that array,
    which is then rotated in place on its edge lines; no array of
    ``fields`` is written.  The divergence of the descent field -mo is
    computed per block of ``row_blocks`` rows with a halo row, and only its
    block extremes and its values at the interior-critical points are
    kept: the absolute divergence tolerance is ``div_tol_rel * max|div|``,
    and the second-order test reads the mask of the interior-critical
    points whose value is at most that tolerance.

    Raises:
        ValueError: ``div_tol_rel`` is negative, infinite or NaN, or its
            product with max|div| overflows.
        EvaluationError: max|div| is NaN or infinite.
    """
    check_tolerance("div_tol_rel", div_tol_rel)
    grid, f1, f2 = fields.grid, fields.f1, fields.f2
    mo = np.empty(grid.shape + (2,))
    triangles, interior_mask = _interior(
        lambda points: gradient_rows(grid, points, f1, f2), grid,
        fields.zero_tol, mo)
    pairs, pair_crit, pair_eff, boundary_mask = _boundary(
        lambda line, t: [np.gradient(f[line], (grid.s1, grid.s2)[t])
                         for f in (f1, f2)], mo, grid)
    first_order = interior_mask | boundary_mask

    rotate_boundary_field(mo, first_order)
    fields.mo = mo

    def second_order(rows: slice):
        # each thread sets its own errstate; an overflow or a NaN here is
        # reported by the check on the largest magnitude below
        with np.errstate(over="ignore", invalid="ignore"):
            div = _divergence_rows(mo, grid, rows)
        np.negative(div, out=div)
        return (div.max(initial=0.0), -div.min(initial=0.0),
                div[interior_mask[rows]])

    per_block = map_blocks(second_order, row_blocks(grid.n1))
    # numpy's max, not Python's, so that a NaN is caught
    largest = float(np.max([block[:2] for block in per_block]))
    if not np.isfinite(largest):
        raise EvaluationError(f"the largest descent divergence is {largest!r}")
    div_tol = absolute_tolerance("div_tol_rel", div_tol_rel,
                                 "largest divergence", largest)
    # nothing reads interior_mask after first_order: its storage becomes the
    # mask of the points where div(-mo) <= div_tol, set at its True points
    # from the values that map_blocks returned in block order, so row-major
    interior_mask[interior_mask] = np.concatenate(
        [values <= div_tol for *_, values in per_block])
    tri_eff = triangle_second_order(triangles, interior_mask)

    labels = np.zeros(grid.shape, dtype=np.uint8)
    labels[first_order] = PointClass.CRITICAL_ONLY
    for ci, cj in _corner_columns(triangles[tri_eff]):
        labels[ci, cj] = PointClass.EFFICIENT_INTERIOR
    eff_pairs = pairs[pair_eff]
    labels[eff_pairs[:, 0], eff_pairs[:, 1]] = PointClass.EFFICIENT_BOUNDARY
    labels[eff_pairs[:, 2], eff_pairs[:, 3]] = PointClass.EFFICIENT_BOUNDARY

    eff = labels >= PointClass.EFFICIENT_INTERIOR
    demote = eff & neighbor_dominated_mask(f1, f2)
    labels[demote] = PointClass.CRITICAL_ONLY

    return CriticalityMap(
        grid=grid, labels=labels,
        triangles=triangles, triangle_efficient=tri_eff,
        pairs=pairs, pair_critical=pair_crit, pair_efficient=pair_eff,
        div_tol=div_tol,
        n_trimmed=int(demote.sum()),
    )


# one critical-points JSON record, laid out as json.dump(indent=1) does
_CRITICAL_JSON = (' {\n  "j1": %d,\n  "j2": %d,\n  "x1": %r,\n  "x2": %r,\n'
                  '  "class": "%s",\n  "div": %r,\n  "f1": %r,\n  "f2": %r\n }')


def export_critical_points_json(path, critmap: CriticalityMap,
                                fields: FieldSet) -> None:
    """JSON array of every critical point (j1 fastest ordering).

    Each entry: {"j1","j2","x1","x2","class","div","f1","f2"} with 1-based
    grid indices, the class name and div(-mo), the descent divergence
    that ``classify`` tests.  No whole-grid divergence is built: only the
    blocks of ``row_blocks`` rows that hold critical points compute theirs,
    through ``map_blocks``, with ``_divergence_rows`` as ``classify`` does,
    and keep it at those points alone, before the chunks.  The bytes are
    those of ``json.dump(records, fh, indent=1)`` plus a newline, with
    floats (all finite) as ``repr``; each record is formatted from a fixed
    template instead of the pure-Python encoder that ``indent`` selects,
    and the records are formatted and written ``CSV_BLOCK_ROWS`` at a time,
    so that the text of only one chunk is held at once.
    """
    grid = critmap.grid
    J, I = np.nonzero(critmap.labels.T)     # j2 outer, j1 inner
    div = np.empty(I.size)

    def descent_divergence(rows: slice):
        at = np.flatnonzero((I >= rows.start) & (I < rows.stop))
        if at.size:
            div[at] = -_divergence_rows(fields.mo, grid, rows)[
                I[at] - rows.start, J[at]]

    map_blocks(descent_divergence, row_blocks(grid.n1))
    with open(path, "w", encoding="ascii") as fh:
        for lo in range(0, I.size, CSV_BLOCK_ROWS):
            i, j = I[lo:lo + CSV_BLOCK_ROWS], J[lo:lo + CSV_BLOCK_ROWS]
            fh.write((",\n" if lo else "[\n") + ",\n".join(
                _CRITICAL_JSON % row for row in zip(
                    (i + 1).tolist(), (j + 1).tolist(), grid.x1[i].tolist(),
                    grid.x2[j].tolist(),
                    map(CLASS_NAMES.get, critmap.labels[i, j].tolist()),
                    div[lo:lo + CSV_BLOCK_ROWS].tolist(),
                    fields.f1[i, j].tolist(), fields.f2[i, j].tolist())))
        fh.write("\n]\n" if I.size else "[]\n")
