"""Landscape aggregation: descent heights, basins, dominance ranks, cost.

Two height fields summarise the landscape:

* gradient-field heights ("gfh"): every grid point follows the joint descent
  direction -mo to the 8-neighbour with the best-aligned step, accumulating
  ||mo|| times the step length, until it reaches a locally efficient point.
  The accumulated length is the point's height; the efficient component it
  lands in is its basin.  Paths that end in a field-zero pit, at a dead end
  with no descending neighbour, or in a cycle carry no basin and are
  counted as unconverged; each of the four stop kinds is counted apart.
  Heights are accumulated over topological rounds of the successor forest
  in about O(N log N).

* cost landscape ("cost"): the height of a point is the number of grid
  points that strictly dominate it.  Exact tie semantics matter: points with
  identical objective vectors do not dominate each other.  The counter
  sorts by f1 and sweeps a Fenwick tree over f2 ranks in O(N log N); the
  tests check it against a brute-force O(N^2) oracle.

Locally efficient points are further decomposed into 8-connected components
and ranked by their dominance count within the efficient subset, which
separates globally from locally efficient structures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criticality import (CriticalityMap, NEIGHBOR_OFFSETS, classify,
                          pair_slices)
from .gradients import FieldSet, build_fieldset
from .grid import Grid, build_grid, export_grid_csv


# ---------------------------------------------------------------------------
# dominance counting
# ---------------------------------------------------------------------------

def dominance_counts(F: np.ndarray) -> np.ndarray:
    """Strict-dominance counts in O(N log N).

    Sort by f1; sweep groups of equal f1 left to right, inserting each whole
    group into a Fenwick tree over f2 ranks before querying its members, so
    equal-f1 points see each other.  The prefix count at a point's f2 rank
    then counts all points with f1 <= and f2 <= (weak dominators including
    the point itself and its exact duplicates); subtracting the duplicate
    multiplicity leaves the strict dominators.
    """
    F = np.asarray(F, dtype=float)
    N = F.shape[0]
    if N == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((F[:, 1], F[:, 0]))
    f1s = F[order, 0]
    _, f2rank = np.unique(F[:, 1], return_inverse=True)
    r = f2rank[order].astype(np.int64) + 1          # 1-based tree positions
    M = int(r.max())
    tree = [0] * (M + 1)
    weak_sorted = np.empty(N, dtype=np.int64)

    i = 0
    while i < N:
        j = i
        while j < N and f1s[j] == f1s[i]:
            j += 1
        for k in range(i, j):
            idx = int(r[k])
            while idx <= M:
                tree[idx] += 1
                idx += idx & (-idx)
        for k in range(i, j):
            idx = int(r[k])
            c = 0
            while idx > 0:
                c += tree[idx]
                idx -= idx & (-idx)
            weak_sorted[k] = c
        i = j

    weak = np.empty(N, dtype=np.int64)
    weak[order] = weak_sorted
    _, inv, cnt = np.unique(F, axis=0, return_inverse=True, return_counts=True)
    return weak - cnt[inv]


@dataclass
class HeightField:
    """A nonnegative per-grid-point height with its interpretation."""

    grid: Grid
    values: np.ndarray     # (n1, n2); float for gfh, int for cost
    mode: str              # "gfh" or "cost"


def cost_landscape(f1: np.ndarray, f2: np.ndarray, grid: Grid) -> HeightField:
    """Dominance-count height for every grid point."""
    F = np.stack([f1.ravel(order="F"), f2.ravel(order="F")], axis=1)
    counts = dominance_counts(F)
    values = counts.reshape((grid.n2, grid.n1)).T.copy()
    return HeightField(grid=grid, values=values, mode="cost")


# ---------------------------------------------------------------------------
# efficient-set decomposition
# ---------------------------------------------------------------------------

def connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labels of a boolean grid mask.

    Returns an int32 array (-1 outside the mask, component ids 0..C-1 in
    scan order of each component's first point) and the component count.
    """
    labels = np.full(mask.shape, -1, dtype=np.int32)
    n1, n2 = mask.shape
    comp = 0
    for si, sj in np.argwhere(mask):
        if labels[si, sj] != -1:
            continue
        labels[si, sj] = comp
        stack = [(int(si), int(sj))]
        while stack:
            i, j = stack.pop()
            for di, dj in NEIGHBOR_OFFSETS:
                a, b = i + di, j + dj
                if 0 <= a < n1 and 0 <= b < n2 and mask[a, b] and labels[a, b] == -1:
                    labels[a, b] = comp
                    stack.append((a, b))
        comp += 1
    return labels, comp


@dataclass
class EfficientSetDecomposition:
    """Efficient points with dominance ranks and connected components."""

    grid: Grid
    points: np.ndarray          # (E, 2) int32 grid indices, scan order
    ranks: np.ndarray           # (E,) dominance count within the efficient set
    component_of: np.ndarray    # (E,) component id per point
    component_labels: np.ndarray  # (n1, n2) int32 grid of ids, -1 elsewhere
    n_components: int
    component_sizes: np.ndarray   # (C,)
    component_min_rank: np.ndarray  # (C,)
    representative_f: np.ndarray    # (C, 2) objectives of a min-rank member

    @property
    def n_efficient(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_rank0(self) -> int:
        return int((self.ranks == 0).sum())


def decompose_efficient_set(critmap: CriticalityMap, f1: np.ndarray,
                            f2: np.ndarray) -> EfficientSetDecomposition:
    """Rank efficient points by dominance and split them into components.

    Ranks are strict-dominance counts computed among the efficient points
    only; rank 0 marks the (approximate) globally efficient subset.
    """
    mask = critmap.efficient_mask
    pts = np.argwhere(mask).astype(np.int32)
    comp_labels, n_comp = connected_components(mask)
    if pts.shape[0] == 0:
        return EfficientSetDecomposition(
            grid=critmap.grid, points=pts, ranks=np.zeros(0, dtype=np.int64),
            component_of=np.zeros(0, dtype=np.int32),
            component_labels=comp_labels, n_components=0,
            component_sizes=np.zeros(0, dtype=np.int64),
            component_min_rank=np.zeros(0, dtype=np.int64),
            representative_f=np.zeros((0, 2)))
    F = np.stack([f1[pts[:, 0], pts[:, 1]], f2[pts[:, 0], pts[:, 1]]], axis=1)
    ranks = dominance_counts(F)
    comp_of = comp_labels[pts[:, 0], pts[:, 1]]
    sizes = np.bincount(comp_of, minlength=n_comp).astype(np.int64)
    # sorted by (component, rank) and stable, so each component's first row
    # is its earliest min-rank member in scan order
    order = np.lexsort((ranks, comp_of))
    best = order[np.cumsum(sizes) - sizes]
    return EfficientSetDecomposition(
        grid=critmap.grid, points=pts, ranks=ranks, component_of=comp_of,
        component_labels=comp_labels, n_components=n_comp,
        component_sizes=sizes, component_min_rank=ranks[best],
        representative_f=F[best])


# ---------------------------------------------------------------------------
# descent-path heights and basins
# ---------------------------------------------------------------------------

# how a descent path can end; codes are positions in this tuple
STOP_KINDS = ("efficient", "cycle", "dead_end", "pit")


@dataclass
class BasinMap:
    """Basin (efficient component id) reached by each descent path."""

    grid: Grid
    labels: np.ndarray        # (n1, n2) int32, -1 = unconverged
    n_basins: int             # distinct components actually reached
    n_unconverged: int        # grid points whose path reaches no efficient point
    stop_counts: dict         # STOP_KINDS name -> paths ending that way
    n_cycles: int             # distinct successor cycles cut by the peel


def gfh_heights(fields: FieldSet, critmap: CriticalityMap,
                decomposition: EfficientSetDecomposition
                ) -> tuple[HeightField, BasinMap]:
    """Accumulated descent-path lengths and the basin each path reaches.

    From every grid point the path repeatedly moves to the 8-neighbour whose
    normalised decision-space offset has the largest dot product with the
    descent direction -mo, accumulating ||mo|| times the Euclidean step
    length.  Every path stops in one of four ways (``STOP_KINDS``):

    * ``efficient``: at a locally efficient point, whose component is the
      path's basin;
    * ``pit``: at a non-efficient point with a zero field;
    * ``dead_end``: at a non-efficient point with a non-zero field but no
      descending neighbour;
    * ``cycle``: on a cycle of the successor graph, or in a tail that drains
      into one.  Each cycle is cut: its members get height 0.

    Stops have height 0, and only efficient stops carry a basin.  The
    successor graph is peeled in topological rounds, sources first; each
    round decrements the in-degree of its frontier's targets only, so a
    round costs O(F log F) for a frontier of F points and the whole peel
    about O(N log N).  Heights are then filled in by walking the rounds
    backwards, h[v] = cost[v] + h[succ[v]].
    """
    grid = fields.grid
    n1, n2 = grid.shape
    N = n1 * n2
    mo = fields.mo
    mo_norm = np.hypot(mo[..., 0], mo[..., 1])
    vx = -mo[..., 0]
    vy = -mo[..., 1]

    best = np.full(grid.shape, -np.inf)
    succ = np.full(grid.shape, -1, dtype=np.int64)    # flat index i*n2 + j
    step_len = np.zeros(grid.shape)
    flat_idx = np.arange(N, dtype=np.int64).reshape(grid.shape)

    for di, dj in NEIGHBOR_OFFSETS:
        ai, bi = pair_slices(di)
        aj, bj = pair_slices(dj)
        length = float(np.hypot(di * grid.s1, dj * grid.s2))
        dot = (vx[ai, aj] * (di * grid.s1) + vy[ai, aj] * (dj * grid.s2)) / length
        better = dot > best[ai, aj]
        # slice views: updates only where the offset target stays in-grid
        np.copyto(best[ai, aj], dot, where=better)
        np.copyto(succ[ai, aj], flat_idx[bi, bj], where=better)
        np.copyto(step_len[ai, aj], length, where=better)

    eff = critmap.efficient_mask
    pit = ~eff & (mo_norm <= 0.0)
    dead_end = ~eff & ~pit & (best <= 0.0)
    terminal = eff | pit | dead_end
    succ[terminal] = -1
    cost = mo_norm * step_len
    cost[terminal] = 0.0

    succ_flat = succ.ravel()
    cost_flat = cost.ravel()
    linked = succ_flat >= 0
    indeg = np.bincount(succ_flat[linked], minlength=N)
    frontier = np.flatnonzero(linked & (indeg == 0))
    rounds = []
    while frontier.size:
        rounds.append(frontier)
        cand, dec = np.unique(succ_flat[frontier], return_counts=True)
        indeg[cand] -= dec
        cand = cand[indeg[cand] == 0]
        frontier = cand[linked[cand]]
    # every linked point whose in-degree reached 0 was peeled; the rest keep
    # an in-edge from each other and form the cycles
    on_cycle = linked & (indeg > 0)

    # terminals and cycle members end their own paths; every peeled point
    # ends where its successor does
    heights = np.zeros(N)
    stop_at = np.arange(N)
    for frontier in reversed(rounds):
        t = succ_flat[frontier]
        heights[frontier] = cost_flat[frontier] + heights[t]
        stop_at[frontier] = stop_at[t]

    kind = np.full(grid.shape, STOP_KINDS.index("cycle"), dtype=np.int8)
    kind[eff] = STOP_KINDS.index("efficient")
    kind[dead_end] = STOP_KINDS.index("dead_end")
    kind[pit] = STOP_KINDS.index("pit")
    per_kind = np.bincount(kind.ravel()[stop_at], minlength=len(STOP_KINDS))
    stop_counts = dict(zip(STOP_KINDS, per_kind.tolist()))
    labels = decomposition.component_labels
    basins = labels.ravel()[stop_at].reshape(grid.shape)

    height_field = HeightField(grid=grid, values=heights.reshape(grid.shape),
                               mode="gfh")
    # every efficient point ends its own path, so the basins reached are
    # the components of the efficient points
    basin_map = BasinMap(grid=grid, labels=basins,
                         n_basins=int(np.unique(labels[eff]).size),
                         n_unconverged=N - stop_counts["efficient"],
                         stop_counts=stop_counts,
                         n_cycles=_count_cycles(succ_flat, on_cycle))
    return height_field, basin_map


def _count_cycles(succ_flat: np.ndarray, on_cycle: np.ndarray) -> int:
    """Number of distinct cycles among the points ``on_cycle``, whose
    successors all lie on the same cycles.

    Pointer doubling over the cycle members only: after k rounds each member
    knows the smallest position among the next 2**k members of its cycle,
    so once 2**k exceeds the member count, every cycle has exactly one
    member that is its own minimum.
    """
    members = np.flatnonzero(on_cycle)
    nxt = np.searchsorted(members, succ_flat[members])
    low = np.arange(members.size)
    for _ in range(members.size.bit_length()):
        low = np.minimum(low, low[nxt])
        nxt = nxt[nxt]
    return int((low == np.arange(members.size)).sum())


# ---------------------------------------------------------------------------
# one-call pipeline
# ---------------------------------------------------------------------------

@dataclass
class LandscapeResult:
    """Everything the detector derives for one problem/grid combination."""

    problem: object
    grid: Grid
    fields: FieldSet
    critmap: CriticalityMap
    decomposition: EfficientSetDecomposition
    heights: HeightField
    basins: BasinMap
    cost: Optional[HeightField] = None

    @property
    def n_cycles(self) -> int:
        return self.basins.n_cycles

    def summary(self) -> dict:
        return {
            "problem": getattr(self.problem, "name", str(self.problem)),
            "n_efficient": self.decomposition.n_efficient,
            "n_components": self.decomposition.n_components,
            "n_rank0": self.decomposition.n_rank0,
            "n_cycles": self.n_cycles,
            "n_unconverged": self.basins.n_unconverged,
        }


def analyze(problem, n1: int, n2: Optional[int] = None, *,
            lower=None, upper=None,
            zero_tol_rel: float = 1e-12, div_tol_rel: float = 1e-9,
            workers: int = 1, with_cost: bool = False) -> LandscapeResult:
    """Run the full pipeline for a problem at the given grid resolution."""
    if n2 is None:
        n2 = n1
    lo = problem.lower if lower is None else lower
    up = problem.upper if upper is None else upper
    grid = build_grid(lo, up, n1, n2)
    fields = build_fieldset(problem, grid, zero_tol_rel=zero_tol_rel,
                            workers=workers)
    critmap = classify(fields, div_tol_rel=div_tol_rel)
    decomposition = decompose_efficient_set(critmap, fields.f1, fields.f2)
    heights, basins = gfh_heights(fields, critmap, decomposition)
    cost = cost_landscape(fields.f1, fields.f2, grid) if with_cost else None
    return LandscapeResult(problem=problem, grid=grid, fields=fields,
                           critmap=critmap, decomposition=decomposition,
                           heights=heights, basins=basins, cost=cost)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def export_heights_csv(path, heights: HeightField) -> None:
    """CSV of a height field: j1,j2,x1,x2,height (j1 fastest)."""
    export_grid_csv(path, heights.grid, ["height"], [heights.values])


def export_decomposition_json(path, decomposition: EfficientSetDecomposition,
                              f1: np.ndarray, f2: np.ndarray) -> None:
    """JSON of the efficient-set decomposition.

    Top level: {"n_efficient", "n_rank0", "n_components", "components"}.
    Each component: id, size, min_rank, representative_f, and its points
    ({"j1","j2","x1","x2","f1","f2","rank"}, 1-based indices) in the scan
    order of ``decomposition.points``: j1 outer, j2 fastest.
    """
    d = decomposition
    grid = d.grid
    # a stable sort keeps each component's points in scan order
    order = np.argsort(d.component_of, kind="stable")
    i, j = d.points[order, 0], d.points[order, 1]
    points = [
        {"j1": a + 1, "j2": b + 1, "x1": x1, "x2": x2, "f1": v1, "f2": v2,
         "rank": r}
        for a, b, x1, x2, v1, v2, r in zip(
            i.tolist(), j.tolist(), grid.x1[i].tolist(), grid.x2[j].tolist(),
            f1[i, j].tolist(), f2[i, j].tolist(), d.ranks[order].tolist())
    ]
    ends = np.cumsum(d.component_sizes).tolist()
    comps = [
        {"id": c, "size": size, "min_rank": min_rank,
         "representative_f": rep, "points": points[end - size:end]}
        for c, (size, min_rank, rep, end) in enumerate(zip(
            d.component_sizes.tolist(), d.component_min_rank.tolist(),
            d.representative_f.tolist(), ends))
    ]
    payload = {
        "n_efficient": d.n_efficient,
        "n_rank0": d.n_rank0,
        "n_components": d.n_components,
        "components": comps,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
