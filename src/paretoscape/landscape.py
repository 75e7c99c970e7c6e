"""Landscape aggregation: descent heights, basins, dominance ranks, cost.

Two height fields summarise the landscape:

* gradient-field heights ("gfh"): every grid point follows the joint descent
  direction -mo to the 8-neighbour with the best-aligned step, accumulating
  ||mo|| times the step length, until it reaches a locally efficient point.
  The accumulated length is the point's height; the efficient component it
  lands in is its basin.  Paths that end in a field-zero pit, at a dead end
  with no descending neighbour, or in a cycle carry no basin and are
  counted as unconverged; each of the four stop kinds is counted apart.
  Each point keeps its step as an int8 offset code, chosen per block of
  grid rows on all usable CPUs (``grid.map_blocks``); heights accumulate
  over topological rounds of the successor forest, peeled sequentially, in
  about O(N log N).

* cost landscape ("cost"): the height of a point is the number of grid
  points that strictly dominate it.  Exact tie semantics matter: points with
  identical objective vectors do not dominate each other.  The counter
  sorts by (f1, f2) and counts, for each point, the earlier points with no
  larger f2 by one stable bit partition per bit of the points' f2 ranks
  (an offline wavelet tree): about log2(N) passes of O(N) array operations.
  The tests check it against a brute-force O(N^2) oracle.

Locally efficient points are further decomposed into 8-connected components
by a union-find over neighbour pairs (min-root hooking and pointer
jumping), and ranked by their dominance count within the efficient subset,
which separates globally from locally efficient structures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .criticality import (DIV_TOL_REL, CriticalityMap, NEIGHBOR_OFFSETS,
                          classify, neighbor_pairs)
from .gradients import ZERO_TOL_REL, FieldSet, build_fieldset, gradient_norms
from .grid import (Grid, build_grid, export_grid_csv, map_blocks,
                   row_blocks)

# the CLI's run modes; each renders its own image, and "critical" alone
# exports the gradient fields and the divergence
MODES = ("plot", "gfh", "cost", "critical")


# ---------------------------------------------------------------------------
# dominance counting
# ---------------------------------------------------------------------------

def dominance_counts(F: np.ndarray) -> np.ndarray:
    """Strict-dominance counts: for each row of F, the rows that dominate it.

    Row m strictly dominates row k when it is <= in both objectives and the
    rows differ, so identical rows never dominate each other (-0.0 equals
    0.0).  In the order sorted by (f1, f2) every weak dominator of row k
    comes before it, except the copies of row k that come after it, so the
    count is #{m < k : f2_m <= f2_k} minus the copies of row k before it.
    The first term is ``_smaller_before`` of the rank of each sorted row by
    (f2, position); the second is row k's place in its run of equal rows.
    About log2(N) passes of O(N) array operations, no Python loop over rows.
    The work arrays are int32 when N fits it (int64 otherwise); only the
    dense ranks, the sort keys and the result take 8 bytes per row.  The
    partition passes set the peak, ``_smaller_before``'s 27 B per row on
    top of the 24 B held through them (order, pos, the copies, p and the
    result): traced on kursawe at 1000², 51.3 B per row, against 49.8 B
    while f1 is ranked next to f2's ranks, 49.0 B for the sort that builds
    p and 46.6 B for the ranking of f2.

    Raises ValueError unless F has shape (N, 2) and every entry is finite.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != 2:
        raise ValueError(f"F must have shape (N, 2), got {F.shape}")
    return _dominance_counts(F[:, 0], F[:, 1])


def _dominance_counts(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """``dominance_counts`` of the rows (f1[k], f2[k]) of two 1-D columns."""
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if not (np.isfinite(f1).all() and np.isfinite(f2).all()):
        raise ValueError("F must be finite: no NaN or infinite objectives")
    N = f1.size
    index = np.int32 if N <= np.iinfo(np.int32).max else np.int64
    # dense ranks: key sorts like (f1, f2), and equal keys are equal rows
    r2 = np.unique(f2, return_inverse=True)[1]
    key = (np.unique(f1, return_inverse=True)[1]
           * (int(r2.max(initial=0)) + 1) + r2)
    order = np.argsort(key).astype(index)
    key = key[order]
    pos = np.arange(N, dtype=index)
    run_start = np.ones(N, dtype=bool)
    run_start[1:] = key[1:] != key[:-1]
    copies_before = pos - np.maximum.accumulate(np.where(run_start, pos, 0))
    # p[m] < p[k] for m < k exactly when f2_m <= f2_k; the key is int64
    p = np.empty(N, dtype=index)
    p[np.argsort(r2[order] * N + pos)] = pos
    # with int32 work arrays the partition passes peak only about 3 % above
    # the ranking of f1 and the sort that builds p
    del r2, key, run_start
    counts = np.empty(N, dtype=np.int64)
    counts[order] = _smaller_before(p) - copies_before
    return counts


def _smaller_before(p: np.ndarray) -> np.ndarray:
    """#{m < k : p[m] < p[k]} for every k, for a permutation p of 0..N-1.

    An offline wavelet tree.  p is padded to 2**B values with the missing
    ones in order at its end, where they are never counted.  Before the
    pass for bit b the values sit stably sorted by their bits above b, so
    each aligned group of 2**(b+1) positions holds exactly the values of
    one prefix, half with bit b clear and half with it set.  A value with
    bit b set gains the number of values ahead of it in its group with bit
    b clear, so each pair (m, k) is counted once, at the highest bit where
    p[m] and p[k] differ.  The pass then moves the clear half of every
    group in front of its set half, both in order; after bit 0 every value
    sits at its own position.  Every work array has p's integer dtype,
    which must hold N - 1.
    """
    N = p.size
    B = (N - 1).bit_length()
    size = 1 << B
    v = np.arange(size, dtype=p.dtype)
    v[:N] = p
    below = np.zeros(size, dtype=p.dtype)
    for b in reversed(range(B)):
        half = 1 << b
        is_set = (v & half).astype(bool)
        clear = np.flatnonzero(~is_set).reshape(-1, half)
        set_ = np.flatnonzero(is_set).reshape(-1, half)
        take = np.concatenate([clear, set_], axis=1, dtype=p.dtype).ravel()
        v = v[take]
        below = below[take]
        # the set value in column c of group g sits at g * 2**(b+1) + c + the
        # clear values before it
        set_ -= np.arange(0, size, 2 * half)[:, None]
        set_ -= np.arange(half)
        below.reshape(-1, 2 * half)[:, half:] += set_
    return below[p]


@dataclass
class HeightField:
    """A nonnegative per-grid-point height."""

    grid: Grid
    values: np.ndarray     # (n1, n2); float for gfh, int for cost


def cost_landscape(f1: np.ndarray, f2: np.ndarray, grid: Grid) -> HeightField:
    """Dominance-count height for every grid point; the two objective grids
    are counted as flat columns, without an (N, 2) copy."""
    counts = _dominance_counts(f1.ravel(), f2.ravel())
    return HeightField(grid=grid, values=counts.reshape(grid.shape))


# ---------------------------------------------------------------------------
# efficient-set decomposition
# ---------------------------------------------------------------------------

def connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labels of a boolean grid mask.

    Returns an int32 array (-1 outside the mask, component ids 0..C-1 in
    scan order of each component's first point) and the component count.

    ``_roots`` over the masked points, numbered in scan order, and their
    neighbour pairs: each component's root is its first point in scan order.
    """
    mask = np.asarray(mask, dtype=bool)
    n1, n2 = mask.shape
    labels = np.full(mask.shape, -1, dtype=np.int32)
    flat_mask = mask.ravel()
    points = np.flatnonzero(flat_mask)
    i, j = np.divmod(points, n2)
    n = points.size
    # the four offsets that follow a point in scan order give each
    # neighbour pair once
    u, v = [], []
    for di, dj in NEIGHBOR_OFFSETS[4:]:
        inside = np.flatnonzero((i + di < n1) & (j + dj >= 0) & (j + dj < n2))
        target = points[inside] + (di * n2 + dj)
        hit = flat_mask[target]
        u.append(inside[hit])
        v.append(np.searchsorted(points, target[hit]))
    root = _roots(n, np.concatenate(u), np.concatenate(v))
    is_root = root == np.arange(n)
    labels[mask] = (np.cumsum(is_root) - 1)[root]
    return labels, int(is_root.sum())


def _roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each node's root, the smallest node of its connected component, by a
    union-find over nodes 0..n-1 and edges (u[k], v[k]).  Each round hooks
    the larger root of every edge whose roots differ onto the smaller one,
    then jumps pointers until every node points at its root."""
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        differ = ru != rv
        if not differ.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[differ],
                      np.minimum(ru, rv)[differ])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


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
    F: np.ndarray                   # (E, 2) objectives (f1, f2) per point

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
    only; rank 0 marks the (approximate) globally efficient subset.  The
    decomposition keeps the objectives of its points as ``F``, so no later
    stage needs the whole-grid ``f1`` and ``f2`` for them.
    """
    mask = critmap.efficient_mask
    pts = np.argwhere(mask).astype(np.int32)
    comp_labels, n_comp = connected_components(mask)
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
        representative_f=F[best], F=F)


# ---------------------------------------------------------------------------
# descent-path heights and basins
# ---------------------------------------------------------------------------

# how a descent path can end; codes are positions in this tuple
STOP_KINDS = ("efficient", "cycle", "dead_end", "pit")

# most points of one peel round that the back-substitution indexes at once
PEEL_CHUNK = 1 << 16


@dataclass
class BasinMap:
    """How descent paths end: basins reached and paths per stop kind."""

    n_basins: int             # components reached: all n_components
    n_unconverged: int        # grid points whose path reaches no efficient point
    stop_counts: dict         # STOP_KINDS name -> paths ending that way
    n_cycles: int             # distinct successor cycles cut by the peel


def gfh_heights(fields: FieldSet, critmap: CriticalityMap,
                decomposition: EfficientSetDecomposition
                ) -> tuple[HeightField, BasinMap]:
    """Accumulated descent-path lengths and how each path ends.

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

    Stops have height 0; every efficient point ends its own path, so all
    components are basins.  A point keeps only its step, an int8 index into
    ``NEIGHBOR_OFFSETS``; 8-entry tables give the successor of flat point v,
    succ[v] = v + shift[step[v]], and its cost ||mo[v]|| * length[step[v]].
    The steps, the stop kinds and each point's cost, which starts out in
    its height, are found per block of ``row_blocks`` rows through
    ``map_blocks``, with the same expressions on each element as on the
    whole grid, so no full grid of norms is needed and the result does not
    depend on the block size or the thread count.  The in-degree is counted
    as int8, per block of target rows and one offset at a time.  Both
    passes take the slice views of ``criticality.neighbor_pairs``, the
    8-neighbour walk of the dominance trim: the step choice over each
    point's in-grid neighbours, the count over each target's neighbours
    whose step is the opposite offset.  The successor graph is peeled
    sequentially in topological rounds, sources first, kept as int32 point
    indices; each round decrements the in-degree of its frontier's targets
    only, so the whole peel costs about O(N log N).  Stops then get height
    0, and walking the rounds backwards, h[v] = cost[v] + h[succ[v]], and each peeled point
    takes its successor's stop kind with its height; a round's points are
    independent, so they are gathered at most ``PEEL_CHUNK`` at a time as
    intp indices.  The stop kinds are counted one kind at a time, without
    widening the int8 codes.
    """
    grid = fields.grid
    n1, n2 = grid.shape
    N = n1 * n2
    mo = fields.mo
    offsets = np.array(NEIGHBOR_OFFSETS)
    length = np.hypot(offsets[:, 0] * grid.s1, offsets[:, 1] * grid.s2)
    shift = offsets[:, 0] * n2 + offsets[:, 1]

    # terminals end their own paths, each kind overriding the ones before
    # it; the linked rest stay "cycle" unless the peel reaches them
    cycle = STOP_KINDS.index("cycle")
    kind = np.full(grid.shape, cycle, dtype=np.int8)
    step = np.zeros(grid.shape, dtype=np.int8)
    heights = np.empty(grid.shape)

    def steps(rows: slice):
        # by exact negation, the least mo . step / length is -mo's best step
        low = np.full((rows.stop - rows.start, n2), np.inf)
        for k, (ai, aj), _ in neighbor_pairs(rows, n1):
            # the block's points whose step k stays in-grid, as views
            di, dj = NEIGHBOR_OFFSETS[k]
            near = low[ai.start - rows.start:ai.stop - rows.start, aj]
            dot = (mo[ai, aj, 0] * (di * grid.s1) + mo[ai, aj, 1] * (dj * grid.s2)) / length[k]
            better = dot < near
            np.copyto(near, dot, where=better)
            np.copyto(step[ai, aj], k, where=better)
        block = kind[rows]
        block[low >= 0.0] = STOP_KINDS.index("dead_end")
        norm = gradient_norms(mo[rows])
        block[norm <= 0.0] = STOP_KINDS.index("pit")
        # each point's step cost, which the peel turns into its height
        np.multiply(norm, length[step[rows]], out=heights[rows])

    map_blocks(steps, row_blocks(n1))
    kind[critmap.efficient_mask] = STOP_KINDS.index("efficient")
    linked = kind == cycle

    # at most 8 in-edges per point, counted per block of target rows: the
    # neighbour at offset k steps here if its step is the opposite, 7 - k
    indeg = np.zeros(grid.shape, dtype=np.int8)

    def in_degree(rows: slice):
        for k, a, b in neighbor_pairs(rows, n1):
            indeg[a] += linked[b] & (step[b] == 7 - k)

    map_blocks(in_degree, row_blocks(n1))
    step, kind, linked, indeg, heights = (
        a.ravel() for a in (step, kind, linked, indeg, heights))

    def succ(v):
        return v + shift[step[v]]

    index = np.int32 if N <= np.iinfo(np.int32).max else np.int64
    frontier = np.flatnonzero(linked & (indeg == 0))
    rounds = []
    while frontier.size:
        rounds.append(frontier.astype(index))
        cand, dec = np.unique(succ(frontier), return_counts=True)
        indeg[cand] -= dec
        cand = cand[indeg[cand] == 0]
        frontier = cand[linked[cand]]
    # every linked point whose in-degree reached 0 was peeled; the rest keep
    # an in-edge from each other and form the cycles
    cut = linked & (indeg > 0)
    on_cycle = np.flatnonzero(cut)
    heights[cut | ~linked] = 0.0
    del indeg, linked, cut

    # every peeled point ends where its successor does; the points of one
    # round are independent, so any slicing of a round gives the same bytes
    for frontier in reversed(rounds):
        for lo in range(0, frontier.size, PEEL_CHUNK):
            v = frontier[lo:lo + PEEL_CHUNK].astype(np.intp)
            t = v + shift[step[v]]
            heights[v] += heights[t]
            kind[v] = kind[t]
    stop_counts = {name: int(np.count_nonzero(kind == k))
                   for k, name in enumerate(STOP_KINDS)}
    return (HeightField(grid=grid, values=heights.reshape(grid.shape)),
            BasinMap(n_basins=decomposition.n_components,
                     n_unconverged=N - stop_counts["efficient"],
                     stop_counts=stop_counts,
                     n_cycles=_count_cycles(on_cycle, succ(on_cycle))))


def _count_cycles(members: np.ndarray, nxt: np.ndarray) -> int:
    """Distinct cycles through the sorted flat points ``members``, whose
    successors ``nxt`` are members too: the roots of their union-find."""
    k = np.arange(members.size)
    return int((_roots(members.size, k, np.searchsorted(members, nxt)) == k).sum())


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

    def summary(self) -> dict:
        return {
            "problem": self.problem.name,
            "n_efficient": self.decomposition.n_efficient,
            "n_components": self.decomposition.n_components,
            "n_rank0": self.decomposition.n_rank0,
            "n_cycles": self.basins.n_cycles,
            "n_unconverged": self.basins.n_unconverged,
        }


def analyze(problem, n1: int, n2: Optional[int] = None, *,
            lower=None, upper=None,
            zero_tol_rel: float = ZERO_TOL_REL,
            div_tol_rel: float = DIV_TOL_REL,
            mode: str = "plot") -> LandscapeResult:
    """Run the full pipeline for a problem at the given grid resolution.

    ``mode`` is the CLI's, one of ``MODES``: the cost landscape is computed
    iff it is ``"cost"``.  The per-point stages run on all usable CPUs
    (``grid.map_blocks``), with the same results for any thread count.
    No mode holds a gradient field: ``build_fieldset`` and ``classify``
    compute gradients per row block, and the critical-mode field export per
    slab of grid columns.  The cost landscape, a function of ``f1`` and
    ``f2`` alone, runs right after ``build_fieldset``, before ``classify``
    allocates ``mo``, so its working set meets only the two objective
    grids, and only its int64 counts stay.  ``decompose_efficient_set`` is
    then the last reader of ``f1`` and ``f2`` outside ``"critical"`` mode,
    and keeps the objectives of the efficient points as
    ``decomposition.F``; unless the mode is ``"critical"``, whose exports
    read them, the run goes on with a copy of the field set whose ``f1``
    and ``f2`` are None, so they are freed before ``gfh_heights``
    allocates.  No mode holds or builds the divergence of the descent
    field whole: the critical-points JSON computes it per block of rows
    that holds critical points, and the field CSV per slab of grid
    columns.

    Raises:
        ValueError: ``mode`` is not one of ``MODES``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if n2 is None:
        n2 = n1
    lo = problem.lower if lower is None else lower
    up = problem.upper if upper is None else upper
    grid = build_grid(lo, up, n1, n2)
    fields = build_fieldset(problem, grid, zero_tol_rel=zero_tol_rel)
    cost = cost_landscape(fields.f1, fields.f2, grid) if mode == "cost" else None
    critmap = classify(fields, div_tol_rel=div_tol_rel)
    decomposition = decompose_efficient_set(critmap, fields.f1, fields.f2)
    if mode != "critical":
        fields = replace(fields, f1=None, f2=None)
    heights, basins = gfh_heights(fields, critmap, decomposition)
    return LandscapeResult(problem=problem, grid=grid, fields=fields,
                           critmap=critmap, decomposition=decomposition,
                           heights=heights, basins=basins, cost=cost)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def export_heights_csv(path, heights: HeightField) -> None:
    """CSV of a height field: j1,j2,x1,x2,height (j1 fastest)."""
    export_grid_csv(path, heights.grid, ["height"], [heights.values])


# one point record and one component (its points joined in) of the
# decomposition JSON, laid out as json.dump(indent=1) lays them out
_POINT_JSON = ('    {\n     "j1": %d,\n     "j2": %d,\n     "x1": %r,\n'
               '     "x2": %r,\n     "f1": %r,\n     "f2": %r,\n'
               '     "rank": %d\n    }')
_COMPONENT_JSON = ('  {\n   "id": %d,\n   "size": %d,\n   "min_rank": %d,\n'
                   '   "representative_f": [\n    %r,\n    %r\n   ],\n'
                   '   "points": [\n%s\n   ]\n  }')


def export_decomposition_json(path, decomposition: EfficientSetDecomposition,
                              f1=None, f2=None) -> None:
    """JSON of the efficient-set decomposition.

    Top level: {"n_efficient", "n_rank0", "n_components", "components"}.
    Each component: id, size, min_rank, representative_f, and its points
    ({"j1","j2","x1","x2","f1","f2","rank"}, 1-based indices) in the scan
    order of ``decomposition.points``: j1 outer, j2 fastest.  The bytes are
    those of ``json.dump(payload, fh, indent=1)`` plus a newline, with
    floats as ``float.__repr__``; the records are formatted from fixed
    templates instead of the pure-Python encoder that ``indent`` selects,
    and each component is written as soon as it is formatted.  The
    objectives come from ``decomposition.F``; ``f1`` and ``f2`` are
    ignored: ``perfbench/chain.py`` still passes them.
    """
    d = decomposition
    grid = d.grid
    # a stable sort keeps each component's points in scan order
    order = np.argsort(d.component_of, kind="stable")
    i, j = d.points[order, 0], d.points[order, 1]
    columns = (i + 1, j + 1, grid.x1[i], grid.x2[j], d.F[order, 0],
               d.F[order, 1], d.ranks[order])
    with open(path, "w", encoding="ascii") as fh:
        fh.write('{\n "n_efficient": %d,\n "n_rank0": %d,\n'
                 ' "n_components": %d,\n' % (d.n_efficient, d.n_rank0,
                                              d.n_components))
        if not d.n_components:
            fh.write(' "components": []\n}\n')
            return
        fh.write(' "components": [\n')
        end = 0
        for c, (size, min_rank, rep) in enumerate(zip(
                d.component_sizes.tolist(), d.component_min_rank.tolist(),
                d.representative_f.tolist())):
            rows = slice(end, end + size)
            end += size
            points = ",\n".join(_POINT_JSON % row for row in zip(
                *(col[rows].tolist() for col in columns)))
            fh.write((",\n" if c else "")
                     + _COMPONENT_JSON % (c, size, min_rank, *rep, points))
        fh.write('\n ]\n}\n')
