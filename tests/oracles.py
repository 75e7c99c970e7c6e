"""Brute-force reference implementations the production code is checked
against, and problems that break it."""

import struct
import zlib
from fractions import Fraction

import numpy as np

from paretoscape import BiObjectiveProblem
from paretoscape.criticality import NEIGHBOR_OFFSETS


def axis_derivative(values: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Hand-written finite-difference stencil along one axis: central
    (f[i+1] - f[i-1]) / (2 spacing) inside, (f[1] - f[0]) / spacing and
    (f[-1] - f[-2]) / spacing on the first and last index."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
    out[0] = (v[1] - v[0]) / spacing
    out[-1] = (v[-1] - v[-2]) / spacing
    return np.moveaxis(out, 0, axis)


def divergence(v: np.ndarray, grid) -> np.ndarray:
    """Whole-array divergence of a vector field ``v`` of shape
    ``grid.shape + (2,)``: the ``np.gradient`` expression that
    ``gradients._divergence_rows`` gives on all rows."""
    return (np.gradient(v[..., 0], grid.s1, axis=0)
            + np.gradient(v[..., 1], grid.s2, axis=1))


def descent_divergence(fields) -> np.ndarray:
    """div(-mo) of a classified field set as one whole-grid array: the
    values that ``classify`` tests and the exports write."""
    return -divergence(fields.mo, fields.grid)


def bisphere_gradients(x1, x2):
    """Analytic (g1, g2) of ``make_bisphere()`` at the points (x1, x2),
    each with a trailing axis (d/dx1, d/dx2)."""
    g1 = np.stack([2.0 * (x1 + 1.0), 2.0 * x2], axis=-1)
    g2 = np.stack([2.0 * (x1 - 1.0), 2.0 * x2], axis=-1)
    return g1, g2


def aspar_gradients(x1, x2):
    """Analytic (g1, g2) of ``make_aspar()`` at the points (x1, x2), each
    with a trailing axis (d/dx1, d/dx2)."""
    g1 = np.stack([4.0 * x1 * (x1 ** 2 - 1.0), 4.0 * x2], axis=-1)
    g2 = np.stack([2.0 * (x1 + 0.5), 2.0 * (x2 - 2.0)], axis=-1)
    return g1, g2


def make_table(grid, f1: np.ndarray, f2: np.ndarray):
    """A problem on the box of ``grid`` whose objectives at the grid's
    points are the given (n1, n2) arrays, looked up by exact coordinate."""
    def fn(x1, x2):
        i, j = np.searchsorted(grid.x1, x1), np.searchsorted(grid.x2, x2)
        return f1[i, j], f2[i, j]

    return BiObjectiveProblem(name="table", lower=grid.lower,
                              upper=grid.upper, fn=fn)


def make_overflow():
    """Finite objectives on [-1, 1]^2 whose f1 differences overflow: f1 =
    1.7e308 sign(x1) sqrt|x1|, f2 = (x1 - 0.3)^2 + x2^2."""
    return BiObjectiveProblem(
        name="overflow", lower=(-1.0, -1.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (1.7e308 * np.sign(x1) * np.sqrt(np.abs(x1)),
                           (x1 - 0.3) ** 2 + x2 ** 2))


def make_norm_overflow(start: float = 0.0):
    """f1 = 1.5e308 (max(x1 - start, 0) + x2) on [0, 0.5]^2: finite
    objectives and finite gradients, (1.5e308, 1.5e308) where x1 > start,
    whose norm overflows there.  With ``start`` 0 that is every point; on a
    grid with a point at x1 = start, the central difference there is
    (0.75e308, 1.5e308), whose norm is finite, so the first overflowing
    norm lies one grid row further on."""
    return BiObjectiveProblem(
        name="norm-overflow", lower=(0.0, 0.0), upper=(0.5, 0.5),
        fn=lambda x1, x2: (1.5e308 * (np.maximum(x1 - start, 0.0) + x2),
                           (x1 - 0.3) ** 2 + x2 ** 2))


def make_scale_overflow():
    """f1 = 1e308 x1 on [0, 0.5]^2: every gradient norm of f1 is 1e308, but
    their mean over more than one grid point overflows."""
    return BiObjectiveProblem(
        name="scale-overflow", lower=(0.0, 0.0), upper=(0.5, 0.5),
        fn=lambda x1, x2: (1e308 * x1, (x1 - 0.3) ** 2 + x2 ** 2))


def _cross(u, w):
    return u[0] * w[1] - u[1] * w[0]


def hull_contains_origin(vectors) -> bool:
    """Exact rational test of whether the origin lies in the convex hull of
    finite 2-D vectors: by Caratheodory in the plane, iff some vector is 0,
    two are exactly opposed, or the closed triangle of three holds it."""
    vs = [(Fraction(float(x)), Fraction(float(y))) for x, y in vectors]
    if any(x == 0 and y == 0 for x, y in vs):
        return True
    for a, u in enumerate(vs):
        for w in vs[a + 1:]:
            if _cross(u, w) == 0 and u[0] * w[0] + u[1] * w[1] < 0:
                return True
    for a, u in enumerate(vs):
        for b, v in enumerate(vs[a + 1:], a + 1):
            for w in vs[b + 1:]:
                # the origin's side of each edge; all three 0 means the
                # three are collinear through 0, which the pairs decided
                sides = (_cross(u, v), _cross(v, w), _cross(w, u))
                if any(sides) and (min(sides) >= 0 or max(sides) <= 0):
                    return True
    return False


# closed-form efficient sets, as lists of segments (a, b) of non-zero
# length (aspar's polylines are added below): bisphere's segment between
# its centres; mindist's four stretches
# of the lines between f1's and f2's nearest centres over which neither
# nearest centre changes; and the sets of bisphere with centres outside its
# box [-2, 2]^2 as the box constrains it: the part of the segment between
# the centres inside the box, then the stretch of box edge nearest to the
# rest of it
EFFICIENT_SEGMENTS = {
    "bisphere": [((-1.0, 0.0), (1.0, 0.0))],
    "mindist": [((-2.0, -1.0), (-2.0, 1.0)), ((2.0, -1.0), (2.0, 1.0)),
                ((-0.5, -1.0), (0.5, -1.0)), ((-0.5, 1.0), (0.5, 1.0))],
    "bisphere:-1,3,1,3": [((-1.0, 2.0), (1.0, 2.0))],
    "bisphere:1,3,3,1": [((1.0, 2.0), (2.0, 2.0)), ((2.0, 1.0), (2.0, 2.0))],
    "bisphere:-1,0,1,3": [((-1.0, 0.0), (1.0 / 3.0, 2.0)),
                          ((1.0 / 3.0, 2.0), (1.0, 2.0))],
}


def aspar_efficient_segments(samples: int = 500) -> list:
    """The closed-form locally efficient set of ``make_aspar()`` as two
    polylines, a list of segments (a, b) of non-zero length.

    A point is efficient where l grad f1 + (1 - l) grad f2 = 0 for some
    weight l in [0, 1], which gives x2 = 2 (1 - l) / (1 + l) and the cubic
    4 l x1^3 + (2 - 6 l) x1 + (1 - l) = 0, solved by ``np.roots``.  A root
    is kept where the weighted Hessian l H1 + (1 - l) H2 is positive along
    the tangent of the set, perpendicular to grad f1 - grad f2 (which is
    not 0: the two gradients are opposed and do not vanish together), so
    f1's saddle branch through the origin is dropped.  The roots with
    x1 < 0 form the branch from f2's minimum (-0.5, 2) to f1's minimum
    (-1, 0); those with x1 > 0 the branch from the fold, where two roots
    meet, to f1's minimum (1, 0).  The weights are ``samples`` even steps of
    [0, 1] and as many steps that start at the fold weight, where the
    discriminant -16 l (2 - 6 l)^3 - 432 l^2 (1 - l)^2 vanishes, and
    widen quadratically, so that the polyline reaches the fold.
    """
    fold = [r.real for r in np.roots([189.0, -162.0, 45.0, -8.0])
            if abs(r.imag) < 1e-9 and 1.0 / 3.0 < r.real < 1.0][0]
    steps = np.linspace(0.0, 1.0, samples)
    branches = {False: [], True: []}
    for lam in np.unique(np.concatenate([steps,
                                         fold + (1.0 - fold) * steps ** 2])):
        x2 = 2.0 * (1.0 - lam) / (1.0 + lam)
        for x1 in np.roots([4.0 * lam, 0.0, 2.0 - 6.0 * lam, 1.0 - lam]):
            if abs(x1.imag) > 1e-6:
                continue
            x1 = x1.real
            g1, g2 = aspar_gradients(x1, x2)
            tx, ty = g2[1] - g1[1], g1[0] - g2[0]
            hxx = lam * (12.0 * x1 ** 2 - 4.0) + 2.0 * (1.0 - lam)
            hyy = 4.0 * lam + 2.0 * (1.0 - lam)
            if hxx * tx * tx + hyy * ty * ty > 0.0:
                branches[x1 > 0.0].append((float(x1), float(x2)))
    # each branch is the graph of its weight over x1: order it by x1
    return [(a, b) for points in map(sorted, branches.values())
            for a, b in zip(points, points[1:])]


# aspar's two branches, which no formula of a few segments gives
EFFICIENT_SEGMENTS["aspar"] = aspar_efficient_segments()


def segment_distances(points: np.ndarray, segments) -> np.ndarray:
    """Euclidean distance from each row of the (N, 2) ``points`` to the
    nearest of the ``segments``, each of non-zero length."""
    best = np.full(points.shape[0], np.inf)
    for a, b in segments:
        a, ab = np.asarray(a), np.subtract(b, a)
        if not ab @ ab > 0.0:
            raise ValueError(f"segment {a.tolist()}-{list(b)} has length 0")
        t = np.clip((points - a) @ ab / (ab @ ab), 0.0, 1.0)
        off = points - a - t[:, None] * ab
        best = np.minimum(best, np.hypot(off[:, 0], off[:, 1]))
    return best


def segment_samples(segments, step: float) -> np.ndarray:
    """(M, 2) points along the segments, both ends included, at most
    ``step`` apart."""
    return np.concatenate([
        np.linspace(a, b, int(np.ceil(np.hypot(*np.subtract(b, a)) / step)) + 1)
        for a, b in segments])


def nearest_distances(queries: np.ndarray, points: np.ndarray,
                      chunk: int = 512) -> np.ndarray:
    """Distance from each row of ``queries`` to the nearest row of
    ``points``, both (., 2), by brute force over ``chunk`` queries at a
    time."""
    out = np.empty(queries.shape[0])
    for lo in range(0, queries.shape[0], chunk):
        off = queries[lo:lo + chunk, None, :] - points[None, :, :]
        out[lo:lo + chunk] = np.hypot(off[..., 0], off[..., 1]).min(axis=1)
    return out


def dominance_counts_brute(F: np.ndarray, chunk: int = 512) -> np.ndarray:
    """O(N^2) reference counter: for each row, how many rows dominate it."""
    F = np.asarray(F, dtype=float)
    N = F.shape[0]
    out = np.empty(N, dtype=np.int64)
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        a1 = F[lo:hi, 0][:, None]
        a2 = F[lo:hi, 1][:, None]
        b1 = F[None, :, 0]
        b2 = F[None, :, 1]
        dom = (b1 <= a1) & (b2 <= a2) & ((b1 < a1) | (b2 < a2))
        out[lo:hi] = dom.sum(axis=1)
    return out


def smaller_before_brute(p: np.ndarray) -> np.ndarray:
    """#{m < k : p[m] < p[k]} for every k, by comparing every pair."""
    p = np.asarray(p)
    return np.array([(p[:k] < p[k]).sum() for k in range(p.size)],
                    dtype=np.int64)


def cost_landscape_brute(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Per-grid-point strict-dominance counts, shape of ``f1``."""
    F = np.stack([f1.ravel(), f2.ravel()], axis=1)
    return dominance_counts_brute(F).reshape(f1.shape)


def connected_components_flood(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labels by a depth-first flood fill from each
    unlabelled point in scan order: -1 outside the mask, ids 0..C-1."""
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


def gfh_walk(fields, critmap, decomposition):
    """Per-point descent walk: (heights, basins, stop_counts, n_cycles).

    Each point picks the in-grid 8-neighbour whose unit offset has the
    largest dot product with -mo (strict ``>``, so the first offset in
    ``NEIGHBOR_OFFSETS`` wins ties) and stops at an efficient point, a zero
    field (pit), or when no neighbour descends (dead end).  The path is
    followed explicitly until it stops or revisits one of its own points
    (a cycle); its height is the sum of ||mo|| * step length over the points
    before the stop or the cycle, added from the end of the path backwards.
    """
    grid = fields.grid
    n1, n2 = grid.shape
    mo = fields.mo.tolist()
    efficient = critmap.efficient_mask.tolist()
    components = decomposition.component_labels.tolist()

    succ, cost, stop = {}, {}, {}
    for i in range(n1):
        for j in range(n2):
            mx, my = mo[i][j]
            norm = float(np.hypot(mx, my))
            best, target, step = -np.inf, None, 0.0
            for di, dj in NEIGHBOR_OFFSETS:
                a, b = i + di, j + dj
                if not (0 <= a < n1 and 0 <= b < n2):
                    continue
                length = float(np.hypot(di * grid.s1, dj * grid.s2))
                dot = (-mx * (di * grid.s1) + -my * (dj * grid.s2)) / length
                if dot > best:
                    best, target, step = dot, (a, b), length
            if efficient[i][j]:
                stop[i, j] = "efficient"
            elif norm <= 0.0:
                stop[i, j] = "pit"
            elif best <= 0.0:
                stop[i, j] = "dead_end"
            else:
                succ[i, j] = target
                cost[i, j] = norm * step

    heights = np.zeros(grid.shape)
    basins = np.full(grid.shape, -1, dtype=np.int32)
    counts = {"efficient": 0, "cycle": 0, "dead_end": 0, "pit": 0}
    cycles = set()
    for start in np.ndindex(*grid.shape):
        path, seen, v = [], {}, start
        while v in succ and v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = succ[v]
        if v in seen:                       # ran into a cycle
            cycles.add(min(path[seen[v]:]))
            path = path[:seen[v]]
            kind = "cycle"
        else:
            kind = stop[v]
            if kind == "efficient":
                basins[start] = components[v[0]][v[1]]
        h = 0.0
        for u in reversed(path):
            h = cost[u] + h
        heights[start] = h
        counts[kind] += 1
    return heights, basins, counts, len(cycles)


def grid_csv_rows(grid, header, columns):
    """Lines of ``export_grid_csv``'s CSV, header first, written point by
    point with j1 fastest: ``",".join(map(str, row))`` of the Python values
    of each row."""
    lists = [c.tolist() for c in columns]
    x1, x2 = grid.x1.tolist(), grid.x2.tolist()
    lines = [",".join(["j1", "j2", "x1", "x2", *header])]
    for j2 in range(grid.n2):
        for j1 in range(grid.n1):
            row = [j1 + 1, j2 + 1, x1[j1], x2[j2]]
            row += [c[j1][j2] for c in lists]
            lines.append(",".join(map(str, row)))
    return lines


def png_one_shot(raster: np.ndarray) -> bytes:
    """The 8-bit truecolour PNG of an (h, w, 3) uint8 raster, framed around
    one ``zlib.compress(filtered_rows, 9)`` of all rows, each behind its
    filter byte 0: signature, IHDR, one IDAT, IEND."""
    h, w = raster.shape[:2]
    rows = b"".join(b"\x00" + raster[r].tobytes() for r in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(rows, 9))
            + chunk(b"IEND", b""))
