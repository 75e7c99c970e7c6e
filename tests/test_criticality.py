"""First/second-order classification: hull test, triangles, boundary, trim."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import descent_divergence, divergence, hull_contains_origin
from paretoscape import criticality as criticality_module
from paretoscape import grid as grid_module
from paretoscape import (BiObjectiveProblem, EvaluationError, FieldSet,
                         PointClass, build_fieldset, build_grid, classify,
                         get_problem, make_aspar, make_bisphere, make_kursawe,
                         make_sgk, origin_in_hull)
from paretoscape.criticality import (CLASS_NAMES, DIV_TOL_REL, ORIENTATIONS,
                                     _interior, boundary_criticality,
                                     export_critical_points_json,
                                     interior_criticality,
                                     neighbor_dominated_mask,
                                     rotate_boundary_field, triangle_corners,
                                     triangle_second_order)
from paretoscape.gradients import _unit_sum

def test_origin_in_hull_frozen_cases():
    assert origin_in_hull([(1.0, 0.0), (-1.0, 0.0)]) is True
    assert origin_in_hull([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]) is False
    assert origin_in_hull([(1.0, 0.0), (-0.5, 0.9), (-0.5, -0.9)]) is True
    assert origin_in_hull([(2.0, -3.0)]) is False
    assert origin_in_hull([(1.0, 1.0), (0.0, 0.0)]) is True
    assert origin_in_hull([(1e-15, 0.0), (1.0, 1.0)], zero_tol=1e-12) is True
    with pytest.raises(ValueError):
        origin_in_hull([])


def test_third_frozen_case_certificate():
    # barycentric certificate: (1,0) + (-0.5,0.9) + (-0.5,-0.9) = (0,0),
    # so lambda = (1/3, 1/3, 1/3) expresses the origin exactly
    vs = np.array([(1.0, 0.0), (-0.5, 0.9), (-0.5, -0.9)])
    assert np.allclose(vs.sum(axis=0), 0.0)
    assert hull_contains_origin(vs) is True


def test_origin_in_hull_matches_exhaustive_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 400:
        k = int(rng.integers(1, 7))
        vs = rng.integers(-5, 6, size=(k, 2)).astype(float)
        assert origin_in_hull(vs) == hull_contains_origin(vs), vs.tolist()
        checked += 1


def test_origin_in_hull_scale_invariant():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        vs = rng.normal(size=(k, 2))
        vs = vs[np.hypot(vs[:, 0], vs[:, 1]) > 1e-6]
        if vs.shape[0] == 0:
            continue
        scales = 2.0 ** rng.integers(-3, 4, size=vs.shape[0])
        assert origin_in_hull(vs) == origin_in_hull(vs * scales[:, None])


def test_origin_in_hull_opposed_pairs_enclose():
    # exactly opposed and exactly scaled-opposed pairs lie on the decision
    # boundary: the segment between them passes through the origin
    rng = np.random.default_rng(77)
    for _ in range(2000):
        v = rng.normal(size=2)
        assert origin_in_hull([v, -v]) is True, v.tolist()
        # integer mantissas of up to 21 bits times an odd factor below 2**10
        # keep c * v exact
        w = (rng.integers(-2**20, 2**20, size=2)
             * 2.0 ** rng.integers(-60, 60, size=2))
        if not w.any():
            continue
        c = float(2 * rng.integers(0, 512) + 1) * 2.0 ** int(rng.integers(-30, 30))
        assert origin_in_hull([w, -c * w]) is True, (w.tolist(), c)
        assert origin_in_hull([-c * w, w, rng.normal(size=2)]) is True


# 2**-531 and 2**531 are near 1e-160 and 1e+160: products of two such
# components underflow below the normal range or overflow to inf
_EXTREME_SCALES = (1.0, 2.0 ** -531, 2.0 ** 531)
_SCALE_IDS = ("1", "2**-531", "2**531")


@pytest.mark.parametrize("scale", _EXTREME_SCALES, ids=_SCALE_IDS)
def test_origin_in_hull_exact_at_ties_and_extreme_scales(scale):
    eps = 2.0 ** -52
    a = np.array([1.0, 1.0])
    b = np.array([-1.0, -(1.0 + eps)])     # -a turned clockwise by a hair
    cases = [
        ([a, b, (1.0, -1.0)], False),
        ([a, b, (-1.0, 1.0)], True),
        ([a, -a], True),
        ([a, 2.0 * a, (1.0, -1.0)], False),
        ([a, -2.0 * a, (1.0, -1.0)], True),
        # (1 + eps) * (1 - eps/2) and 1 * 1 round to the same product, but
        # the two vectors are not collinear, so they do not enclose
        ([(1.0 + eps, 1.0), (-1.0, -(1.0 - eps / 2))], False),
        ([(1.0 + eps, 1.0), (-(1.0 + eps), -1.0)], True),
    ]
    for vectors, expected in cases:
        vs = np.array(vectors, dtype=float) * scale
        assert hull_contains_origin(vs) is expected, vectors
        assert origin_in_hull(vs) is expected, (vectors, scale)


# ---------------------------------------------------------------------------
# interior triangles
# ---------------------------------------------------------------------------


def _fieldset(problem, n1, n2=None):
    g = build_grid(problem.lower, problem.upper, n1, n2 or n1)
    return build_fieldset(problem, g)


def test_linear_objectives_have_no_critical_triangles():
    p = BiObjectiveProblem(
        name="halfplane",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1, x1 + x2),
    )
    fs = _fieldset(p, 21)
    triangles, mask = interior_criticality(fs.g1, fs.g2, fs.grid, fs.zero_tol)
    assert triangles.shape[0] == 0
    assert not mask.any()


def test_bisphere_critical_triangles_hug_the_connecting_segment():
    p = make_bisphere()
    fs = _fieldset(p, 101)
    g = fs.grid
    triangles, mask = interior_criticality(fs.g1, fs.g2, g, fs.zero_tol)
    assert triangles.shape[0] > 0
    ci, cj = triangle_corners(triangles)
    corner_x1 = g.x1[ci]
    corner_x2 = g.x2[cj]
    # never further than one cell off the segment {x2=0, |x1|<=1}
    assert np.abs(corner_x2).max() <= g.s2 + 1e-15
    assert corner_x1.min() >= -1.0 - 2 * g.s1
    assert corner_x1.max() <= 1.0 + 2 * g.s1
    # each triangle touches the segment row itself
    assert (np.abs(corner_x2).min(axis=1) == 0.0).all()
    # every interior grid point strictly between the centers is flagged
    on_segment = (np.abs(g.x1) < 1.0)[:, None] & (g.x2 == 0.0)[None, :]
    assert (mask & on_segment).sum() == on_segment.sum()


def test_triangle_list_matches_pointwise_hull_test():
    # hand-built 2x2 gradient field; per-corner gradient pairs do not
    # enclose the origin, but one triangle's six directions jointly do
    A = ((-0.1, 1.0), (1.0, -0.5))
    B = ((-0.1, -1.0), (1.0, 0.5))
    C = ((1.0, 0.2), (0.3, -1.0))
    D = A
    g1 = np.zeros((2, 2, 2))
    g2 = np.zeros((2, 2, 2))
    for (i, j), (v1, v2) in zip(((0, 0), (1, 0), (0, 1), (1, 1)),
                                (A, B, C, D)):
        g1[i, j] = v1
        g2[i, j] = v2

    for v1, v2 in (A, B, C):
        assert origin_in_hull([v1, v2]) is False
    assert origin_in_hull([A[0], A[1], B[0], B[1], C[0], C[1]]) is True

    grid = build_grid((0.0, 0.0), (1.0, 1.0), 2, 2)
    triangles, mask = interior_criticality(g1, g2, grid)
    got = {tuple(r) for r in triangles.tolist()}

    expected = set()
    for di, dj in ORIENTATIONS:
        i = 0 if di == 1 else 1
        j = 0 if dj == 1 else 1
        corners = [(i, j), (i + di, j), (i, j + dj)]
        six = [g1[a, b] for a, b in corners] + [g2[a, b] for a, b in corners]
        if origin_in_hull(six):
            expected.add((i, j, di, dj))
    assert got == expected
    assert (0, 0, 1, 1) in got  # the A/B/C triangle
    assert mask[0, 0] and mask[1, 0] and mask[0, 1]


def _triangles_where(g1, g2, encloses):
    """(every, hits): the triangles (i, j, di, dj) of all four orientations,
    and those whose six corner gradients (g1, then g2) pass ``encloses``."""
    n1, n2 = g1.shape[:2]
    every, hits = set(), set()
    for di, dj in ORIENTATIONS:
        for i in range(n1):
            for j in range(n2):
                if not (0 <= i + di < n1 and 0 <= j + dj < n2):
                    continue
                corners = [(i, j), (i + di, j), (i, j + dj)]
                every.add((i, j, di, dj))
                if encloses(np.array([g[c] for g in (g1, g2)
                                      for c in corners])):
                    hits.add((i, j, di, dj))
    return every, hits


@pytest.mark.parametrize("seed,zero_tol", [(0, 0.0), (1, 0.0), (2, 1.5),
                                           (3, 0.0), (4, 1.5)])
def test_interior_criticality_matches_scalar_hull_test(seed, zero_tol):
    # the grid kernel must flag exactly the triangles whose six corner
    # gradients pass the oracle-tested origin_in_hull, in every orientation
    rng = np.random.default_rng(seed)
    n1, n2 = 9, 7
    g1 = rng.integers(-4, 9, size=(n1, n2, 2)).astype(float)
    g2 = rng.integers(-4, 9, size=(n1, n2, 2)).astype(float)
    for g in (g1, g1, g2):
        g[rng.integers(n1), rng.integers(n2)] = 0.0
    grid = build_grid((0.0, 0.0), (1.0, 1.0), n1, n2)
    triangles, mask = interior_criticality(g1, g2, grid, zero_tol)
    got = {tuple(r) for r in triangles.tolist()}
    checked, expected = _triangles_where(
        g1, g2, lambda six: origin_in_hull(six, zero_tol))
    assert got == expected
    assert 0 < len(expected) < len(checked)
    ci, cj = triangle_corners(triangles)
    corner_mask = np.zeros((n1, n2), dtype=bool)
    corner_mask[ci.ravel(), cj.ravel()] = True
    assert np.array_equal(mask, corner_mask)


def _oracle_triangles(g1, g2, zero_tol=0.0):
    """Every critical triangle by the zero-gradient rule and the rational
    oracle."""
    def critical(six):
        small = np.hypot(six[:, 0], six[:, 1]) < zero_tol
        return bool(small.any()) or hull_contains_origin(six)
    return _triangles_where(g1, g2, critical)[1]


def _assert_triangle_contract(triangles, mask, shape):
    assert triangles.dtype == np.int32 and triangles.shape[1:] == (4,)
    assert mask.dtype == bool and mask.shape == shape
    # rows run orientation by orientation, then row-major
    order = np.array([ORIENTATIONS.index(tuple(o)) for o in
                      triangles[:, 2:].tolist()], dtype=np.int64)
    key = (order * shape[0] + triangles[:, 0]) * shape[1] + triangles[:, 1]
    assert (np.diff(key) > 0).all()
    ci, cj = triangle_corners(triangles)
    corner_mask = np.zeros(shape, dtype=bool)
    corner_mask[ci.ravel(), cj.ravel()] = True
    assert np.array_equal(mask, corner_mask)


@pytest.mark.parametrize("scale", _EXTREME_SCALES, ids=_SCALE_IDS)
@pytest.mark.parametrize("shape", [(8, 9), (2, 9), (9, 2), (2, 2)])
def test_interior_criticality_matches_exact_oracle(shape, scale):
    # random directions, with many pairs on the decision boundary: g2 is an
    # exact power-of-two multiple of +-g1 at a third of the points, and
    # some gradients repeat a neighbour's, so cross products tie exactly
    rng = np.random.default_rng(sum(shape))
    found = set()
    for _ in range(6):
        g1 = rng.normal(size=shape + (2,))
        g2 = rng.normal(size=shape + (2,))
        tie = rng.random(shape) < 0.35
        g2[tie] = (g1[tie] * rng.choice([-1.0, 1.0], size=(tie.sum(), 1))
                   * 2.0 ** rng.integers(-3, 4, size=(tie.sum(), 1)))
        copy = rng.random(shape) < 0.2
        g1[copy] = np.roll(g1, 1, axis=1)[copy]
        g1 *= scale
        g2 *= scale
        grid = build_grid((0.0, 0.0), (1.0, 1.0), *shape)
        triangles, mask = interior_criticality(g1, g2, grid)
        _assert_triangle_contract(triangles, mask, shape)
        expected = _oracle_triangles(g1, g2)
        assert {tuple(r) for r in triangles.tolist()} == expected
        found |= expected
    assert found


def test_kursawe_triangle_outside_half_plane_is_not_critical():
    # triangle (751, 751, -1, 1) of kursawe at 1000x1000: the six gradients
    # (g1 then g2 at P, H and V) lie strictly inside an open half-plane, a
    # case that rounded arctan2 angles get wrong
    P = ((0.693855923894092, 0.693855923894092),
         (-90.92693057689819, -90.92693057689817))
    H = ((0.6934523496710467, 0.696220643205697),
         (-92.92632681945467, -90.92693057689817))
    V = ((0.6914972902845625, 0.6942468029161877),
         (-90.92693057689822, -85.51822519301255))
    six = [P[0], H[0], V[0], P[1], H[1], V[1]]
    assert hull_contains_origin(six) is False
    assert origin_in_hull(six) is False
    # the same triangle on a 2x2 grid: anchor (1, 0), H (0, 0), V (1, 1)
    g1 = np.empty((2, 2, 2))
    g2 = np.empty((2, 2, 2))
    for (i, j), (v1, v2) in zip(((1, 0), (0, 0), (1, 1), (0, 1)),
                                (P, H, V, P)):
        g1[i, j], g2[i, j] = v1, v2
    grid = build_grid((0.0, 0.0), (1.0, 1.0), 2, 2)
    triangles, _ = interior_criticality(g1, g2, grid)
    assert (1, 0, -1, 1) not in {tuple(r) for r in triangles.tolist()}
    assert {tuple(r) for r in triangles.tolist()} == _oracle_triangles(g1, g2)


def test_sub_tolerance_gradient_blocks_the_certificate():
    # every gradient points the same way, so each cell has a half-plane
    # certificate; a centre gradient that is non-zero but below zero_tol
    # must still make the four triangles of every orientation touching it
    # critical
    g1 = np.zeros((3, 3, 2))
    g2 = np.zeros((3, 3, 2))
    g1[...] = (1.0, 0.0)
    g2[...] = (1.0, 0.25)
    g1[1, 1] = (1e-3, 0.0)
    grid = build_grid((0.0, 0.0), (1.0, 1.0), 3, 3)
    triangles, mask = interior_criticality(g1, g2, grid)
    _assert_triangle_contract(triangles, mask, (3, 3))
    assert triangles.shape[0] == 0
    triangles, mask = interior_criticality(g1, g2, grid, zero_tol=1e-2)
    _assert_triangle_contract(triangles, mask, (3, 3))
    assert triangles.shape[0] == 12
    assert {(di, dj) for di, dj in triangles[:, 2:].tolist()} == set(
        ORIENTATIONS)
    ci, cj = triangle_corners(triangles)
    assert ((ci == 1) & (cj == 1)).any(axis=1).all()
    assert {tuple(r) for r in triangles.tolist()} == _oracle_triangles(
        g1, g2, zero_tol=1e-2)


@pytest.mark.parametrize("spec,farthest", [
    ("-1,0,1,0", 0.0),
    ("-1,-1,1,1", np.sqrt(0.5)),            # 0.71 h
    ("-1,-0.5,1,0.5", 3.0 / np.sqrt(5.0)),  # 1.34 h
])
def test_bisphere_recall(spec, farthest):
    # every grid point within h/2 of the segment between the centres is
    # efficient, and no efficient point lies farther from it than the
    # figure pinned for the segment's direction
    a, b = np.array(spec.split(","), dtype=float).reshape(2, 2)
    p = make_bisphere(a, b)
    for n in (101, 201, 401):
        g = build_grid(p.lower, p.upper, n, n)
        efficient = classify(build_fieldset(p, g)).efficient_mask
        X = np.stack(np.meshgrid(g.x1, g.x2, indexing="ij"), axis=-1)
        t = np.clip((X - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
        foot = a + t[..., None] * (b - a)
        dist = np.hypot(*np.moveaxis(X - foot, -1, 0))
        h = g.s1
        assert efficient[dist <= h / 2].all(), (spec, n)
        assert dist[efficient].max() <= farthest * h + 1e-12, (spec, n)


def test_first_order_pass_at_an_opposed_and_a_zero_rule_anchor(monkeypatch):
    # every cell of an aligned field has a half-plane certificate, except
    # around two anchors whose unit sum is the zero vector: at (1, 1)
    # g2 = -g1, where the sum is exactly 0 without the zero rule, and at
    # (3, 2) g1 = 0, the zero rule; the fused pass must flag the oracle's
    # triangles, as the call without ``mo`` does, and write the bytes of
    # the unit sum that FieldSet.mo_raw takes of the same gradients
    g1 = np.zeros((5, 4, 2))
    g2 = np.zeros((5, 4, 2))
    g1[...] = (1.0, 0.0)
    g2[...] = (1.0, 0.25)
    g1[1, 1], g2[1, 1] = (0.6, 0.8), (-0.6, -0.8)
    g1[3, 2] = (0.0, 0.0)
    grid = build_grid((0.0, 0.0), (1.0, 1.0), 5, 4)
    mo_raw = _unit_sum(g1, g2, 0.0)[0]
    assert mo_raw[1, 1].tolist() == [0.0, 0.0]
    assert mo_raw[3, 2].tolist() == [0.0, 0.0]
    expected = _oracle_triangles(g1, g2)
    assert expected
    for cpus in (1, 2, 3):
        monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
        for rows in (1, 2, 3, 32):
            monkeypatch.setattr(grid_module, "BLOCK_ROWS", rows)
            mo = np.full(grid.shape + (2,), np.nan)
            fused = _interior(lambda p: (g1[p], g2[p]), grid, 0.0, mo)
            plain = interior_criticality(g1, g2, grid)
            _assert_triangle_contract(*fused, grid.shape)
            assert {tuple(r) for r in fused[0].tolist()} == expected
            assert fused[0].tobytes() == plain[0].tobytes()
            assert np.array_equal(fused[1], plain[1])
            assert mo.tobytes() == mo_raw.tobytes(), (cpus, rows)


def test_fritz_john_point_forces_criticality():
    # a vanishing single-objective gradient at any corner makes all four
    # triangles touching it critical regardless of the other directions
    g1 = np.zeros((3, 3, 2))
    g2 = np.zeros((3, 3, 2))
    g1[...] = (1.0, 0.0)
    g2[...] = (1.0, 0.25)
    g1[1, 1] = (0.0, 0.0)
    grid = build_grid((0.0, 0.0), (1.0, 1.0), 3, 3)
    triangles, mask = interior_criticality(g1, g2, grid)
    ci, cj = triangle_corners(triangles)
    touches_center = ((ci == 1) & (cj == 1)).any(axis=1)
    assert touches_center.all() and triangles.shape[0] == 12
    assert mask[1, 1]


def test_triangle_second_order_thresholds():
    # the mask holds div(-mo) <= div_tol; a triangle is efficient iff it
    # is True at all three corners, and no other point is read
    triangles = np.array([[1, 1, 1, 1], [1, 1, -1, -1]], dtype=np.int32)
    corners = [[(1, 1), (2, 1), (1, 2)], [(1, 1), (0, 1), (1, 0)]]
    for t, own in enumerate(corners):
        attracting = np.ones((3, 3), dtype=bool)
        for point in np.ndindex(3, 3):
            attracting[point] = False
            efficient = triangle_second_order(triangles, attracting).tolist()
            assert efficient[t] == (point not in own), (t, point)
            attracting[point] = True
    attracting = np.zeros((3, 3), dtype=bool)
    for i, j in corners[0]:
        attracting[i, j] = True
    assert triangle_second_order(triangles, attracting).tolist() == [True,
                                                                     False]
    assert triangle_second_order(np.empty((0, 4), np.int32),
                                 attracting).size == 0


def test_second_order_threshold_is_inclusive():
    # exactly opposed gradients make every triangle critical, and their
    # unit sum mo is 0, so div(-mo) is 0 everywhere and so is div_tol: a
    # divergence equal to the tolerance passes.  f1 = x1 and f2 = -x1 on a
    # grid of unit spacing give g1 = (1, 0) and g2 = (-1, 0) exactly
    g = build_grid((0.0, 0.0), (6.0, 4.0), 7, 5)
    f1 = np.repeat(g.x1[:, None], g.n2, axis=1)
    fs = FieldSet(grid=g, f1=f1, f2=-f1, zero_tol=0.0)
    assert (fs.g1 == (1.0, 0.0)).all() and (fs.g2 == (-1.0, 0.0)).all()
    cm = classify(fs)
    assert cm.div_tol == 0.0
    assert cm.triangles.shape[0] == 6 * 4 * len(ORIENTATIONS) == 96
    assert cm.triangle_efficient.all()
    assert (cm.labels >= PointClass.EFFICIENT_INTERIOR).all()


# ---------------------------------------------------------------------------
# boundary pairs and rotation
# ---------------------------------------------------------------------------


def _axis_aligned_problem():
    return BiObjectiveProblem(
        name="axes",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 + 0.0 * x2, x2 + 0.0 * x1),
    )


def test_boundary_pairs_for_axis_aligned_objectives():
    fs = _fieldset(_axis_aligned_problem(), 11)
    pairs, crit, eff, mask = boundary_criticality(
        fs.g1, fs.g2, fs.mo_raw, fs.grid)
    # f1 has zero tangential slope on left/right edges, f2 on bottom/top:
    # no strict common descent anywhere, so every pair is critical
    assert crit.all()
    by_edge = {e: eff[pairs[:, 4] == e] for e in range(4)}
    assert by_edge[0].all()          # bottom: descent (-1,-1) exits
    assert not by_edge[1].any()      # top: descent re-enters
    assert by_edge[2].all()          # left
    assert not by_edge[3].any()      # right
    assert mask[:, 0].all() and mask[0, :].all()


def test_boundary_pairs_opposed_tangential_slopes():
    # f = (x1, -x1): tangential slopes oppose on bottom/top edges, so no
    # common descent exists there; left/right edges see zero slopes only
    p = BiObjectiveProblem(
        name="tug",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 + 0.0 * x2, -x1 + 0.0 * x2),
    )
    fs = _fieldset(p, 9)
    pairs, crit, _, _ = boundary_criticality(fs.g1, fs.g2, fs.mo_raw, fs.grid)
    assert crit.all()  # opposed or zero slopes: never a strict common descent


def test_boundary_pairs_noncritical_when_common_descent_exists():
    # f = (x1 + x2, 2 x1 + x2): moving in -x1 descends both objectives on
    # bottom/top edges; moving in -x2 descends both on left/right edges
    p = BiObjectiveProblem(
        name="slide",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 + x2, 2.0 * x1 + x2),
    )
    fs = _fieldset(p, 9)
    pairs, crit, eff, mask = boundary_criticality(
        fs.g1, fs.g2, fs.mo_raw, fs.grid)
    assert not crit.any()
    assert not eff.any()
    assert not mask.any()


def _rotated(mo, skip):
    """A rotated copy of ``mo``: ``rotate_boundary_field`` writes in place."""
    out = mo.copy()
    assert rotate_boundary_field(out, skip) is None
    return out


def test_rotate_boundary_field_projects_exiting_descent():
    p = BiObjectiveProblem(
        name="slide",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 + x2, 2.0 * x1 + x2),
    )
    fs = _fieldset(p, 9)
    skip = np.zeros(fs.grid.shape, dtype=bool)
    rotated = _rotated(fs.mo_raw, skip)
    # ascent mo has positive x and y components everywhere, so descent
    # exits through bottom and left; those edges lose the normal component
    assert (fs.mo_raw[..., 0] > 0).all() and (fs.mo_raw[..., 1] > 0).all()
    assert (rotated[:, 0, 1] == 0.0).all()       # bottom: y zeroed
    assert (rotated[0, :, 0] == 0.0).all()       # left: x zeroed
    # away from the corner each edge keeps its tangential component
    assert np.array_equal(rotated[1:, 0, 0], fs.mo_raw[1:, 0, 0])
    assert np.array_equal(rotated[1:, -1], fs.mo_raw[1:, -1])   # top kept
    assert np.array_equal(rotated[-1, 1:], fs.mo_raw[-1, 1:])   # right kept
    assert np.array_equal(rotated[1:-1, 1:-1], fs.mo_raw[1:-1, 1:-1])
    # corner (0,0) lies on both edges: both components zeroed
    assert np.array_equal(rotated[0, 0], (0.0, 0.0))
    # skip mask preserves the raw field
    skip[:, 0] = True
    kept = _rotated(fs.mo_raw, skip)
    assert np.array_equal(kept[1:, 0], fs.mo_raw[1:, 0])


def test_rotation_only_triggers_on_exiting_descent():
    # descent points inward on the bottom edge (ascent mo_y < 0): no change
    p = BiObjectiveProblem(
        name="liftoff",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 - x2, 2.0 * x1 - x2),
    )
    fs = _fieldset(p, 9)
    skip = np.zeros(fs.grid.shape, dtype=bool)
    rotated = _rotated(fs.mo_raw, skip)
    assert (fs.mo_raw[..., 1] < 0).all()
    # the bottom edge keeps its field except the corner shared with the
    # left edge, where ascent mo_x > 0 still zeroes the x-component
    assert np.array_equal(rotated[1:, 0], fs.mo_raw[1:, 0])
    assert rotated[0, 0, 0] == 0.0 and rotated[0, 0, 1] == fs.mo_raw[0, 0, 1]
    assert (rotated[:, -1, 1] == 0.0).all()                     # top zeroed


def test_boundary_golden_on_non_square_grid():
    # 6x4 grid of a problem without symmetry: every other boundary test uses
    # a square grid, where swapping the roles of n1 and n2 goes unnoticed
    p = BiObjectiveProblem(
        name="tilt",
        lower=(0.0, 0.0), upper=(5.0, 3.0),
        fn=lambda x1, x2: ((x1 + 0.7) ** 2 + 0.8 * (x2 - 1.4) ** 2,
                           (x1 - 2.6) ** 2 + 0.5 * (x2 + 1.3) ** 2
                           - 0.3 * x1 * x2),
    )
    fs = _fieldset(p, 6, 4)
    pairs, crit, eff, mask = boundary_criticality(
        fs.g1, fs.g2, fs.mo_raw, fs.grid)
    assert pairs.dtype == np.int32
    assert pairs.tolist() == [
        [0, 0, 1, 0, 0], [1, 0, 2, 0, 0], [2, 0, 3, 0, 0], [3, 0, 4, 0, 0],
        [4, 0, 5, 0, 0],
        [0, 3, 1, 3, 1], [1, 3, 2, 3, 1], [2, 3, 3, 3, 1], [3, 3, 4, 3, 1],
        [4, 3, 5, 3, 1],
        [0, 0, 0, 1, 2], [0, 1, 0, 2, 2], [0, 2, 0, 3, 2],
        [5, 0, 5, 1, 3], [5, 1, 5, 2, 3], [5, 2, 5, 3, 3],
    ]
    assert "".join(str(int(c)) for c in crit) == "1110011110110110"
    assert "".join(str(int(e)) for e in eff) == "0110000000010000"
    assert ["".join(str(int(v)) for v in row) for row in mask] == [
        "1111", "1001", "1001", "1001", "0001", "1110"]
    # classify skips first-order critical points: one bottom point rotates
    rotated = _rotated(fs.mo_raw, mask)
    assert np.argwhere(rotated != fs.mo_raw).tolist() == [[4, 0, 1]]

    # hand-built field with both signs on every edge and a scattered skip
    rng = np.random.default_rng(7)
    mo = rng.integers(-2, 3, size=(6, 4, 2)).astype(float)
    skip = rng.random((6, 4)) < 0.25
    rotated = _rotated(mo, skip)
    assert np.argwhere(rotated != mo).tolist() == [
        [0, 1, 0], [0, 3, 0], [0, 3, 1], [4, 0, 1], [5, 3, 0], [5, 3, 1]]
    assert (rotated[rotated != mo] == 0.0).all()


# ---------------------------------------------------------------------------
# dominance trim and full classification
# ---------------------------------------------------------------------------


def test_neighbor_dominated_mask_synthetic():
    f1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    f2 = np.array([[4.0, 3.0], [2.0, 1.0]])
    # every point is better in one objective than all its neighbours
    assert not neighbor_dominated_mask(f1, f2).any()

    f1 = np.array([[0.0, 1.0], [1.0, 1.0]])
    f2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    dom = neighbor_dominated_mask(f1, f2)
    # (0,0) dominates (0,1) and (1,0) strictly; (1,1) ties f2 with (1,0)
    # but (0,0) dominates it diagonally
    assert dom.tolist() == [[False, True], [True, True]]

    # exactly equal objective vectors do not dominate
    f = np.full((3, 3), 2.5)
    assert not neighbor_dominated_mask(f, f).any()


def test_classify_bisphere_trim_demotes_offset_rows():
    p = make_bisphere()
    fs = _fieldset(p, 201)
    cm = classify(fs)
    g = fs.grid
    mid = 100
    assert g.x2[mid] == 0.0
    inner = np.abs(g.x1) <= 0.9
    labels = cm.labels
    assert (labels[inner, mid] == PointClass.EFFICIENT_INTERIOR).all()
    assert (labels[inner, mid - 1] == PointClass.CRITICAL_ONLY).all()
    assert (labels[inner, mid + 1] == PointClass.CRITICAL_ONLY).all()
    assert cm.n_trimmed > 0
    # after the trim the efficient set is exactly the segment row
    eff = cm.efficient_mask
    i_eff, j_eff = np.nonzero(eff)
    assert (j_eff == mid).all()
    assert np.abs(g.x1[i_eff]).max() <= 1.0 + 2 * g.s1


def test_classify_label_precedence_and_counts():
    fs = _fieldset(make_sgk(), 101)
    cm = classify(fs)
    assert cm.labels.dtype == np.uint8
    counts = cm.counts()
    assert set(counts) == set(CLASS_NAMES.values())
    assert sum(counts.values()) == 101 * 101
    assert counts["LocallyEfficientInterior"] > 0
    # classify records the rotated field on the input
    assert fs.mo is not None and fs.mo.shape == (101, 101, 2)
    assert cm.div_tol > 0.0


def test_classify_is_deterministic():
    p = make_sgk()
    runs = []
    for _ in range(2):
        fs = _fieldset(p, 81)
        runs.append((classify(fs), fs))
    a, b = runs[0][0], runs[1][0]
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.triangle_efficient, b.triangle_efficient)
    assert np.array_equal(a.pairs, b.pairs)
    assert np.array_equal(a.pair_efficient, b.pair_efficient)
    assert a.div_tol == b.div_tol and a.n_trimmed == b.n_trimmed
    assert np.array_equal(runs[0][1].mo, runs[1][1].mo)


def test_classify_leaves_its_inputs_untouched():
    # classify builds mo itself and rotates that array in place: it must
    # write neither f1 nor f2, and the gradients g1 and g2 and the unit sum
    # mo_raw, which the set recomputes from them, must keep their bytes
    fs = _fieldset(make_kursawe(), 41, 33)
    assert fs.mo is None
    inputs = (fs.f1, fs.f2)
    before = [a.tobytes() for a in inputs + (fs.g1, fs.g2, fs.mo_raw)]
    classify(fs)
    assert all(a is b for a, b in zip((fs.f1, fs.f2), inputs))
    assert [a.tobytes() for a in inputs + (fs.g1, fs.g2, fs.mo_raw)] == before
    for k in ("g1", "g2", "mo_raw"):              # a new array each time
        assert getattr(fs, k) is not getattr(fs, k), k
    assert not np.array_equal(fs.mo, fs.mo_raw)   # the rotation took effect


def _oracle_records(cm, fs) -> list:
    """The critical-points JSON records, j1 fastest, with div(-mo) from the
    whole-grid oracle."""
    g, div = cm.grid, descent_divergence(fs)
    return [{"j1": i + 1, "j2": j + 1, "x1": float(g.x1[i]),
             "x2": float(g.x2[j]),
             "class": CLASS_NAMES[PointClass(int(cm.labels[i, j]))],
             "div": float(div[i, j]), "f1": float(fs.f1[i, j]),
             "f2": float(fs.f2[i, j])}
            for j in range(g.n2) for i in range(g.n1) if cm.labels[i, j]]


@pytest.mark.parametrize("name", ["mindist", "kursawe"])
@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (2, 37), (37, 2),
                                   (61, 47)])
def test_export_critical_points_json_schema(tmp_path, monkeypatch, name,
                                            shape):
    # every record, with the div(-mo) of the whole-grid oracle: the export
    # computes it only in the row blocks that hold critical points, with
    # one-row blocks, blocks that end inside the grid and one block, on one
    # to three threads; some critical points lie on the box edges, where the
    # stencil is one-sided
    p = get_problem(name)
    fs = _fieldset(p, *shape)
    cm = classify(fs)
    records = _oracle_records(cm, fs)
    assert records
    assert any(r["j1"] in (1, shape[0]) or r["j2"] in (1, shape[1])
               for r in records)
    expected = (json.dumps(records, indent=1) + "\n").encode()
    for rows in (1, 3, 32):
        monkeypatch.setattr(grid_module, "BLOCK_ROWS", rows)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
            out = tmp_path / f"crit{rows}_{cpus}.json"
            export_critical_points_json(out, cm, fs)
            assert out.read_bytes() == expected, (rows, cpus)


def test_export_critical_points_json_golden(tmp_path):
    # two spheres centred on the lower edge: the segment between the centres
    # is efficient, the middle row is non-critical and left out
    p = BiObjectiveProblem(
        name="pair", lower=(0.0, 0.0), upper=(3.0, 2.0),
        fn=lambda x1, x2: (x1 ** 2 + x2 ** 2, (x1 - 1.0) ** 2 + x2 ** 2),
    )
    fs = _fieldset(p, 4, 3)
    cm = classify(fs)
    out = tmp_path / "crit.json"
    export_critical_points_json(out, cm, fs)
    rows = [
        (1, 1, 0.0, 0.0, "LocallyEfficientBoundary", -1.2690680106266528, 0.0, 1.0),
        (2, 1, 1.0, 0.0, "LocallyEfficientBoundary", -1.1921780312592134, 1.0, 0.0),
        (3, 1, 2.0, 0.0, "CriticalOnly", -0.9819895475209734, 4.0, 1.0),
        (1, 3, 0.0, 2.0, "CriticalOnly", -0.663212410326425, 4.0, 5.0),
        (2, 3, 1.0, 2.0, "CriticalOnly", -0.8022936112639107, 5.0, 4.0),
        (3, 3, 2.0, 2.0, "CriticalOnly", -0.7826796729882696, 8.0, 5.0),
    ]
    keys = ("j1", "j2", "x1", "x2", "class", "div", "f1", "f2")
    records = [dict(zip(keys, r)) for r in rows]
    assert out.read_bytes() == (json.dumps(records, indent=1) + "\n").encode()


def test_export_critical_points_json_matches_json_dump(tmp_path):
    # with critical points and with none
    fs = _fieldset(make_aspar(), 41, 33)
    cm = classify(fs)
    out = tmp_path / "crit.json"
    export_critical_points_json(out, cm, fs)
    records = json.loads(out.read_text())
    assert len(records) == int((cm.labels != 0).sum())
    assert out.read_text() == json.dumps(records, indent=1) + "\n"
    export_critical_points_json(
        out, replace(cm, labels=np.zeros_like(cm.labels)), fs)
    assert out.read_text() == json.dumps([], indent=1) + "\n"


def test_export_critical_points_json_chunks_join_seamlessly(tmp_path,
                                                           monkeypatch):
    # chunk seams after the first record, inside the records, before and at
    # the last one, and a single chunk longer than the records
    fs = _fieldset(make_aspar(), 41, 33)
    cm = classify(fs)
    records = _oracle_records(cm, fs)
    n = len(records)
    assert n > 100
    expected = (json.dumps(records, indent=1) + "\n").encode()
    for rows in (1, 3, 64, n - 1, n, n + 1):
        monkeypatch.setattr(criticality_module, "CSV_BLOCK_ROWS", rows)
        out = tmp_path / f"chunked{rows}.json"
        export_critical_points_json(out, cm, fs)
        assert out.read_bytes() == expected


def _json_peak(path, critmap, fields):
    """Traced peak bytes of a critical-points JSON export, above what was
    live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export_critical_points_json(path, critmap, fields)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_export_critical_points_json_memory_per_record(tmp_path):
    # one 200x200 grid with its first 5,000 and 35,000 points (in scan
    # order) critical: the growth of the traced peak per added record is
    # what the export holds per record.  Measured with numpy 2.4: 16.7 B,
    # its two index arrays, when the records are written in chunks; 719 B
    # when all of them are formatted and joined before the write
    fs = _fieldset(make_kursawe(), 200)
    cm = classify(fs)
    scan = np.arange(200 * 200).reshape(200, 200, order="F")   # j1 fastest
    peaks = [_json_peak(tmp_path / f"{k}.json",
                        replace(cm, labels=(scan < k).astype(cm.labels.dtype)),
                        fs)
             for k in (5_000, 35_000)]
    assert (peaks[1] - peaks[0]) / 30_000 < 64.0


def test_export_critical_points_json_holds_no_whole_grid_field(tmp_path,
                                                               monkeypatch):
    # mindist on 200x400 and 800x400 grids, one thread: both have full row
    # blocks of the same width, and 256-record chunks hold the text of one
    # chunk at both sizes (1,396 and 2,596 critical points), so the growth
    # of the traced peak per added point is what the export holds per grid
    # point.  Measured with numpy 2.4: 0.13 B, the per-record arrays, with
    # the divergence computed only in the blocks that hold critical points;
    # 8.1 B while it built the whole divergence.  On 200^2 and 400^2 grids the block temporaries grow with
    # the row width: 1.7 and 9.7 B
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    monkeypatch.setattr(criticality_module, "CSV_BLOCK_ROWS", 256)
    p = get_problem("mindist")
    peaks = []
    for n1 in (200, 800):
        fs = _fieldset(p, n1, 400)
        cm = classify(fs)
        peaks.append(_json_peak(tmp_path / f"{n1}.json", cm, fs))
    assert (peaks[1] - peaks[0]) / (600 * 400) < 2.0


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
def test_tolerances_must_be_finite_and_nonnegative(tol):
    p = make_bisphere()
    g = build_grid(p.lower, p.upper, 9, 9)
    with pytest.raises(ValueError, match="zero_tol_rel must be finite"):
        build_fieldset(p, g, zero_tol_rel=tol)
    with pytest.raises(ValueError, match="div_tol_rel must be finite"):
        classify(build_fieldset(p, g), div_tol_rel=tol)



def test_overflowing_absolute_tolerances_raise():
    # kursawe's gradient scale at 20^2 is about 3.15 and sgk's largest
    # descent divergence at 50^2 about 68: times 1e308 both overflow
    p = make_kursawe()
    g = build_grid(p.lower, p.upper, 20, 20)
    with pytest.raises(ValueError, match=r"zero_tol_rel 1e\+308 times the "
                                         r"gradient scale 3\.15"):
        build_fieldset(p, g, zero_tol_rel=1e308)
    p = make_sgk()
    fs = build_fieldset(p, build_grid(p.lower, p.upper, 50, 50))
    with pytest.raises(ValueError, match=r"div_tol_rel 1e\+308 times the "
                                         r"largest divergence 67\.8"):
        classify(fs, div_tol_rel=1e308)


@pytest.mark.parametrize("rows", [1, 3, 50])
def test_a_nan_divergence_reaches_the_tolerance_check(rows, monkeypatch):
    # on a 40x40 grid of subnormal spacing the descent divergence of a
    # random field overflows, and opposite infinities meet in NaN; the first
    # 20 rows hold constant objectives, whose field and divergence are 0.
    # classify takes the largest magnitude from its per-block extremes, and
    # a NaN in a later block must still stop it, as a failed evaluation
    # rather than a bad tolerance and with no RuntimeWarning from any thread
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    monkeypatch.setattr(grid_module, "BLOCK_ROWS", rows)
    g = build_grid((0.0, 0.0), (1e-308, 1e-308), 40, 40)
    rng = np.random.default_rng(0)
    # objectives of the grid's scale, so that their gradients are finite
    f1, f2 = np.zeros(g.shape), np.zeros(g.shape)
    f1[20:], f2[20:] = rng.normal(size=(2, 20, 40)) * 1e-308
    fs = FieldSet(grid=g, f1=f1, f2=f2, zero_tol=0.0)
    assert np.isfinite(fs.g1).all() and np.isfinite(fs.g2).all()
    with np.errstate(over="ignore", invalid="ignore"):
        div = -divergence(fs.mo_raw, g)
    assert not np.isnan(div[:18]).any() and np.isnan(div).any()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
        with pytest.raises(EvaluationError,
                           match="largest descent divergence is nan"):
            classify(fs)


def test_an_infinite_divergence_is_an_evaluation_error(monkeypatch):
    # mo = (2, 0) but (-2, 0) on row 30 of a subnormal grid: the x1
    # differences across that row overflow to -inf and +inf at separate
    # points, with no NaN.  f1 = f2 depends on x1 alone, rises along x1 and
    # falls only across row 30, so g1 = g2 = (+-c, 0) with c > 0.  The
    # reference divergence is taken on one thread, which the errstate
    # covers; classify sets its own in every thread of its divergence pass
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    g = build_grid((0.0, 0.0), (1e-308, 1e-308), 40, 40)
    steps = np.arange(40.0) * 10.0
    steps[30], steps[31] = 295.0, 289.0
    steps[32:] -= 20.0
    f1 = np.repeat(steps[:, None] * 1e-310, 40, axis=1)
    fs = FieldSet(grid=g, f1=f1, f2=f1.copy(), zero_tol=0.0)
    ascent = np.sign(fs.g1[..., 0])
    assert (fs.g1[..., 1] == 0.0).all() and (ascent[30] < 0).all()
    assert (np.delete(ascent, 30, axis=0) > 0).all()
    with np.errstate(over="ignore"):
        div = -divergence(fs.mo_raw, g)
    assert np.isinf(div).any() and not np.isnan(div).any()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
        with pytest.raises(EvaluationError,
                           match="largest descent divergence is inf"):
            classify(fs)


def test_div_tol_is_relative_to_the_largest_divergence_magnitude():
    # bisphere's descent divergence is negative everywhere and sgk's most
    # negative one beats its most positive one; on mindist at 31^2 the
    # positive side wins
    cases = [(make_bisphere(), 20), (make_sgk(), 50),
             (get_problem("mindist"), 31)]
    signs = []
    for p, n in cases:
        fs = _fieldset(p, n)
        for rel in (DIV_TOL_REL, 1e-3):
            cm = classify(fs, div_tol_rel=rel)
            div = descent_divergence(fs)
            assert cm.div_tol == rel * np.abs(div).max()
        signs.append((div.max() < 0.0, -div.min() > div.max()))
    assert signs == [(True, True), (False, True), (False, False)]


@pytest.mark.parametrize("name", ["bisphere", "aspar", "sgk", "mindist",
                                  "kursawe", "slide"])
@pytest.mark.parametrize("shape", [(31, 17), (17, 31), (2, 9), (9, 2),
                                   (200, 200)])
def test_boundary_verdicts_do_not_depend_on_the_rotation(name, shape):
    # the critical test reads only g1 and g2, and the efficiency test only
    # the outward components at endpoints of critical pairs, which the
    # rotation skips (and where it zeroes, the outward component was
    # negative, so "<= 0" would hold either way): after classify the
    # unrotated copy mo_raw is no longer needed for the boundary.  "slide"
    # rotates its whole bottom and left edges
    p = BiObjectiveProblem(name="slide", lower=(0.0, 0.0), upper=(1.0, 1.0),
                           fn=lambda x1, x2: (x1 + x2, 2.0 * x1 + x2))
    fs = _fieldset(p if name == "slide" else get_problem(name), *shape)
    classify(fs)
    raw = boundary_criticality(fs.g1, fs.g2, fs.mo_raw, fs.grid)
    rotated = boundary_criticality(fs.g1, fs.g2, fs.mo, fs.grid)
    for a, b in zip(raw[:3], rotated[:3]):
        assert np.array_equal(a, b)
