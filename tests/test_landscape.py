"""Dominance counts, components, descent-path heights, pipeline exports."""

import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (connected_components_flood, cost_landscape_brute,
                     dominance_counts_brute, gfh_walk, smaller_before_brute)
from paretoscape import (BiObjectiveProblem, CriticalityMap, FieldSet,
                         PointClass, analyze, available_problems,
                         connected_components, cost_landscape,
                         decompose_efficient_set, dominance_counts,
                         get_problem, gfh_heights, make_aspar, make_bisphere)
from paretoscape import landscape as landscape_module
from paretoscape.criticality import classify
from paretoscape.gradients import build_fieldset, divergence
from paretoscape.grid import build_grid, evaluate_grid
from paretoscape.landscape import (MODES, _smaller_before,
                                   export_decomposition_json,
                                   export_heights_csv)


def test_brute_counts_frozen():
    F = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert dominance_counts_brute(F).tolist() == [0, 1, 2]
    F = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    # duplicates never dominate each other; both dominate the third point
    assert dominance_counts_brute(F).tolist() == [0, 0, 2]
    F = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert dominance_counts_brute(F).tolist() == [0, 0]


def test_fast_counts_match_brute_with_heavy_ties():
    rng = np.random.default_rng(99)
    for _ in range(10):
        F = rng.integers(0, 5, size=(200, 2)).astype(float)
        assert np.array_equal(dominance_counts(F), dominance_counts_brute(F))
    for _ in range(5):
        F = rng.normal(size=(300, 2))
        assert np.array_equal(dominance_counts(F), dominance_counts_brute(F))
    # sprinkle exact duplicates into continuous data
    F = rng.normal(size=(120, 2))
    F[40:80] = F[0:40]
    assert np.array_equal(dominance_counts(F), dominance_counts_brute(F))


def _edge_case_inputs():
    rng = np.random.default_rng(5)
    ties = rng.integers(0, 40, size=(4000, 2)).astype(float)
    ties[2000:2600] = ties[:600]
    signed_zero = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, 1.0],
                            [1.0, -0.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    return {
        "empty": np.zeros((0, 2)),
        "one": np.array([[3.0, -2.0]]),
        "two_equal": np.array([[1.0, 1.0], [1.0, 1.0]]),
        "two_ordered": np.array([[2.0, 2.0], [1.0, 1.0]]),
        "all_equal": np.full((37, 2), -0.5),
        "signed_zero": signed_zero,
        "equal_f1": np.stack([np.zeros(50), rng.integers(0, 6, 50)], axis=1),
        "equal_f2": np.stack([rng.normal(size=50), np.full(50, 7.0)], axis=1),
        "ties_4000": ties,
    }


@pytest.mark.parametrize("case", sorted(_edge_case_inputs()))
def test_fast_counts_match_brute_on_edge_cases(case):
    F = _edge_case_inputs()[case]
    counts = dominance_counts(F)
    assert counts.dtype == np.int64 and counts.shape == (F.shape[0],)
    assert np.array_equal(counts, dominance_counts_brute(F))


@pytest.mark.parametrize("F", [
    np.zeros(4), np.zeros((4, 3)), np.zeros((2, 2, 2)),
    np.array([[0.0, 1.0], [np.nan, 0.0]]),
    np.array([[0.0, np.inf], [1.0, 0.0]]),
    np.array([[0.0, 1.0], [-np.inf, 0.0]]),
], ids=["1d", "three_columns", "3d", "nan", "inf", "minus_inf"])
def test_dominance_counts_rejects_bad_input(F):
    with pytest.raises(ValueError):
        dominance_counts(F)


def test_cost_landscape_total_order_2x2():
    g = build_grid((0.0, 0.0), (1.0, 1.0), 2, 2)
    f1 = np.array([[0.0, 2.0], [1.0, 3.0]])   # f1[i, j] = i + 2 j
    f2 = f1.copy()
    hf = cost_landscape(f1, f2, g)
    assert hf.values.tolist() == [[0, 2], [1, 3]]
    assert np.array_equal(hf.values, cost_landscape_brute(f1, f2))


def test_cost_landscape_invariant_under_monotone_transforms():
    rng = np.random.default_rng(17)
    g = build_grid((0.0, 0.0), (1.0, 1.0), 12, 12)
    f1 = rng.integers(-3, 4, size=(12, 12)).astype(float)
    f2 = rng.integers(-3, 4, size=(12, 12)).astype(float)
    base = cost_landscape(f1, f2, g).values
    transforms = [
        lambda v: 2.0 * v + 5.0,
        lambda v: v**3 + v,
        lambda v: 5.0 * v**3 + 2.0 * v + 1.0,
    ]
    for t in transforms:
        assert np.array_equal(base, cost_landscape(t(f1), t(f2), g).values)
        assert np.array_equal(base, cost_landscape(t(f1), f2, g).values)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
def test_smaller_before_int32_and_int64_match_brute(n):
    # dominance_counts picks int64 work arrays only past 2**31 - 1 points;
    # the counter's dtype follows p's, so both run here on the same inputs
    rng = np.random.default_rng(n)
    for p in (np.arange(n), np.arange(n)[::-1], rng.permutation(n),
              rng.permutation(n)):
        expected = smaller_before_brute(p)
        for dtype in (np.int32, np.int64):
            counts = _smaller_before(p.astype(dtype))
            assert counts.dtype == dtype
            assert np.array_equal(counts, expected), (dtype, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("column", ["f1", "f2"])
def test_cost_landscape_rejects_non_finite_objectives(bad, column):
    g = build_grid((0.0, 0.0), (1.0, 1.0), 3, 4)
    f = {"f1": np.zeros((3, 4)), "f2": np.arange(12.0).reshape(3, 4)}
    f[column][1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        cost_landscape(f["f1"], f["f2"], g)


def test_cost_landscape_of_int_objectives_matches_float_copies():
    rng = np.random.default_rng(23)
    g = build_grid((0.0, 0.0), (1.0, 1.0), 9, 7)
    f1 = rng.integers(-4, 5, size=(9, 7))
    f2 = rng.integers(-4, 5, size=(9, 7))
    counts = cost_landscape(f1, f2, g).values
    assert counts.dtype == np.int64
    assert np.array_equal(
        counts, cost_landscape(f1.astype(float), f2.astype(float), g).values)
    assert np.array_equal(counts, cost_landscape_brute(f1, f2))


def _cost_landscape_peak(problem, n1):
    """Traced peak bytes of cost_landscape on an n1 x 400 grid, above what
    was live before it."""
    g = build_grid(problem.lower, problem.upper, n1, 400)
    f1, f2 = evaluate_grid(problem, g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cost_landscape(f1, f2, g)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_cost_landscape_memory_per_point():
    # kursawe on 200x400 and 800x400 grids: the growth of the traced peak per
    # added point is what the counter holds per point.  Measured with numpy
    # 2.4: 66.6 B with int32 work arrays and the two columns counted as they
    # are; 124.8 B with int64 work arrays and a stacked (N, 2) float copy
    p = get_problem("kursawe")
    small, large = _cost_landscape_peak(p, 200), _cost_landscape_peak(p, 800)
    assert (large - small) / (600 * 400) < 75.0


def test_connected_components_synthetic():
    empty = np.zeros((4, 4), dtype=bool)
    labels, n = connected_components(empty)
    assert n == 0 and (labels == -1).all()

    diag = np.eye(5, dtype=bool)
    labels, n = connected_components(diag)
    assert n == 1  # diagonal touches via 8-connectivity
    assert labels[0, 0] == 0 and labels[4, 4] == 0

    two = np.zeros((5, 5), dtype=bool)
    two[0, 0] = two[0, 1] = True
    two[4, 3] = two[3, 4] = True
    labels, n = connected_components(two)
    assert n == 2
    assert labels[0, 0] == 0 and labels[3, 4] == 1  # scan-order ids

    full = np.ones((3, 7), dtype=bool)
    labels, n = connected_components(full)
    assert n == 1 and (labels == 0).all()


def test_connected_components_match_flood_fill():
    rng = np.random.default_rng(8)
    shapes = [(1, 1), (1, 40), (40, 1), (2, 60), (60, 2)]
    shapes += [tuple(rng.integers(3, 50, size=2)) for _ in range(40)]
    masks = [rng.random(shape) < density for shape in shapes
             for density in (0.2, 0.45, 0.6, 0.9)]
    # one serpentine component whose path runs against the scan order
    snake = np.zeros((41, 30), dtype=bool)
    snake[::2] = True
    snake[1::4, -1] = True
    snake[3::4, 0] = True
    masks.append(snake)
    for mask in masks:
        labels, n = connected_components(mask)
        ref_labels, ref_n = connected_components_flood(mask)
        assert n == ref_n
        assert labels.dtype == np.int32
        assert np.array_equal(labels, ref_labels)
    assert n == 1


def test_bisphere_pipeline_geometry():
    r = analyze(make_bisphere(), 101)
    d = r.decomposition
    # the efficient set is one connected segment of mutually nondominated
    # points, so every rank is 0 and there is a single component/basin
    assert d.n_components == 1
    assert (d.ranks == 0).all()
    assert d.n_rank0 == d.n_efficient == 51
    assert d.component_sizes.tolist() == [51]
    assert d.component_min_rank.tolist() == [0]
    eff = r.critmap.efficient_mask
    assert np.array_equal(r.heights.values == 0.0, eff)
    assert r.basins.n_unconverged == 0
    assert r.basins.n_basins == 1
    # straight above the segment midpoint, descent runs vertically and the
    # accumulated height grows strictly with distance
    mid = 50
    col = r.heights.values[mid, :]
    assert (np.diff(col[mid:]) > 0).all()
    assert (np.diff(col[mid::-1]) > 0).all()


def test_no_efficient_points_yields_empty_decomposition():
    p = BiObjectiveProblem(
        name="slide",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 + x2, 2.0 * x1 + x2),
    )
    r = analyze(p, 21)
    d = r.decomposition
    assert d.n_efficient == 0 and d.n_components == 0 and d.n_rank0 == 0
    assert (d.component_labels == -1).all()
    # the general code paths keep every array's dtype and shape at size 0
    expected = {
        "points": (np.int32, (0, 2)), "ranks": (np.int64, (0,)),
        "component_of": (np.int32, (0,)),
        "component_labels": (np.int32, (21, 21)),
        "component_sizes": (np.int64, (0,)),
        "component_min_rank": (np.int64, (0,)),
        "representative_f": (np.float64, (0, 2)),
    }
    for name, (dtype, shape) in expected.items():
        a = getattr(d, name)
        assert (a.dtype, a.shape) == (dtype, shape), name
    assert (r.critmap.triangles.dtype, r.critmap.triangles.shape) == (
        np.int32, (0, 4))
    assert (r.critmap.triangle_efficient.dtype,
            r.critmap.triangle_efficient.shape) == (np.bool_, (0,))
    # every descent path slides along the boundary into the corner where
    # the projected field vanishes; nothing ever reaches an efficient point
    assert r.basins.n_basins == 0
    assert r.basins.n_unconverged == 21 * 21
    assert r.basins.stop_counts == {"efficient": 0, "cycle": 0,
                                    "dead_end": 0, "pit": 21 * 21}
    assert r.basins.n_cycles == 0
    h = r.heights.values
    assert h[0, 0] == 0.0
    assert (h > 0).sum() == 21 * 21 - 1


def _assert_gfh_matches_walk(fields, critmap, decomposition):
    heights, basins = gfh_heights(fields, critmap, decomposition)
    h, b, counts, n_cycles = gfh_walk(fields, critmap, decomposition)
    assert heights.values.tobytes() == h.tobytes()
    assert basins.n_basins == np.unique(b[b >= 0]).size
    assert basins.n_basins == decomposition.n_components
    assert basins.stop_counts == counts
    assert sum(counts.values()) == h.size
    assert basins.n_cycles == n_cycles
    assert basins.n_unconverged == h.size - counts["efficient"]
    return basins


@pytest.mark.parametrize("name", available_problems())
def test_gfh_heights_match_descent_walk(name):
    # 31 x 17 has s1 != s2 and n1 != n2, so a step-length or flat-shift
    # table built with the axes swapped fails there
    for shape in [(25, 25), (31, 17)]:
        r = analyze(get_problem(name), *shape)
        _assert_gfh_matches_walk(r.fields, r.critmap, r.decomposition)
    assert r.grid.s1 != r.grid.s2


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("name", available_problems())
def test_gfh_heights_match_descent_walk_across_chunk_seams(name, chunk,
                                                           monkeypatch):
    # the back-substitution gathers each peel round PEEL_CHUNK points at a
    # time: seams inside every round must leave the heights' bytes alone
    monkeypatch.setattr(landscape_module, "PEEL_CHUNK", chunk)
    for shape in [(25, 25), (31, 17)]:
        r = analyze(get_problem(name), *shape)
        basins = _assert_gfh_matches_walk(r.fields, r.critmap,
                                          r.decomposition)
        assert sum(basins.stop_counts.values()) == shape[0] * shape[1]
        assert (r.heights.values > 0).sum() > chunk


@pytest.mark.parametrize("mode", MODES)
def test_analyze_keeps_what_its_mode_exports_and_matches_the_stages(mode):
    # f1 and f2 are read after decompose_efficient_set only by the cost
    # landscape, which runs next, and the critical mode's exports; every
    # other mode drops them before gfh_heights.  No mode stores a gradient
    # field or the divergence: g1, g2 and div_descent are computed on each
    # read
    p = get_problem("kursawe")
    r = analyze(p, 31, 17, mode=mode)
    assert [getattr(r.fields, k) is None for k in ("f1", "f2")
            ] == [mode != "critical"] * 2
    assert {f.name for f in dataclasses.fields(FieldSet)} == {
        "grid", "f1", "f2", "zero_tol", "mo"}
    fs = build_fieldset(p, build_grid(p.lower, p.upper, 31, 17))
    cm = classify(fs)
    d = decompose_efficient_set(cm, fs.f1, fs.f2)
    heights, basins = gfh_heights(fs, cm, d)
    assert r.critmap.labels.tobytes() == cm.labels.tobytes()
    assert r.fields.mo.tobytes() == fs.mo.tobytes()
    assert r.heights.values.tobytes() == heights.values.tobytes()
    assert r.basins == basins
    assert r.decomposition.n_components == d.n_components
    assert (r.cost is None) == (mode != "cost")
    if mode == "cost":
        cost = cost_landscape(fs.f1, fs.f2, fs.grid)
        assert r.cost.values.tobytes() == cost.values.tobytes()
    div = -divergence(fs.mo, fs.grid)
    assert r.fields.div_descent.tobytes() == div.tobytes()
    assert r.decomposition.F.tobytes() == d.F.tobytes()
    if mode == "critical":
        for k in ("f1", "f2", "g1", "g2"):
            assert getattr(r.fields, k).tobytes() == getattr(fs, k).tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_only_the_critical_mode_holds_f1_and_f2_during_gfh(mode,
                                                           monkeypatch):
    # after decompose_efficient_set, which keeps the efficient points'
    # objectives, only the cost landscape, which runs next, and the
    # critical exports read f1 and f2: in every other mode neither array
    # may still be alive when gfh_heights starts to allocate
    alive = {}
    build, gfh = landscape_module.build_fieldset, landscape_module.gfh_heights

    def built(*args, **kwargs):
        fs = build(*args, **kwargs)
        alive["refs"] = (weakref.ref(fs.f1), weakref.ref(fs.f2))
        return fs

    def heights(*args):
        alive["at gfh"] = [ref() is not None for ref in alive["refs"]]
        return gfh(*args)

    monkeypatch.setattr(landscape_module, "build_fieldset", built)
    monkeypatch.setattr(landscape_module, "gfh_heights", heights)
    r = analyze(get_problem("sgk"), 31, 17, mode=mode)
    assert alive["at gfh"] == [mode == "critical"] * 2
    assert r.heights.values.shape == (31, 17)


def test_analyze_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'heights'"):
        analyze(get_problem("sgk"), 5, mode="heights")


def _critmap(grid, labels):
    """A CriticalityMap holding only the given class labels."""
    return CriticalityMap(
        grid=grid, labels=labels, triangles=np.zeros((0, 4), dtype=np.int32),
        triangle_efficient=np.zeros(0, dtype=bool),
        pairs=np.zeros((0, 5), dtype=np.int32),
        pair_critical=np.zeros(0, dtype=bool),
        pair_efficient=np.zeros(0, dtype=bool), div_tol=0.0)


def test_gfh_heights_cut_cycles_like_descent_walk():
    """Hand-built descent field on a 7x7 grid: a 2-cycle, a 4-cycle with a
    two-point tail, a path into an efficient point, a dead end at a corner
    and zero-field pits everywhere else."""
    n = 7
    grid = build_grid((0.0, 0.0), (1.0, 1.0), n, n)
    descent = np.zeros((n, n, 2))
    steps = {
        (1, 1): (0, 1), (1, 2): (0, -1),                    # 2-cycle
        (3, 3): (0, 1), (3, 4): (1, 0),                     # 4-cycle
        (4, 4): (0, -1), (4, 3): (-1, 0),
        (6, 6): (-1, -1), (5, 5): (-1, -1),                 # tail into it
        (0, 4): (0, 1), (0, 5): (0, 1),                     # to (0, 6)
        (6, 0): (1, 0),                                     # leaves the box
    }
    for (i, j), step in steps.items():
        descent[i, j] = (1.0 + 0.25 * i + 0.5 * j) * np.array(step)
    mo = -descent
    labels = np.zeros((n, n), dtype=np.uint8)
    labels[0, 6] = PointClass.EFFICIENT_INTERIOR
    fields = FieldSet(grid=grid, f1=np.zeros((n, n)), f2=np.zeros((n, n)),
                      mo=mo, zero_tol=0.0)
    critmap = _critmap(grid, labels)
    decomposition = decompose_efficient_set(critmap, fields.f1, fields.f2)
    basins = _assert_gfh_matches_walk(fields, critmap, decomposition)
    assert basins.n_cycles == 2
    assert basins.stop_counts == {"efficient": 3, "cycle": 8, "dead_end": 1,
                                  "pit": n * n - 12}
    assert basins.n_basins == 1


def _vortex_basins(lower, upper, n1, n2, descent):
    """gfh of the joint field -descent(X1, X2), with no efficient point,
    checked against the descent walk."""
    grid = build_grid(lower, upper, n1, n2)
    dx, dy = descent(*np.meshgrid(grid.x1, grid.x2, indexing="ij"))
    mo = -np.stack([dx, dy], axis=-1)
    zero = np.zeros(grid.shape)
    fields = FieldSet(grid=grid, f1=zero, f2=zero, mo=mo, zero_tol=0.0)
    critmap = _critmap(grid, np.zeros(grid.shape, dtype=np.uint8))
    decomposition = decompose_efficient_set(critmap, zero, zero)
    return _assert_gfh_matches_walk(fields, critmap, decomposition)


def test_gfh_heights_vortex_ends_on_one_long_cycle():
    """Rotation about the centre: the grid walk spirals out onto one cycle
    along the rim; only the centre, where the field vanishes, is a pit."""
    basins = _vortex_basins((-1.0, -1.0), (1.0, 1.0), 41, 41,
                            lambda x1, x2: (-x2, x1))
    assert basins.stop_counts == {"efficient": 0, "cycle": 41 * 41 - 1,
                                  "dead_end": 0, "pit": 1}
    assert basins.n_cycles == 1 and basins.n_basins == 0


def test_gfh_heights_two_vortices_end_on_two_long_cycles():
    """Two rotations about (-1, 0) and (1, 0), each pulled onto a
    three-petal ring: every path ends on one of two cycles of 66 points.
    Each ring has several local minima in scan order, so the union-find
    that counts the cycles needs more than one hooking round."""
    def descent(x1, x2):
        dx, dy = x1 - np.where(x1 < 0, -1.0, 1.0), x2
        r = np.hypot(dx, dy)
        ring = 0.55 + 0.25 * np.cos(3.0 * np.arctan2(dy, dx))
        pull = (ring - r) / np.where(r > 0, r, 1.0)
        return -dy + pull * dx, dx + pull * dy

    basins = _vortex_basins((-2.0, -1.0), (2.0, 1.0), 81, 41, descent)
    assert basins.stop_counts == {"efficient": 0, "cycle": 81 * 41 - 2,
                                  "dead_end": 0, "pit": 2}
    assert basins.n_cycles == 2


def test_aspar_component_count_stable_across_resolutions():
    counts = set()
    for n in (201, 401):
        r = analyze(make_aspar(), n)
        counts.add(r.decomposition.n_components)
    assert len(counts) == 1
    assert counts.pop() >= 2


def test_summary_key_order_and_values():
    r = analyze(make_bisphere(), 51)
    s = r.summary()
    assert list(s) == ["problem", "n_efficient", "n_components",
                       "n_rank0", "n_cycles", "n_unconverged"]
    assert s["problem"] == "bisphere"
    assert s["n_efficient"] == r.decomposition.n_efficient
    assert s["n_cycles"] == r.basins.n_cycles
    assert s["n_unconverged"] == r.basins.n_unconverged


def test_export_heights_csv_golden(tmp_path):
    g = build_grid((0.0, 0.0), (1.0, 1.0), 2, 2)
    f1 = np.array([[0.0, 2.0], [1.0, 3.0]])
    hf = cost_landscape(f1, f1.copy(), g)
    out = tmp_path / "h.csv"
    export_heights_csv(out, hf)
    lines = out.read_text().splitlines()
    assert lines == [
        "j1,j2,x1,x2,height",
        "1,1,0.0,0.0,0",
        "2,1,1.0,0.0,1",
        "1,2,0.0,1.0,2",
        "2,2,1.0,1.0,3",
    ]


def test_export_decomposition_json_schema(tmp_path):
    # the plot mode frees f1 and f2 before gfh_heights: the export reads
    # the objectives that the decomposition keeps, the grid's own values
    r = analyze(make_bisphere(), 61)
    assert r.fields.f1 is None and r.fields.f2 is None
    f1, f2 = evaluate_grid(r.problem, r.grid)
    out = tmp_path / "d.json"
    export_decomposition_json(out, r.decomposition)
    payload = json.loads(out.read_text())
    assert set(payload) == {"n_efficient", "n_rank0", "n_components",
                            "components"}
    assert payload["n_efficient"] == r.decomposition.n_efficient
    assert len(payload["components"]) == payload["n_components"]
    total = 0
    for comp in payload["components"]:
        assert set(comp) == {"id", "size", "min_rank", "representative_f",
                             "points"}
        assert comp["size"] == len(comp["points"])
        total += comp["size"]
        ranks = [p["rank"] for p in comp["points"]]
        assert min(ranks) == comp["min_rank"]
        best = min(comp["points"], key=lambda p: p["rank"])
        assert comp["representative_f"] == [best["f1"], best["f2"]]
        for p in comp["points"]:
            assert set(p) == {"j1", "j2", "x1", "x2", "f1", "f2", "rank"}
            assert 1 <= p["j1"] <= 61 and 1 <= p["j2"] <= 61
            i, j = p["j1"] - 1, p["j2"] - 1
            assert [p["f1"], p["f2"]] == [f1[i, j], f2[i, j]]
    assert total == payload["n_efficient"]


# the bytes of test_export_decomposition_json_golden, as json.dump(indent=1)
# writes them
GOLDEN_DECOMPOSITION_JSON = """\
{
 "n_efficient": 5,
 "n_rank0": 2,
 "n_components": 3,
 "components": [
  {
   "id": 0,
   "size": 2,
   "min_rank": 0,
   "representative_f": [
    -2.0,
    -0.9
   ],
   "points": [
    {
     "j1": 1,
     "j2": 1,
     "x1": -1.0,
     "x2": -0.5,
     "f1": -2.0,
     "f2": -0.9,
     "rank": 0
    },
    {
     "j1": 2,
     "j2": 1,
     "x1": -0.5,
     "x2": -0.5,
     "f1": -1.0,
     "f2": -0.6000000000000001,
     "rank": 2
    }
   ]
  },
  {
   "id": 1,
   "size": 1,
   "min_rank": 0,
   "representative_f": [
    -1.3333333333333335,
    -1.1
   ],
   "points": [
    {
     "j1": 1,
     "j2": 3,
     "x1": -1.0,
     "x2": 0.5,
     "f1": -1.3333333333333335,
     "f2": -1.1,
     "rank": 0
    }
   ]
  },
  {
   "id": 2,
   "size": 2,
   "min_rank": 3,
   "representative_f": [
    1.3333333333333335,
    -0.1
   ],
   "points": [
    {
     "j1": 4,
     "j2": 2,
     "x1": 0.5,
     "x2": 0.0,
     "f1": 1.3333333333333335,
     "f2": -0.1,
     "rank": 3
    },
    {
     "j1": 4,
     "j2": 3,
     "x1": 0.5,
     "x2": 0.5,
     "f1": 1.6666666666666665,
     "f2": -0.1,
     "rank": 4
    }
   ]
  }
 ]
}
"""


def test_export_decomposition_json_golden(tmp_path):
    """Three components, one of them split in scan order by another, ranks
    above 0 and negative floats; and an empty decomposition."""
    grid = build_grid((-1.0, -0.5), (0.5, 0.5), 4, 3)
    labels = np.zeros(grid.shape, dtype=np.uint8)
    for i, j in [(0, 0), (0, 2), (1, 0), (3, 1), (3, 2)]:
        labels[i, j] = PointClass.EFFICIENT_INTERIOR
    f1 = np.arange(12.0).reshape(4, 3) / 3.0 - 2.0
    f2 = -np.arange(12.0).reshape(4, 3)[::-1] * 0.1
    f2[3, 2] = f2[3, 1]
    d = decompose_efficient_set(_critmap(grid, labels), f1, f2)
    out = tmp_path / "d.json"
    export_decomposition_json(out, d, f1, f2)
    assert out.read_bytes() == GOLDEN_DECOMPOSITION_JSON.encode("ascii")

    empty = decompose_efficient_set(
        _critmap(grid, np.zeros(grid.shape, dtype=np.uint8)), f1, f2)
    export_decomposition_json(out, empty, f1, f2)
    assert out.read_bytes() == (b'{\n "n_efficient": 0,\n "n_rank0": 0,\n'
                                b' "n_components": 0,\n "components": []\n}\n')
