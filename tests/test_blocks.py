"""Row blocks of the per-point stages: same bytes for any block size and
thread count, temporaries that grow with one block per thread rather than
with the grid, and no thread left behind."""

import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oracles import descent_divergence
from paretoscape import (BiObjectiveProblem, analyze, available_problems,
                         get_problem)
from paretoscape import grid as grid_module
from paretoscape.cli import MODES
from paretoscape.criticality import (DIV_TOL_REL, PointClass, _interior,
                                     classify, interior_criticality,
                                     neighbor_dominated_mask, triangle_corners,
                                     triangle_second_order)
from paretoscape.gradients import build_fieldset, gradient_rows
from paretoscape.grid import build_grid, evaluate_grid, map_blocks, row_blocks
from paretoscape.landscape import decompose_efficient_set, gfh_heights
from paretoscape.render import compose_plot, render, render_height_map


def test_row_blocks_cover_the_range_in_order(monkeypatch):
    monkeypatch.setattr(grid_module, "BLOCK_ROWS", 3)
    assert row_blocks(7) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert row_blocks(3) == [slice(0, 3)]
    assert row_blocks(1) == [slice(0, 1)]


def _blocked_outputs(problem, n1, n2):
    r = analyze(problem, n1, n2, mode="cost")
    # no mode keeps g1 and g2: take them from a set of its own
    fs = build_fieldset(problem, r.grid)
    triangles, mask = interior_criticality(fs.g1, fs.g2, r.grid, fs.zero_tol)
    rasters = {mode: render(mode, heights=r.cost if mode == "cost" else r.heights,
                            critmap=r.critmap, decomposition=r.decomposition
                            ).raster.tobytes()
               for mode in MODES}
    # analyze frees f1 and f2 once the decomposition is built: their bytes
    # come from the set built under the same block size and thread count,
    # and analyze's own at the efficient points from the decomposition
    return {"f": (fs.f1.tobytes(), fs.f2.tobytes()),
            "F": r.decomposition.F.tobytes(),
            "triangles": (triangles.shape, triangles.tobytes()),
            "mask": mask.tobytes(),
            "mo_raw": fs.mo_raw.tobytes(),
            "mo": r.fields.mo.tobytes(),
            "heights": r.heights.values.tobytes(),
            "stop_counts": r.basins.stop_counts,
            "n_cycles": r.basins.n_cycles,
            "rasters": rasters}


# in (33, 17), n1 - 1 is a multiple of 32: with 32-row blocks the last
# block of point rows holds one row and no cell
@pytest.mark.parametrize("shape", [(31, 17), (17, 31), (2, 9), (33, 17)])
@pytest.mark.parametrize("name", available_problems())
def test_outputs_do_not_depend_on_block_rows(name, shape, monkeypatch):
    problem = get_problem(name)
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    monkeypatch.setattr(grid_module, "BLOCK_ROWS", shape[0] + 5)
    whole = _blocked_outputs(problem, *shape)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
        for rows in (1, 2, 3, shape[0], shape[0] + 5):
            monkeypatch.setattr(grid_module, "BLOCK_ROWS", rows)
            blocked = _blocked_outputs(problem, *shape)
            for key, value in whole.items():
                assert blocked[key] == value, (name, shape, cpus, rows, key)


def _whole_grid_second_order(fs):
    """div(-mo) on the whole grid as one array, and the default absolute
    tolerance taken from it."""
    div = descent_divergence(fs)
    div_tol = DIV_TOL_REL * float(np.maximum(div.max(initial=0.0),
                                             -div.min(initial=0.0)))
    return div, div_tol


def _reference_labels(fs, cm, ci, cj):
    """classify's labels, with the interior-efficient points taken from the
    corners (ci, cj) of the triangles that the reference rule keeps."""
    labels = np.where(cm.labels > 0, PointClass.CRITICAL_ONLY,
                      PointClass.NON_CRITICAL).astype(np.uint8)
    labels[ci, cj] = PointClass.EFFICIENT_INTERIOR
    pairs = cm.pairs[cm.pair_efficient]
    for i, j in ((0, 1), (2, 3)):
        labels[pairs[:, i], pairs[:, j]] = PointClass.EFFICIENT_BOUNDARY
    demote = ((labels >= PointClass.EFFICIENT_INTERIOR)
              & neighbor_dominated_mask(fs.f1, fs.f2))
    labels[demote] = PointClass.CRITICAL_ONLY
    return labels


def _splits_a_triangle(triangles, rows):
    # some triangle has its anchor in one block and its vertical neighbour
    # in the next
    i = triangles[:, 0].astype(np.int64)
    return bool((i // rows != (i + triangles[:, 2]) // rows).any())


def test_second_order_test_streams_across_block_seams(monkeypatch):
    # classify computes div(-mo) per block and keeps only the block extremes
    # and the values at the interior-critical points, which it turns into a
    # mask once the tolerance is known: the tolerance, the triangle flags
    # and the labels must be those of the whole grid
    cases = [(name, shape) for name in available_problems()
             for shape in [(2, 9), (9, 2), (31, 17), (33, 17)]
             ] + [("kursawe", (60, 60))]
    split = 0
    for name, shape in cases:
        p = get_problem(name)
        g = build_grid(p.lower, p.upper, *shape)
        monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
        monkeypatch.setattr(grid_module, "BLOCK_ROWS", shape[0] + 5)
        whole = build_fieldset(p, g)
        assert whole.mo is None                   # no mo before classify
        whole_cm = classify(whole)
        div, div_tol = _whole_grid_second_order(whole)
        ci, cj = triangle_corners(whole_cm.triangles)
        efficient = (div[ci, cj] <= div_tol).all(axis=1)
        labels = _reference_labels(whole, whole_cm, ci[efficient],
                                   cj[efficient])
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
            for rows in (1, 2, 3, 32):
                monkeypatch.setattr(grid_module, "BLOCK_ROWS", rows)
                fs = build_fieldset(p, g)
                cm = classify(fs)
                key = (name, shape, cpus, rows)
                assert (struct.pack("<d", cm.div_tol)
                        == struct.pack("<d", div_tol)), key
                assert cm.triangle_efficient.tolist() == efficient.tolist(), key
                assert cm.labels.tobytes() == labels.tobytes(), key
                split += rows < shape[0] and _splits_a_triangle(
                    cm.triangles[cm.triangle_efficient], rows)
    assert split > 0


def test_first_order_pass_writes_mo_across_block_seams(monkeypatch):
    # each block of classify's first-order pass computes the gradients of
    # its point rows plus the next one from f1 and f2, takes the unit sum
    # once for the zero rule and the certificate, and writes its own rows
    # of it into ``mo``: the triangles and the mask must be those of
    # interior_criticality on whole gradient fields, and every row of
    # ``mo`` must get the bytes of mo_raw.  That interior_criticality and
    # mo_raw keep their bytes across block sizes and thread counts is
    # test_outputs_do_not_depend_on_block_rows's part
    for name in available_problems():
        p = get_problem(name)
        for shape in [(2, 9), (9, 2), (31, 17), (33, 17)]:
            g = build_grid(p.lower, p.upper, *shape)
            monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
            monkeypatch.setattr(grid_module, "BLOCK_ROWS", shape[0] + 5)
            fs = build_fieldset(p, g)
            triangles, mask = interior_criticality(fs.g1, fs.g2, g,
                                                   fs.zero_tol)
            mo_raw = fs.mo_raw.tobytes()
            for cpus in (1, 2, 3):
                monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
                for rows in (1, 2, 3, 32):
                    monkeypatch.setattr(grid_module, "BLOCK_ROWS", rows)
                    key = (name, shape, cpus, rows)
                    mo = np.full(g.shape + (2,), np.nan)
                    got, got_mask = _interior(
                        lambda points: gradient_rows(g, points, fs.f1, fs.f2),
                        g, fs.zero_tol, mo)
                    assert got.shape == triangles.shape, key
                    assert got.tobytes() == triangles.tobytes(), key
                    assert got_mask.tobytes() == mask.tobytes(), key
                    assert mo.tobytes() == mo_raw, key


def test_map_blocks_runs_each_block_once_in_block_order(monkeypatch):
    # more threads than cores and a short switch interval: a block taken
    # twice or never would show in ``calls`` or in the results
    monkeypatch.setattr(grid_module, "_cpus", lambda: 8)
    calls = []

    def fn(block):
        calls.append(block)
        return block * block

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        squares = map_blocks(fn, range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert squares == [b * b for b in range(2000)]
    assert sorted(calls) == list(range(2000))
    assert map_blocks(fn, []) == []


def test_map_blocks_raises_a_helper_threads_error(monkeypatch):
    monkeypatch.setattr(grid_module, "_cpus", lambda: 3)
    before = threading.active_count()

    def fn(block):
        # the calling thread dawdles, so the helpers take blocks and fail
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.05)
            return block
        raise ValueError(f"block {block} failed in a helper")

    with pytest.raises(ValueError, match="failed in a helper"):
        map_blocks(fn, range(8))
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_failing_block_of_the_evaluation_reaches_the_caller(cpus,
                                                              monkeypatch):
    monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
    monkeypatch.setattr(grid_module, "BLOCK_ROWS", 4)
    g = build_grid((0.0, 0.0), (1.0, 1.0), 30, 7)
    bad_row = g.x1[13]

    def fn(x1, x2):
        if (x1 == bad_row).any():
            raise ZeroDivisionError("the block with row 14 failed")
        return x1 + x2, x1 - x2

    problem = BiObjectiveProblem(name="failing", lower=(0.0, 0.0),
                                 upper=(1.0, 1.0), fn=fn)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="row 14"):
        evaluate_grid(problem, g)
    assert threading.active_count() == before


def test_no_helper_thread_outlives_analyze(monkeypatch):
    monkeypatch.setattr(grid_module, "_cpus", lambda: 3)
    before = set(threading.enumerate())
    analyze(get_problem("sgk"), 97, 65, mode="cost")
    assert set(threading.enumerate()) == before


def test_seam_grids_reach_every_kind_of_stop():
    # the seam test above is only as strong as the features its grids have
    seen = {"cycle": 0, "pit": 0, "triangles": 0}
    for name in available_problems():
        for shape in [(31, 17), (17, 31), (2, 9)]:
            r = analyze(get_problem(name), *shape)
            seen["cycle"] += r.basins.n_cycles
            seen["pit"] += r.basins.stop_counts["pit"]
            seen["triangles"] += r.critmap.triangles.shape[0]
    assert all(v > 0 for v in seen.values()), seen


def _traced_peak(fn) -> int:
    """Traced peak bytes while ``fn`` runs, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _stage_peaks(p, n1):
    g = build_grid(p.lower, p.upper, n1, 400)
    fs = build_fieldset(p, g)
    cm = classify(fs)
    d = decompose_efficient_set(cm, fs.f1, fs.f2)
    h, _ = gfh_heights(fs, cm, d)
    art = compose_plot(h, d)
    # each read builds a gradient field: read them outside the traces
    g1, g2 = fs.g1, fs.g2
    return np.array([
        _traced_peak(lambda: interior_criticality(g1, g2, g, fs.zero_tol)),
        _traced_peak(lambda: gfh_heights(fs, cm, d)),
        _traced_peak(lambda: compose_plot(h, d)),
        _traced_peak(lambda: render_height_map(h)),
        # classify builds mo from f1 and f2, which it leaves alone, so a
        # second call repeats the first
        _traced_peak(lambda: classify(fs)),
        _traced_peak(art.to_png_bytes),
        _traced_peak(lambda: build_fieldset(p, g)),
        _traced_peak(lambda: evaluate_grid(p, g)),
        _traced_peak(lambda: neighbor_dominated_mask(fs.f1, fs.f2))])


def test_stage_memory_grows_with_one_block_not_the_grid(monkeypatch):
    # sgk on 200x400 and 800x400 grids: both have full blocks, so the growth
    # per added point is what a stage keeps per point.  It is measured on
    # one thread: with P threads up to P blocks' temporaries are alive at
    # once, depending on how the threads' blocks overlap in time.  Measured
    # with numpy 2.4 and 32-row blocks: interior_criticality 0.14 B (0.5
    # with 128-row blocks: its bool mask), gfh_heights 17.7 B (heights, int8
    # codes and int32 peel rounds; 22.2 B while the back-substitution took
    # whole rounds as intp and the stop kinds were counted by bincount),
    # compose_plot and render_height_map 3.0 B (the RGB image), classify
    # 20.6 B (mo, which its first-order blocks write and which it rotates,
    # and the labels; 22.3 B while it read stored g1 and g2, 22.1 B while
    # mo took a pass of its own, 30.3 B while it kept the whole divergence,
    # 35.2 B with a full |div| copy on top), to_png_bytes 0.67 B (3.27 B
    # with a full filtered copy of the image), build_fieldset 32.0 B (f1,
    # f2 and the two norm arrays, which it drops; 67.4 B while it also
    # stored g1 and g2, 80.0 B while it also built mo) and evaluate_grid
    # 16.0 B (f1 and f2; 32.1 B while it sliced whole-grid coordinate
    # meshes) and neighbor_dominated_mask 1.01 B (its bool mask; the same
    # while each block compared a halo slab); before row blocks the first
    # four were 83.7, 44.1, 24.0 and 35.0 B
    p = get_problem("sgk")
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    small, one_thread = _stage_peaks(p, 200), _stage_peaks(p, 800)
    per_point = (one_thread - small) / (600 * 400)
    bounds = np.array([2.0, 19.0, 4.0, 4.0, 22.0, 1.5, 34.0, 18.0, 1.5])
    assert (per_point < bounds).all(), per_point
    # each thread adds at most one block's temporaries, and the one-thread
    # peak holds one block's temporaries plus the results
    for cpus in (2, 3):
        monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
        peaks = _stage_peaks(p, 800)
        assert (peaks <= cpus * one_thread).all(), (cpus, peaks, one_thread)


@pytest.mark.parametrize("name", ["sgk", "kursawe"])
def test_cost_mode_counts_dominance_before_classify(name, monkeypatch):
    # the whole cost-mode analyze on 200x400 and 800x400 grids, one thread.
    # The dominance count is its largest stage; run before classify, it
    # meets only f1 and f2, and only its int64 counts stay.  Measured growth
    # per added point with numpy 2.4: 82.6 B (sgk) and 81.6 B (kursawe);
    # 103.9 and 113.0 B while it ran after decompose_efficient_set, next to
    # mo, classify's labels and the decomposition
    p = get_problem(name)
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    small, large = (_traced_peak(lambda: analyze(p, n1, 400, mode="cost"))
                    for n1 in (200, 800))
    assert (large - small) / (600 * 400) < 90.0


def _triangle_stage_peaks(p, n1):
    g = build_grid(p.lower, p.upper, n1, 400)
    fs = build_fieldset(p, g)
    cm = classify(fs)
    # g1, g2 and the divergence are built whole only here, outside the
    # traces
    g1, g2 = fs.g1, fs.g2
    _, mask = interior_criticality(g1, g2, g, fs.zero_tol)
    attracting = mask & (descent_divergence(fs) <= cm.div_tol)
    return np.array([
        _traced_peak(lambda: interior_criticality(g1, g2, g, fs.zero_tol)),
        _traced_peak(lambda: triangle_second_order(cm.triangles, attracting)),
        _traced_peak(lambda: classify(fs))])


def test_triangle_stage_memory_on_a_grid_full_of_triangles(monkeypatch):
    # kursawe on 200x400 and 800x400 grids, one thread: 55,800 and 147,039
    # critical triangles, so the per-triangle index arrays show, which sgk's
    # few thousand do not.  Measured growth per added point with numpy 2.4:
    # interior_criticality 12.5 B, triangle_second_order 3.4 B (one gather
    # per corner from the mask, with its corner index arrays) and classify
    # 28.2 B; 29.9 B while classify read stored g1 and g2, 13.4 and 33.6 B
    # while the certificate took its own norms and
    # classify built mo in a pass of its own, 2.1 and 33.6 B while the
    # corners were looked up by binary search in a compressed table of the
    # interior-critical values, a chunk of triangles at a time, 5.4 and
    # 39.9 B while the whole divergence was kept and indexed, and 23.9, 19.4
    # and 52.6 B while the corner masks, the labels and the second-order
    # test went through (T, 3) corner stacks.  The interior_criticality and
    # classify bounds leave 12 % and 6 % over their figures
    p = get_problem("kursawe")
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    per_point = ((_triangle_stage_peaks(p, 800) - _triangle_stage_peaks(p, 200))
                 / (600 * 400))
    assert (per_point < np.array([14.0, 4.0, 30.0])).all(), per_point
