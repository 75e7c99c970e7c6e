"""Row blocks of the per-point stages: same bytes for any block size and
thread count, temporaries that grow with one block per thread rather than
with the grid, and no thread left behind."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from paretoscape import (BiObjectiveProblem, analyze, available_problems,
                         get_problem)
from paretoscape import grid as grid_module
from paretoscape.cli import MODES
from paretoscape.criticality import classify, interior_criticality
from paretoscape.gradients import build_fieldset
from paretoscape.grid import build_grid, evaluate_grid, map_blocks, row_blocks
from paretoscape.landscape import decompose_efficient_set, gfh_heights
from paretoscape.render import compose_plot, render, render_height_map


def test_row_blocks_cover_the_range_in_order(monkeypatch):
    monkeypatch.setattr(grid_module, "BLOCK_ROWS", 3)
    assert row_blocks(7) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert row_blocks(3) == [slice(0, 3)]
    assert row_blocks(1) == [slice(0, 1)]


def _blocked_outputs(problem, n1, n2):
    r = analyze(problem, n1, n2, with_cost=True)
    fs = r.fields
    triangles, mask = interior_criticality(fs.g1, fs.g2, r.grid, fs.zero_tol)
    rasters = {mode: render(mode, heights=r.cost if mode == "cost" else r.heights,
                            critmap=r.critmap, decomposition=r.decomposition
                            ).raster.tobytes()
               for mode in MODES}
    return {"triangles": (triangles.shape, triangles.tobytes()),
            "mask": mask.tobytes(),
            "heights": r.heights.values.tobytes(),
            "stop_counts": r.basins.stop_counts,
            "n_cycles": r.basins.n_cycles,
            "rasters": rasters}


@pytest.mark.parametrize("shape", [(31, 17), (17, 31), (2, 9)])
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
    analyze(get_problem("sgk"), 97, 65, with_cost=True)
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
    return np.array([
        _traced_peak(lambda: interior_criticality(fs.g1, fs.g2, g,
                                                  fs.zero_tol)),
        _traced_peak(lambda: gfh_heights(fs, cm, d)),
        _traced_peak(lambda: compose_plot(h, d)),
        _traced_peak(lambda: render_height_map(h)),
        # classify reads mo_raw, which it leaves alone, so a second call
        # repeats the first
        _traced_peak(lambda: classify(fs)),
        _traced_peak(art.to_png_bytes)])


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
    # 30.3 B (the rotated mo, the divergence and the labels; 35.2 B with a
    # full |div| copy) and to_png_bytes 0.67 B (3.27 B with a full filtered
    # copy of the image); before row blocks the first four were 83.7, 44.1,
    # 24.0 and 35.0 B
    p = get_problem("sgk")
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    small, one_thread = _stage_peaks(p, 200), _stage_peaks(p, 800)
    per_point = (one_thread - small) / (600 * 400)
    bounds = np.array([2.0, 19.0, 4.0, 4.0, 32.0, 1.5])
    assert (per_point < bounds).all(), per_point
    # each thread adds at most one block's temporaries, and the one-thread
    # peak holds one block's temporaries plus the results
    for cpus in (2, 3):
        monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
        peaks = _stage_peaks(p, 800)
        assert (peaks <= cpus * one_thread).all(), (cpus, peaks, one_thread)
