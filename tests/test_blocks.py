"""Row blocks of the per-point stages: same bytes for any block size, and
temporaries that grow with one block rather than with the grid."""

import tracemalloc

import numpy as np
import pytest

from paretoscape import analyze, available_problems, get_problem
from paretoscape import grid as grid_module
from paretoscape.cli import MODES
from paretoscape.criticality import classify, interior_criticality
from paretoscape.gradients import build_fieldset
from paretoscape.grid import build_grid, row_blocks
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
    whole = _blocked_outputs(problem, *shape)
    for rows in (1, 2, 3, shape[0], shape[0] + 5):
        monkeypatch.setattr(grid_module, "BLOCK_ROWS", rows)
        blocked = _blocked_outputs(problem, *shape)
        for key, value in whole.items():
            assert blocked[key] == value, (name, shape, rows, key)


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


def test_stage_memory_grows_with_one_block_not_the_grid():
    # sgk on 200x400 and 800x400 grids: both have full 128-row blocks, so
    # the growth per added point is what a stage keeps per point.  Measured
    # with numpy 2.4: interior_criticality 0.5 B (its bool mask), gfh_heights
    # 20.3 B (heights, int8 codes and int32 peel rounds), compose_plot and
    # render_height_map 3.0 B (the RGB image); before row blocks they were
    # 83.7, 44.1, 24.0 and 35.0 B
    p = get_problem("sgk")
    peaks = []
    for n1 in (200, 800):
        g = build_grid(p.lower, p.upper, n1, 400)
        fs = build_fieldset(p, g)
        cm = classify(fs)
        d = decompose_efficient_set(cm, fs.f1, fs.f2)
        h, _ = gfh_heights(fs, cm, d)
        peaks.append(np.array([
            _traced_peak(lambda: interior_criticality(fs.g1, fs.g2, g,
                                                      fs.zero_tol)),
            _traced_peak(lambda: gfh_heights(fs, cm, d)),
            _traced_peak(lambda: compose_plot(h, d)),
            _traced_peak(lambda: render_height_map(h))]))
    per_point = (peaks[1] - peaks[0]) / (600 * 400)
    bounds = np.array([2.0, 24.0, 4.0, 4.0])
    assert (per_point < bounds).all(), per_point
