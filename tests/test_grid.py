"""Grid construction, evaluation, and CSV export contracts."""

import multiprocessing
import os
import subprocess
import tracemalloc

import numpy as np
import pytest

from paretoscape import (BiObjectiveProblem, DomainError, EvaluationError,
                         analyze, build_grid, evaluate_grid, make_aspar,
                         make_bisphere)
from paretoscape import grid as grid_module
from paretoscape.grid import export_grid_csv

from oracles import grid_csv_rows


def test_coordinates_small_grid_exact():
    g = build_grid((0.0, 0.0), (1.0, 1.0), 3, 3)
    assert list(g.x1) == [0.0, 0.5, 1.0]
    assert list(g.x2) == [0.0, 0.5, 1.0]
    assert g.s1 == 0.5 and g.s2 == 0.5
    assert g.shape == (3, 3)


def test_spacing_frozen_example():
    g = build_grid((-2.0, -1.0), (2.0, 3.0), 1001, 1001)
    assert g.s1 == 0.004
    assert g.s2 == 0.004


def test_endpoints_exact_even_when_spacing_inexact():
    # 1/6 is not representable in binary; the last coordinate must still
    # be exactly the upper bound
    g = build_grid((0.0, 0.0), (1.0, 1.0), 7, 7)
    assert g.x1[0] == 0.0 and g.x1[-1] == 1.0
    assert g.x2[0] == 0.0 and g.x2[-1] == 1.0


def test_rectangular_grid_axes_independent():
    g = build_grid((0.0, -1.0), (2.0, 1.0), 5, 11)
    assert g.shape == (5, 11)
    assert g.s1 == 0.5 and g.s2 == 0.2
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    assert X1.shape == (5, 11) and X2.shape == (5, 11)
    assert X1[3, 0] == g.x1[3] and X2[0, 7] == g.x2[7]


def test_build_grid_validation():
    with pytest.raises(ValueError, match="at least 2"):
        build_grid((0, 0), (1, 1), 1, 5)
    with pytest.raises(ValueError, match="at least 2"):
        build_grid((0, 0), (1, 1), 5, 0)
    with pytest.raises(ValueError, match="below"):
        build_grid((1, 0), (0, 1), 5, 5)
    with pytest.raises(ValueError, match="finite"):
        build_grid((0, float("nan")), (1, 1), 5, 5)


def test_build_grid_rejects_non_integer_resolutions():
    # int(5.5) would give 5 rows with coordinates spaced 1/4.5
    for n1, n2 in [(5.5, 4), (4, 3.0), ("5", 4), (np.float64(6.0), 4)]:
        with pytest.raises(TypeError):
            build_grid((0, 0), (1, 1), n1, n2)
    with pytest.raises(TypeError):
        analyze(make_aspar(), 30.5)
    g = build_grid((0, 0), (1, 1), np.int64(5), np.int32(4))
    assert g.shape == (5, 4) and type(g.n1) is int and type(g.n2) is int
    assert g.x1.size == 5 and g.x2.size == 4


def test_evaluate_grid_matches_pointwise():
    p = make_aspar()
    g = build_grid(p.lower, p.upper, 13, 9)
    f1, f2 = evaluate_grid(p, g)
    for i in (0, 5, 12):
        for j in (0, 4, 8):
            e1, e2 = p.fn(g.x1[i], g.x2[j])
            assert f1[i, j] == e1 and f2[i, j] == e2


def test_evaluate_grid_worker_count_does_not_change_output(monkeypatch):
    p = make_bisphere()
    g = build_grid(p.lower, p.upper, 101, 101)
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    f1a, f2a = evaluate_grid(p, g)
    monkeypatch.setattr(grid_module, "_cpus", lambda: 3)
    f1b, f2b = evaluate_grid(p, g)
    assert np.array_equal(f1a, f1b)
    assert np.array_equal(f2a, f2b)


def test_evaluate_grid_rejects_grid_outside_problem_box():
    p = make_bisphere()  # box [-2,2]^2
    g = build_grid((-3.0, 0.0), (0.0, 1.0), 5, 5)
    with pytest.raises(DomainError):
        evaluate_grid(p, g)


def test_non_finite_objective_raises_evaluation_error():
    bad = BiObjectiveProblem(
        name="bad",
        lower=(0.0, 0.0),
        upper=(1.0, 1.0),
        fn=lambda x1, x2: (np.where(x1 > 0.6, np.nan, x1), x2 * 0.0),
    )
    g = build_grid((0.0, 0.0), (1.0, 1.0), 5, 5)
    with pytest.raises(EvaluationError, match=r"j1=4.*j2=1"):
        evaluate_grid(bad, g)


def test_export_grid_csv_blocks_join_seamlessly(tmp_path, monkeypatch):
    g = build_grid((0.0, 0.0), (1.0, 2.0), 3, 5)
    ints = np.arange(15).reshape(3, 5)
    floats = ints / 3.0
    single = tmp_path / "single.csv"
    export_grid_csv(single, g, ["n", "third"], [ints, floats])
    lines = single.read_text().splitlines()
    assert lines[0] == "j1,j2,x1,x2,n,third"
    assert lines[1] == "1,1,0.0,0.0,0,0.0"
    assert lines[2] == "2,1,0.5,0.0,5,1.6666666666666667"
    assert lines[4] == "1,2,0.0,0.5,1,0.3333333333333333"
    assert lines[15] == "3,5,1.0,2.0,14,4.666666666666667"
    assert len(lines) == 16
    # block boundaries inside and at the end of a j2 column
    for rows in (1, 3, 4, 14):
        monkeypatch.setattr(grid_module, "CSV_BLOCK_ROWS", rows)
        blocked = tmp_path / f"blocked{rows}.csv"
        export_grid_csv(blocked, g, ["n", "third"], [ints, floats])
        assert blocked.read_bytes() == single.read_bytes()


def _distinct(c):
    """``grid._distinct_text`` of the whole array ``c`` as a column."""
    return grid_module._distinct_text(lambda js: c[:, js], *c.shape)


def _takes_each(rng, values, shape):
    """Array of ``shape`` in which each of ``values`` occurs at least once."""
    values = np.asarray(values)
    n = shape[0] * shape[1]
    return values[rng.permutation(np.arange(n) % values.size)].reshape(shape)


def test_export_grid_csv_matches_naive_writer(tmp_path, monkeypatch):
    g = build_grid((-1.0, 0.5), (1.0, 3.0), 8, 5)     # N = 40, N/4 = 10
    shape = g.shape
    rng = np.random.default_rng(6)
    specials = [-0.0, 0.0, np.inf, -np.inf, 5e-324, 1e300, np.nan]
    big_ints = [2 ** 53 + 1, 2 ** 62 + 3, -2 ** 63, 2 ** 63 - 1, -7]
    dense = rng.normal(size=shape)
    dense.flat[:len(specials)] = specials
    dense_ints = rng.integers(-2 ** 63, 2 ** 63 - 1, size=shape)
    dense_ints.flat[:len(big_ints)] = big_ints
    # name -> (column, takes the distinct-value path)
    cases = {
        "zeros": (_takes_each(rng, [-0.0, 0.0, 0.25], shape), True),
        "specials": (_takes_each(rng, specials, shape), True),
        "big": (_takes_each(rng, big_ints, shape), True),
        "d9": (_takes_each(rng, rng.normal(size=9), shape), True),
        "d10": (_takes_each(rng, -np.arange(10) * 3, shape), True),
        "d11": (_takes_each(rng, [-0.0, 0.0, *rng.normal(size=9)], shape),
                False),
        "dense": (dense, False),
        "dense_ints": (dense_ints, False),
    }
    header = list(cases)
    columns = [c for c, _ in cases.values()]
    for c, distinct in cases.values():
        text = _distinct(c)
        assert (text is not None) == distinct
    expected = ("\n".join(grid_csv_rows(g, header, columns)) + "\n").encode()
    for rows in (1, 3, g.n1, g.n1 * g.n2 + 5):
        monkeypatch.setattr(grid_module, "CSV_BLOCK_ROWS", rows)
        out = tmp_path / f"blocked{rows}.csv"
        export_grid_csv(out, g, header, columns)
        assert out.read_bytes() == expected


def _whole_array_distinct(values):
    """The sorted distinct bit patterns of ``values`` from one
    ``np.unique`` of the whole array, or None if there are more than a
    quarter as many as values or more than ``grid._DISTINCT_CAP``."""
    bits = np.unique(grid_module._bits(values))
    limit = min(values.size // 4, grid_module._DISTINCT_CAP)
    return None if bits.size > limit else bits


@pytest.mark.parametrize("cap", [12, 2 ** 16])
@pytest.mark.parametrize("chunk", [1, 24, 50, 2 ** 16])
def test_distinct_text_does_not_depend_on_the_slab_width(monkeypatch, chunk,
                                                         cap):
    # 8 x 10 = 80 values, a quarter is 20: slabs of 1, 3, 6 and all 10 j2
    # columns, the last of the 3- and 6-column slabs a narrower one.  A cap
    # of 12 lies below the quarter, so it decides the path of columns with
    # 12 and 13 distinct values
    monkeypatch.setattr(grid_module, "_DISTINCT_CHUNK", chunk)
    monkeypatch.setattr(grid_module, "_DISTINCT_CAP", cap)
    rng = np.random.default_rng(chunk)
    shape = (8, 10)
    subnormals = [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]
    cases = [
        _takes_each(rng, rng.normal(size=20), shape),               # N/4
        _takes_each(rng, rng.normal(size=21), shape),               # N/4 + 1
        _takes_each(rng, [-0.0, 0.0, *rng.normal(size=18)], shape),
        _takes_each(rng, [-0.0, 0.0, *rng.normal(size=19)], shape),
        _takes_each(rng, [*subnormals, 0.0, -0.0, 1.0], shape),
        _takes_each(rng, np.arange(-10, 10) * 2 ** 50, shape),      # ints
        rng.normal(size=shape),
        _takes_each(rng, rng.normal(size=12), shape),               # cap
        _takes_each(rng, rng.normal(size=13), shape),               # cap + 1
    ]
    for values in cases:
        expected = _whole_array_distinct(values)
        got = _distinct(values)
        if expected is None:
            assert got is None
            continue
        bits, strings = got
        assert bits.dtype == expected.dtype
        assert np.array_equal(bits, expected)
        assert strings.tolist() == [
            repr(v) for v in expected.view(values.dtype).tolist()]
    assert [_whole_array_distinct(c) is None for c in cases] == {
        12: [True, True, True, True, False, True, True, False, True],
        2 ** 16: [False, True, False, True, False, False, True, False, False],
    }[cap]


def test_distinct_value_count_stops_at_the_cap():
    # a fully distinct 1000 x 1000 column goes row by row: its count stops
    # once it passes _DISTINCT_CAP values, not a quarter of the column.
    # Measured traced peak with numpy 2.4: 2.1 MB; 4.7 MB while the count
    # went on up to a quarter of the values
    c = np.random.default_rng(0).normal(size=(1000, 1000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _distinct(c) is None
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _pool_case(shape, row_by_row=True):
    """Columns for a grid of ``shape``: a float column with -0.0 and
    subnormals, on the row-by-row path if ``row_by_row`` and else on the
    distinct-value path, and an int column on the distinct-value path."""
    rng = np.random.default_rng(shape[0] * shape[1])
    if row_by_row:
        floats = rng.normal(size=shape)
        k = np.arange(floats.size).reshape(shape)
        floats[k % 7 == 0] = -0.0
        floats[k % 11 == 3] = 5e-324 * k[k % 11 == 3]  # subnormal multiples
    else:
        floats = _takes_each(rng, [-0.0, 0.0, 5e-324, 3e-323, 0.1, -1e300],
                             shape)
    ints = _takes_each(rng, np.arange(-3, 4) * 2 ** 40, shape)
    assert (_distinct(floats) is None) == row_by_row
    assert _distinct(ints) is not None
    return ["f", "k"], [floats, ints]


@pytest.mark.parametrize("blocks", [0.5, 3, 3.25])
def test_export_grid_csv_bytes_do_not_depend_on_processes(tmp_path, monkeypatch,
                                                          blocks):
    # below one block, an exact multiple of CSV_BLOCK_ROWS, a ragged tail
    n1 = int(blocks * grid_module.CSV_BLOCK_ROWS) // 64
    g = build_grid((-1.0, 0.0), (1.0, 2.0), n1, 64)
    header, columns = _pool_case(g.shape)
    expected = ("\n".join(grid_csv_rows(g, header, columns)) + "\n").encode()
    for processes in (1, 2, 3):
        monkeypatch.setattr(grid_module, "_cpus", lambda: processes)
        out = tmp_path / f"p{processes}.csv"
        export_grid_csv(out, g, header, columns)
        assert out.read_bytes() == expected
        assert multiprocessing.active_children() == []


def test_export_grid_csv_writes_into_a_pipe(tmp_path, monkeypatch):
    # as through a shell's >(...): no spill can be made in /dev/fd, so the
    # spills go to the default temporary directory
    n1 = 3 * grid_module.CSV_BLOCK_ROWS // 64
    g = build_grid((-1.0, 0.0), (1.0, 2.0), n1, 64)
    header, columns = _pool_case(g.shape)
    expected = ("\n".join(grid_csv_rows(g, header, columns)) + "\n").encode()
    monkeypatch.setattr(grid_module, "_cpus", lambda: 2)
    with open(tmp_path / "out.csv", "wb") as sink:
        cat = subprocess.Popen(["cat"], stdin=subprocess.PIPE, stdout=sink)
    try:
        export_grid_csv(f"/dev/fd/{cat.stdin.fileno()}", g, header, columns)
    finally:
        cat.stdin.close()
        assert cat.wait(timeout=60) == 0
    assert (tmp_path / "out.csv").read_bytes() == expected
    assert multiprocessing.active_children() == []


def _export_peak(path, n1):
    """Traced peak bytes of an export of an n1 x 400 grid with one
    row-by-row and one distinct-value column, above what was live before
    it."""
    g = build_grid((-1.0, 0.0), (1.0, 2.0), n1, 400)
    rng = np.random.default_rng(n1)
    columns = [rng.normal(size=g.shape), rng.integers(0, 50, size=g.shape)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export_grid_csv(path, g, ["f", "k"], columns)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_export_grid_csv_memory_per_point(tmp_path, monkeypatch):
    # on one CPU, 200x400 and 800x400 grids: the growth of the traced peak
    # per added point is what the export holds per point.  Measured with
    # numpy 2.4: 3.9 B with chunked distinct counting and per-block lookups;
    # 26.3 B with a transposed copy, a full sort and a full-length inverse
    # per column
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    small = _export_peak(tmp_path / "small.csv", 200)
    large = _export_peak(tmp_path / "large.csv", 800)
    assert (large - small) / (600 * 400) < 12.0


_PARENT = os.getpid()
_csv_block = grid_module._csv_block


def _fails_in_a_worker(job, lo):
    # raising only outside the test process shows that a worker formats the
    # block: the first block of the second run
    if os.getpid() != _PARENT:
        raise ValueError(f"block {lo} failed in a worker")
    return _csv_block(job, lo)


def test_export_grid_csv_worker_failure_reaches_caller(tmp_path, monkeypatch):
    n1 = 3 * grid_module.CSV_BLOCK_ROWS // 64
    g = build_grid((-1.0, 0.0), (1.0, 2.0), n1, 64)
    header, columns = _pool_case(g.shape)
    monkeypatch.setattr(grid_module, "_cpus", lambda: 2)
    monkeypatch.setattr(grid_module, "_csv_block", _fails_in_a_worker)
    with pytest.raises(ValueError, match="block .* failed in a worker"):
        export_grid_csv(tmp_path / "f.csv", g, header, columns)
    assert multiprocessing.active_children() == []
    # neither a truncated table nor a spill is left behind
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("through", ["link", "fd"])
def test_failed_export_through_a_link_empties_the_file(tmp_path, monkeypatch,
                                                       through):
    # a symlink, or a /dev/fd entry as for --export-csv /dev/stdout, stays;
    # the regular file it leads to is left empty, and the worker's error is
    # the one raised
    n1 = 3 * grid_module.CSV_BLOCK_ROWS // 64
    g = build_grid((-1.0, 0.0), (1.0, 2.0), n1, 64)
    header, columns = _pool_case(g.shape)
    monkeypatch.setattr(grid_module, "_cpus", lambda: 2)
    monkeypatch.setattr(grid_module, "_csv_block", _fails_in_a_worker)
    target = tmp_path / "target.csv"
    target.write_text("an older table\n")
    with open(target, "ab") as held:
        if through == "link":
            path = tmp_path / "link.csv"
            path.symlink_to(target)
        else:
            path = f"/dev/fd/{held.fileno()}"
        with pytest.raises(ValueError, match="block .* failed in a worker"):
            export_grid_csv(path, g, header, columns)
    assert multiprocessing.active_children() == []
    assert target.read_bytes() == b""
    if through == "link":
        assert os.readlink(path) == str(target)
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["target.csv"] + (["link.csv"] if through == "link" else []))


def test_export_grid_csv_pools_columns_on_the_distinct_value_path(tmp_path,
                                                                  monkeypatch):
    # every column takes the distinct-value path, and the pool still formats
    # the blocks: the same bytes, and a failure in a worker reaches the caller
    n1 = int(3.25 * grid_module.CSV_BLOCK_ROWS) // 64
    g = build_grid((-1.0, 0.0), (1.0, 2.0), n1, 64)
    header, columns = _pool_case(g.shape, row_by_row=False)
    expected = ("\n".join(grid_csv_rows(g, header, columns)) + "\n").encode()
    monkeypatch.setattr(grid_module, "_cpus", lambda: 2)
    export_grid_csv(tmp_path / "p2.csv", g, header, columns)
    assert (tmp_path / "p2.csv").read_bytes() == expected
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(grid_module, "_csv_block", _fails_in_a_worker)
    with pytest.raises(ValueError, match="block .* failed in a worker"):
        export_grid_csv(tmp_path / "f.csv", g, header, columns)
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == ["p2.csv"]
