"""End-to-end acceptance: each test checks one shipped guarantee and prints
one ACCEPTANCE line on success (visible via the -rP report section)."""

import json
import multiprocessing
import subprocess
import sys
import time

import numpy as np

from oracles import aspar_gradients, cost_landscape_brute
from paretoscape import (BiObjectiveProblem, PointClass, analyze,
                         build_fieldset, build_grid, cost_landscape,
                         dominance_counts, get_problem, make_aspar, make_sgk,
                         origin_in_hull)
from paretoscape import grid as grid_module
from paretoscape.cli import RunConfig, run
from paretoscape.criticality import boundary_criticality, triangle_corners


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_bisphere_ground_truth():
    p = get_problem("bisphere:-1,0,1,0")
    t0 = time.perf_counter()
    r = analyze(p, 201)
    elapsed = time.perf_counter() - t0
    g = r.grid
    cell = max(g.s1, g.s2)

    pts = r.decomposition.points
    assert pts.shape[0] > 0
    x1 = g.x1[pts[:, 0]]
    x2 = g.x2[pts[:, 1]]
    # Chebyshev distance from each detected point to the segment
    # {x2 = 0, -1 <= x1 <= 1}
    d_seg = np.maximum(np.abs(x2), np.maximum(0.0, np.abs(x1) - 1.0))
    assert d_seg.max() <= cell + 1e-12

    # coverage: every uniform segment sample has a detection within one cell
    samples = np.linspace(-1.0, 1.0, 101)
    for s in samples:
        cheb = np.maximum(np.abs(x1 - s), np.abs(x2))
        assert cheb.min() <= cell + 1e-12

    assert r.decomposition.n_components == 1
    assert (r.decomposition.ranks == 0).all()
    assert elapsed < 5.0
    _report(1, f"bisphere 201x201: {pts.shape[0]} efficient points all within "
               f"one cell of the segment, full coverage, 1 component, "
               f"all ranks 0, {elapsed:.2f}s")


def test_criterion_2_sgk_three_components_and_basins():
    seen = {}
    for n in (200, 300, 400):
        r = analyze(make_sgk(), n)
        d = r.decomposition
        assert d.n_components == 3, (n, d.n_components)
        assert r.basins.n_basins == 3, (n, r.basins.n_basins)
        min_ranks = d.component_min_rank
        assert int((min_ranks == 0).sum()) == 1, (n, min_ranks.tolist())
        for c in range(3):
            if min_ranks[c] == 0:
                continue
            member_ranks = d.ranks[d.component_of == c]
            assert (member_ranks > 0).any(), (n, c)
        seen[n] = min_ranks.tolist()
    _report(2, f"sgk at 200/300/400: 3 components + 3 basins each, exactly "
               f"one globally efficient component (min ranks {seen[400]})")


def test_criterion_3_aspar_ridge_filtering():
    r = analyze(make_aspar(), 201, mode="critical")
    cm = r.critmap
    counts = cm.counts()
    assert counts["CriticalOnly"] > 0
    assert not ((cm.labels == PointClass.CRITICAL_ONLY)
                & cm.efficient_mask).any()

    rejected = cm.triangles[~cm.triangle_efficient]
    assert rejected.shape[0] > 0
    ci, cj = triangle_corners(rejected)
    corner_div = r.fields.div_descent[ci, cj]
    assert (corner_div.max(axis=1) > cm.div_tol).all()
    _report(3, f"aspar 201x201: {counts['CriticalOnly']} critical-only points "
               f"disjoint from efficient set; all {rejected.shape[0]} rejected "
               f"triangles have a corner with descent divergence above tol")


def test_criterion_4_dominance_counter_oracle():
    rng = np.random.default_rng(4242)
    for case in range(20):
        if case % 2 == 0:
            f1 = rng.integers(0, 12, size=(50, 50)).astype(float)
            f2 = rng.integers(0, 12, size=(50, 50)).astype(float)
        else:
            f1 = rng.normal(size=(50, 50))
            f2 = rng.normal(size=(50, 50))
        g = build_grid((0.0, 0.0), (1.0, 1.0), 50, 50)
        fast = cost_landscape(f1, f2, g).values
        brute = cost_landscape_brute(f1, f2)
        assert np.array_equal(fast, brute), f"case {case}"
    _report(4, "20 random 50x50 fields: fast dominance counts identical to "
               "brute force")


def test_criterion_5_gradient_convergence():
    p = make_aspar()
    errs = []
    for n in (101, 201, 401):
        g = build_grid(p.lower, p.upper, n, n)
        fs = build_fieldset(p, g)
        a1, a2 = aspar_gradients(*np.meshgrid(g.x1, g.x2, indexing="ij"))
        e1 = np.abs(fs.g1 - a1)[1:-1, 1:-1].max()
        e2 = np.abs(fs.g2 - a2)[1:-1, 1:-1].max()
        errs.append(max(e1, e2))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert r1 >= 3.5 and r2 >= 3.5, (errs, r1, r2)
    _report(5, f"aspar interior gradient error shrinks x{r1:.2f} then "
               f"x{r2:.2f} per doubling (>= 3.5 required)")


def test_criterion_6a_hull_scale_invariance():
    rng = np.random.default_rng(606)
    done = 0
    while done < 1000:
        k = int(rng.integers(1, 7))
        vs = rng.normal(size=(k, 2))
        if (np.hypot(vs[:, 0], vs[:, 1]) < 1e-6).any():
            continue
        scales = rng.uniform(0.1, 10.0, size=k)
        assert origin_in_hull(vs) == origin_in_hull(vs * scales[:, None])
        done += 1
    _report(6, "hull test invariant under positive per-vector scaling "
               "(1000 cases)")


def test_criterion_6b_monotone_transform_invariance():
    rng = np.random.default_rng(616)
    g = build_grid((0.0, 0.0), (1.0, 1.0), 20, 20)
    f1 = rng.integers(-6, 7, size=(20, 20)).astype(float)
    f2 = rng.integers(-6, 7, size=(20, 20)).astype(float)
    base_cost = cost_landscape(f1, f2, g).values
    F = np.stack([f1.ravel(order="F"), f2.ravel(order="F")], axis=1)
    base_ranks = dominance_counts(F)
    for _ in range(10):
        a = float(rng.integers(1, 5))
        b = float(rng.integers(1, 5))
        c = float(rng.integers(-10, 11))
        def t(v):
            return a * v**3 + b * v + c
        which = rng.integers(0, 3)
        t1 = t(f1) if which in (0, 2) else f1
        t2 = t(f2) if which in (1, 2) else f2
        assert np.array_equal(base_cost, cost_landscape(t1, t2, g).values)
        T = np.stack([t1.ravel(order="F"), t2.ravel(order="F")], axis=1)
        assert np.array_equal(base_ranks, dominance_counts(T))
    _report(6, "ranks and cost counts invariant under 10 strictly increasing "
               "objective transforms")


def test_criterion_6c_determinism_across_runs_and_workers(tmp_path, capsys,
                                                          monkeypatch):
    blobs = []
    # run tag and usable CPUs: the threads of the row-block stages and the
    # processes of the field CSV's pool
    for tag, cpus in (("a", 1), ("b", 2), ("c", 3)):
        monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
        blob = []
        for mode in ("plot", "critical"):
            img = tmp_path / f"{tag}_{mode}.ppm"
            csv = tmp_path / f"{tag}_{mode}.csv"
            js = tmp_path / f"{tag}_{mode}.json"
            cfg = RunConfig(problem="sgk", mode=mode, n1=101, n2=101,
                            out=str(img), export_csv=str(csv),
                            export_json=str(js))
            assert run(cfg) == 0
            blob += [img.read_bytes(), csv.read_bytes(), js.read_bytes(),
                     capsys.readouterr().out]
        blobs.append(blob)
    assert blobs[0] == blobs[1] == blobs[2]
    assert multiprocessing.active_children() == []
    _report(6, "pipeline byte-identical across repeated runs with 1, 2 and 3 "
               "usable CPUs (block threads and CSV processes; plot and "
               "critical mode: image, CSV, JSON, summary)")


def test_criterion_7_boundary_logic():
    axes = BiObjectiveProblem(
        name="axes",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 + 0.0 * x2, x2 + 0.0 * x1),
    )
    r = analyze(axes, 101)
    cm = r.critmap

    # efficient pairs exist only on the x1 = 0 and x2 = 0 edges
    eff_pairs = cm.pairs[cm.pair_efficient]
    assert eff_pairs.shape[0] > 0
    assert set(eff_pairs[:, 4].tolist()) == {0, 2}

    # after dominance trimming the efficient set is the corner region alone
    eff_idx = np.argwhere(cm.efficient_mask)
    assert eff_idx.shape[0] == 1
    assert tuple(eff_idx[0]) == (0, 0)
    assert cm.labels[0, 0] == PointClass.EFFICIENT_BOUNDARY
    assert r.decomposition.n_components == 1
    assert (r.decomposition.ranks == 0).all()

    # opposed tangential slopes: every pair on the edges tangent to x1
    # (bottom and top) must be reported critical
    tug = BiObjectiveProblem(
        name="tug",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 + 0.0 * x2, -x1 + 0.0 * x2),
    )
    g = build_grid(tug.lower, tug.upper, 51, 51)
    fs = build_fieldset(tug, g)
    pairs, crit, _, _ = boundary_criticality(fs.g1, fs.g2, fs.mo_raw, fs.grid)
    tangent_x1 = np.isin(pairs[:, 4], (0, 1))
    assert crit[tangent_x1].all()
    _report(7, "f=(x1,x2): efficient pairs only on the x1=0/x2=0 edges, "
               "single rank-0 corner point; f=(x1,-x1): all x1-tangent edge "
               "pairs critical")


def test_criterion_8_full_scale_cli_run(tmp_path):
    out = tmp_path / "sgk_plot.ppm"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "paretoscape.cli",
         "--problem", "sgk", "--mode", "plot", "--resolution", "1000",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0
    summary = json.loads(proc.stdout.strip())
    assert summary["problem"] == "sgk"
    assert summary["n_components"] == 3
    assert out.stat().st_size == len(b"P6\n1000 1000\n255\n") + 1000 * 1000 * 3

    # the basin count matches criterion 2 at full scale too
    r = analyze(make_sgk(), 1000)
    assert r.basins.n_basins == 3
    _report(8, f"CLI sgk 1000x1000 finished in {elapsed:.1f}s "
               f"(< 60s) with 3 components and 3 basins")
