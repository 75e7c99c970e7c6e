"""Finite differences, combined gradient field, and divergence."""

import tracemalloc

import numpy as np
import pytest

from oracles import (aspar_gradients, axis_derivative, descent_divergence,
                     divergence, grid_csv_rows, make_norm_overflow,
                     make_overflow, make_scale_overflow, make_table)
from paretoscape import (BiObjectiveProblem, EvaluationError, analyze,
                         build_fieldset, build_grid, classify, evaluate_grid,
                         export_fields_csv, get_problem, make_aspar,
                         make_bisphere)
from paretoscape import grid as grid_module
from paretoscape.gradients import _divergence_rows, _unit_sum, gradient_norms


def _grid(n1=11, n2=11, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    return build_grid(lo, hi, n1, n2)


def _div(v, g):
    """``_divergence_rows`` of a vector field on all rows of grid ``g``."""
    return _divergence_rows(v, g, slice(0, g.n1))


def test_linear_field_exact_everywhere_including_boundary():
    # one-sided differences are exact for affine functions
    p = BiObjectiveProblem(name="affine", lower=(-1.0, 2.0), upper=(3.0, 4.0),
                           fn=lambda x1, x2: (3.0 * x1 + 1.0 * x2 - 2.0,
                                              2.0 * x2 - x1))
    fs = build_fieldset(p, build_grid(p.lower, p.upper, 7, 5))
    for grad, (d1, d2) in ((fs.g1, (3.0, 1.0)), (fs.g2, (-1.0, 2.0))):
        assert np.allclose(grad[..., 0], d1, rtol=0, atol=1e-12)
        assert np.allclose(grad[..., 1], d2, rtol=0, atol=1e-12)


def test_central_differences_exact_for_quadratics_in_interior():
    p = BiObjectiveProblem(
        name="quadratic", lower=(-2.0, -2.0), upper=(2.0, 2.0),
        fn=lambda x1, x2: (x1**2 - 3.0 * x1 * x2 + 0.5 * x2**2, x1 * x1 + x2))
    g = build_grid(p.lower, p.upper, 21, 21)
    grad = build_fieldset(p, g).g1
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    d1 = 2.0 * X1 - 3.0 * X2
    d2 = -3.0 * X1 + X2
    assert np.allclose(grad[1:-1, 1:-1, 0], d1[1:-1, 1:-1], atol=1e-11)
    assert np.allclose(grad[1:-1, 1:-1, 1], d2[1:-1, 1:-1], atol=1e-11)


def test_one_sided_boundary_error_within_curvature_bound():
    # quartic objective: d f1/d x1 = 4 x1^3 - 4 x1, curvature |12 x1^2 - 4| <= 44
    # on [-2, 2]; the one-sided rows must stay within 10 * s1 * max curvature
    p = make_aspar()  # box [-2,2] x [-1,3]
    g = build_grid(p.lower, p.upper, 1001, 11)
    assert g.s1 == 0.004
    X1, _ = np.meshgrid(g.x1, g.x2, indexing="ij")
    grad = build_fieldset(p, g).g1
    analytic = 4.0 * X1**3 - 4.0 * X1
    err = np.abs(grad[..., 0] - analytic)
    bound = 10.0 * g.s1 * 44.0
    assert err[0, :].max() <= bound
    assert err[-1, :].max() <= bound
    # and the bound is not vacuous: one-sided is worse than central here
    assert err[0, :].max() > err[1:-1, :].max()


def _mo(g1, g2, zero_tol=0.0):
    """The multi-objective gradient as ``classify`` forms it."""
    return _unit_sum(g1, g2, zero_tol)[0]


def test_mo_gradient_frozen_examples():
    g1 = np.array([[[1.0, 0.0]]])
    g2 = np.array([[[-1.0, 0.0]]])
    assert np.array_equal(_mo(g1, g2), np.zeros((1, 1, 2)))

    g1 = np.array([[[2.0, 0.0]]])
    g2 = np.array([[[0.0, 3.0]]])
    assert np.array_equal(_mo(g1, g2), np.array([[[1.0, 1.0]]]))


def test_mo_gradient_zero_tolerance_and_exact_zero():
    tiny = np.array([[[1e-15, 0.0]]])
    big = np.array([[[5.0, 0.0]]])
    out = _mo(tiny, big, zero_tol=1e-12)
    assert np.array_equal(out, np.zeros((1, 1, 2)))
    # exact zero gradient suppresses the sum even with zero_tol=0
    out0 = _mo(np.zeros((1, 1, 2)), big, zero_tol=0.0)
    assert np.array_equal(out0, np.zeros((1, 1, 2)))
    # the zero-rule mask comes with the sum, and g2 = -g1 is no zero point
    # though its sum is the zero vector
    _, zero = _unit_sum(np.stack([tiny, big, big]).reshape(1, 3, 2),
                        np.stack([big, big, -big]).reshape(1, 3, 2), 1e-12)
    assert zero.tolist() == [[True, False, False]]


def test_mo_gradient_invariant_under_gradient_scaling():
    rng = np.random.default_rng(7)
    g1 = rng.normal(size=(6, 5, 2))
    g2 = rng.normal(size=(6, 5, 2))
    base = _mo(g1, g2)
    # powers of two rescale exactly in floating point
    exact = _mo(4.0 * g1, 0.25 * g2)
    assert np.array_equal(base, exact)
    approx = _mo(3.7 * g1, 0.9 * g2)
    assert np.allclose(base, approx, atol=1e-12)


def test_mo_gradient_unit_summand_norms():
    rng = np.random.default_rng(11)
    g1 = rng.normal(size=(8, 8, 2)) + 3.0  # bounded away from zero
    g2 = rng.normal(size=(8, 8, 2)) - 3.0
    mo = _mo(g1, g2)
    u1 = g1 / gradient_norms(g1)[..., None]
    u2 = g2 / gradient_norms(g2)[..., None]
    assert np.allclose(mo, u1 + u2, atol=1e-15)
    assert (gradient_norms(mo) <= 2.0 + 1e-12).all()


def test_gradient_scale_is_pooled_mean_norm():
    # on a 5 x 5 grid of [0, 1]^2 (s = 0.25) the differences are exact:
    # ||grad f1|| = 5 everywhere, and ||grad f2|| runs 0.25, 0.5, 1.0, 1.5,
    # 1.75 along x2 (one-sided at the ends), mean 1.0; so the scale is
    # 0.5 * (5 + 1) = 3 and zero_tol = zero_tol_rel * 3
    p = BiObjectiveProblem(name="scale", lower=(0.0, 0.0), upper=(1.0, 1.0),
                           fn=lambda x1, x2: (3.0 * x1 + 4.0 * x2, x2 * x2))
    g = build_grid(p.lower, p.upper, 5, 5)
    assert build_fieldset(p, g, zero_tol_rel=0.25).zero_tol == 0.75
    assert build_fieldset(p, g, zero_tol_rel=1e-12).zero_tol == 3e-12


def test_divergence_exact_for_linear_fields():
    g = _grid(9, 13, (-1.0, -1.0), (1.0, 1.0))
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    radial = np.stack([X1, X2], axis=-1)
    assert np.allclose(_div(radial, g), 2.0, atol=1e-12)
    rotational = np.stack([-X2, X1], axis=-1)
    assert np.allclose(_div(rotational, g), 0.0, atol=1e-12)


def test_divergence_linearity():
    g = _grid(12, 10)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 10, 2))
    b = rng.normal(size=(12, 10, 2))
    lhs = _div(2.5 * a - 4.0 * b, g)
    rhs = 2.5 * _div(a, g) - 4.0 * _div(b, g)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2), (33, 17)])
def test_stencils_bytes_match_hand_written_reference(shape):
    g = build_grid((-1.0, 0.5), (2.0, 0.75), *shape)
    assert g.s1 != g.s2
    rng = np.random.default_rng(sum(shape))
    f = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    v = rng.normal(size=shape + (2,))
    fs = build_fieldset(make_table(g, f, -f), g)
    for values, grad in ((f, fs.g1), (-f, fs.g2)):
        expected = np.stack([axis_derivative(values, g.s1, 0),
                             axis_derivative(values, g.s2, 1)], axis=-1)
        assert grad.tobytes() == expected.tobytes()
    div = axis_derivative(v[..., 0], g.s1, 0) + axis_derivative(v[..., 1], g.s2, 1)
    assert divergence(v, g).tobytes() == div.tobytes()
    # per block of k rows with a halo row, every row gets the same bytes
    for k in (1, 2, 3, shape[0]):
        blocks = [_divergence_rows(v, g, slice(lo, min(lo + k, shape[0])))
                  for lo in range(0, shape[0], k)]
        assert np.concatenate(blocks).tobytes() == div.tobytes(), k


def test_non_finite_gradients_raise_evaluation_error():
    # the objectives are finite, but the central differences of f1 around
    # x1 = 0 overflow: the first bad point in scan order is (j1=4, j2=1)
    p = make_overflow()
    g = build_grid(p.lower, p.upper, 9, 9)
    f1, f2 = evaluate_grid(p, g)
    assert np.isfinite(f1).all() and np.isfinite(f2).all()
    with pytest.raises(EvaluationError,
                       match=r"non-finite gradient of f1 .* \(j1=4, j2=1\)"):
        build_fieldset(p, g)
    with pytest.raises(EvaluationError, match="gradient of f1"):
        analyze(p, 9)


@pytest.mark.parametrize("factory,message", [
    # finite gradients whose norms overflow: the first bad point is named
    (make_norm_overflow,
     r"non-finite gradient norm of f1 = inf at grid point \(j1=1, j2=1\)"),
    # finite norms whose mean overflows
    (make_scale_overflow, "gradient scale overflows"),
])
def test_overflowing_gradient_norms_raise_evaluation_error(factory, message):
    p = factory()
    g = build_grid(p.lower, p.upper, 9, 9)
    f1, _ = evaluate_grid(p, g)
    assert all(np.isfinite(d).all() for d in np.gradient(f1, g.s1, g.s2))
    with pytest.raises(EvaluationError, match=message):
        build_fieldset(p, g)
    with pytest.raises(EvaluationError, match=message):
        analyze(p, 9)


def _two_block_table():
    """A table problem on a 12 x 5 grid: f1 jumps by 1.7e308 at rows 6 and
    9, so its gradient overflows at rows 5, 6, 8 and 9 (0-based), and f2
    jumps at row 2, so its gradient overflows at rows 1 and 2."""
    g = build_grid((0.0, 0.0), (1.0, 1.0), 12, 5)
    f1, f2 = np.zeros(g.shape), np.zeros(g.shape)
    f1[6:], f1[9:], f2[2:] = 1.7e308, -1.7e308, -1.7e308
    return make_table(g, f1, f2), g


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("case,message", [
    # bad gradients at rows 3, 4 and 5 of 9, and at rows 7 to 9 of 17
    ((make_overflow, 9, 9), "problem 'overflow' produced non-finite gradient "
     "of f1 = [inf  0.] at grid point (j1=4, j2=1), x = (-0.25, -1.0)"),
    ((make_overflow, 17, 9), "problem 'overflow' produced non-finite "
     "gradient of f1 = [inf  0.] at grid point (j1=8, j2=1), "
     "x = (-0.125, -1.0)"),
    # overflowing norms from row 5 on
    ((lambda: make_norm_overflow(0.25), 9, 9), "problem 'norm-overflow' "
     "produced non-finite gradient norm of f1 = inf at grid point (j1=6, "
     "j2=1), x = (0.3125, 0.0)"),
    ((make_scale_overflow, 9, 9),
     "problem 'scale-overflow': gradient scale overflows"),
    # f1's gradient before f2's, though f2's bad rows come first
    ((_two_block_table,), "problem 'table' produced non-finite gradient of "
     "f1 = [inf  0.] at grid point (j1=6, j2=1), x = (0.4545454545454546, "
     "0.0)"),
], ids=["overflow-9x9", "overflow-17x9", "norm-overflow", "scale-overflow",
        "two-field-table"])
def test_finite_checks_report_the_first_bad_point_across_block_seams(
        case, message, rows, cpus, monkeypatch):
    # the checks run per row block, on gradients and norms that no block
    # keeps unless one is not finite: the error must still name the first
    # bad point of the first bad field, in the order gradient of f1, of f2,
    # norm of f1, of f2, each in scan order, by its index in the whole grid,
    # whichever block holds it and whichever thread finishes first
    if len(case) == 3:
        factory, n1, n2 = case
        p = factory()
        g = build_grid(p.lower, p.upper, n1, n2)
    else:
        p, g = case[0]()
    monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
    monkeypatch.setattr(grid_module, "BLOCK_ROWS", rows)
    with pytest.raises(EvaluationError) as raised:
        build_fieldset(p, g)
    assert str(raised.value) == message


def _export_fields_peak(path, name, n1, n2) -> int:
    """Traced peak of ``export_fields_csv`` of problem ``name`` on an
    n1 x n2 grid, above what was live before."""
    p = get_problem(name)
    fs = build_fieldset(p, build_grid(p.lower, p.upper, n1, n2))
    classify(fs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export_fields_csv(path, fs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, small, large, bound", [
    # 200x400 and 800x400: no column takes the distinct-value path.
    # Measured with numpy 2.4: 0.4 B per added point; 40.4 B while the
    # export built g1, g2 (32 B per point) and the divergence (8 B) whole
    ("sgk", (200, 400), (800, 400), 8.0),
    # 200x200 and 400x400: the four gradient columns take the distinct-value
    # path, and their tables grow with the grid.  Measured: 5.8 B; 45.8 B
    # while the export built the whole fields
    ("mindist", (200, 200), (400, 400), 12.0),
])
def test_export_fields_csv_holds_no_whole_grid_field(tmp_path, monkeypatch,
                                                     name, small, large,
                                                     bound):
    # on one CPU: the growth of the traced peak per added point is what the
    # export holds per point; each column computes the j2 columns a count
    # slab or a block needs from f1, f2 or mo
    monkeypatch.setattr(grid_module, "_cpus", lambda: 1)
    low = _export_fields_peak(tmp_path / "small.csv", name, *small)
    high = _export_fields_peak(tmp_path / "large.csv", name, *large)
    added = large[0] * large[1] - small[0] * small[1]
    assert (high - low) / added < bound


_FIELD_HEADER = ["g1x", "g1y", "g2x", "g2y", "mox", "moy", "div"]


@pytest.mark.parametrize("name", ["mindist", "kursawe"])
@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (2, 37), (37, 2),
                                   (61, 47)])
def test_export_fields_csv_matches_the_whole_grid_fields(tmp_path,
                                                         monkeypatch, name,
                                                         shape):
    # the streamed columns give the bytes of the whole-grid g1, g2, mo and
    # the oracle's div(-mo) written point by point: with blocks that end
    # inside a j2 column (also within one), exactly at a column's end and in
    # a ragged tail, and slabs on both box edges (n2 = 2 is the case where
    # each halo column is an edge)
    p = get_problem(name)
    fs = build_fieldset(p, build_grid(p.lower, p.upper, *shape))
    classify(fs)
    columns = [g[..., c] for g in (fs.g1, fs.g2, fs.mo) for c in (0, 1)]
    columns.append(descent_divergence(fs))
    if shape == (61, 47):
        # mindist's gradient columns take the distinct-value path; kursawe's
        # g1 columns go row by row (its f2 is a sum of one-axis terms)
        distinct = [grid_module._distinct_text(lambda js, c=c: c[:, js],
                                               *shape) is not None
                    for c in columns[:4]]
        assert distinct == {"mindist": [True] * 4,
                            "kursawe": [False, False, True, True]}[name]
    expected = ("\n".join(grid_csv_rows(fs.grid, _FIELD_HEADER, columns))
                + "\n").encode()
    n1, n = shape[0], shape[0] * shape[1]
    for rows in (max(n1 // 2, 1), n1 + 1, n1, 2 * n1 + 1):
        monkeypatch.setattr(grid_module, "CSV_BLOCK_ROWS", rows)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid_module, "_cpus", lambda: cpus)
            out = tmp_path / f"fields{rows}_{cpus}.csv"
            export_fields_csv(out, fs)
            assert out.read_bytes() == expected, (rows, cpus, n)


def test_finite_difference_error_shrinks_at_second_order():
    p = make_aspar()
    errs = []
    for n in (101, 201, 401):
        g = build_grid(p.lower, p.upper, n, n)
        fs = build_fieldset(p, g)
        a1, a2 = aspar_gradients(*np.meshgrid(g.x1, g.x2, indexing="ij"))
        e1 = np.abs(fs.g1 - a1)[1:-1, 1:-1].max()
        e2 = np.abs(fs.g2 - a2)[1:-1, 1:-1].max()
        errs.append(max(e1, e2))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_fieldset_matches_componentwise_construction():
    p = make_bisphere()
    g = build_grid(p.lower, p.upper, 31, 31)
    fs = build_fieldset(p, g)
    assert fs.f1.shape == (31, 31)
    assert fs.g1.shape == (31, 31, 2)
    expect_tol = 1e-12 * float(0.5 * (gradient_norms(fs.g1).mean()
                                      + gradient_norms(fs.g2).mean()))
    assert fs.zero_tol == expect_tol
    # classify sets mo; the set carries the unit sum as mo_raw
    assert fs.mo is None
    assert np.array_equal(fs.mo_raw, _mo(fs.g1, fs.g2, fs.zero_tol))


def test_bisphere_descent_divergence_negative_between_centers():
    # for two spheres the combined descent field contracts everywhere off
    # the centers: div(-mo) = -(1/ra + 1/rb) < 0
    p = make_bisphere()
    g = build_grid(p.lower, p.upper, 201, 201)
    fs = build_fieldset(p, g)
    div_desc = _div(-fs.mo_raw, g)
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    ra = np.hypot(X1 + 1.0, X2)
    rb = np.hypot(X1 - 1.0, X2)
    away = (ra > 3 * g.s1) & (rb > 3 * g.s1)
    interior = np.zeros_like(away)
    interior[1:-1, 1:-1] = True
    sel = away & interior
    assert (div_desc[sel] < 0.0).all()
    # closed-form comparison two cells in: rows adjacent to the box edge see
    # the one-sided gradient bias amplified by the 1/(2s) divergence stencil
    deep = np.zeros_like(away)
    deep[2:-2, 2:-2] = True
    close = sel & deep & (np.abs(X2) > 0.2) & (ra > 0.5) & (rb > 0.5)
    expected = -(1.0 / ra[close] + 1.0 / rb[close])
    assert np.allclose(div_desc[close], expected, rtol=0.05)


def test_export_fields_csv_golden(tmp_path):
    p = BiObjectiveProblem(
        name="tiny", lower=(0.0, 0.0), upper=(2.0, 1.0),
        fn=lambda x1, x2: (x1 * x1 + x2, (x1 - 2.0) ** 2 - 0.5 * x2),
    )
    g = build_grid(p.lower, p.upper, 3, 2)
    fs = build_fieldset(p, g)
    rows = [
        "1,1,0.0,0.0,1.0,1.0,-3.0,-0.5,-0.2792871426455963,0.5427077938811902",
        "2,1,1.0,0.0,2.0,1.0,-2.0,-0.5,-0.07571530914541602,0.20467797046362496",
        "3,1,2.0,0.0,3.0,1.0,-1.0,-0.5,0.05425610705059791,-0.13098582948312",
        "1,2,0.0,1.0,1.0,1.0,-3.0,-0.5,-0.2792871426455963,0.5427077938811902",
        "2,2,1.0,1.0,2.0,1.0,-2.0,-0.5,-0.07571530914541602,0.20467797046362496",
        "3,2,2.0,1.0,3.0,1.0,-1.0,-0.5,0.05425610705059791,-0.13098582948312",
    ]
    header = "j1,j2,x1,x2,g1x,g1y,g2x,g2y,mox,moy,div\n"
    out = tmp_path / "fields.csv"
    classify(fs)
    export_fields_csv(out, fs)
    divs = ["-0.20357183350018027", "-0.1667716248480971", "-0.12997141619601393"]
    assert out.read_bytes() == (header + "".join(
        f"{r},{divs[k % 3]}\n" for k, r in enumerate(rows))).encode()
