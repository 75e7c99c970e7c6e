"""Finite differences, combined gradient field, and divergence."""

import numpy as np
import pytest

from oracles import (aspar_gradients, axis_derivative, make_norm_overflow,
                     make_overflow, make_scale_overflow, make_table)
from paretoscape import (BiObjectiveProblem, EvaluationError, analyze,
                         build_fieldset, build_grid, classify, divergence,
                         evaluate_grid, export_fields_csv, make_aspar,
                         make_bisphere)
from paretoscape.gradients import _unit_sum, gradient_norms


def _grid(n1=11, n2=11, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    return build_grid(lo, hi, n1, n2)


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
    assert np.allclose(divergence(radial, g), 2.0, atol=1e-12)
    rotational = np.stack([-X2, X1], axis=-1)
    assert np.allclose(divergence(rotational, g), 0.0, atol=1e-12)


def test_divergence_linearity():
    g = _grid(12, 10)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 10, 2))
    b = rng.normal(size=(12, 10, 2))
    lhs = divergence(2.5 * a - 4.0 * b, g)
    rhs = 2.5 * divergence(a, g) - 4.0 * divergence(b, g)
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
    assert fs.mo is None and fs.div_descent is None
    assert np.array_equal(fs.mo_raw, _mo(fs.g1, fs.g2, fs.zero_tol))


def test_bisphere_descent_divergence_negative_between_centers():
    # for two spheres the combined descent field contracts everywhere off
    # the centers: div(-mo) = -(1/ra + 1/rb) < 0
    p = make_bisphere()
    g = build_grid(p.lower, p.upper, 201, 201)
    fs = build_fieldset(p, g)
    div_desc = divergence(-fs.mo_raw, g)
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
