"""Frozen-value and contract tests for the built-in problems."""

import numpy as np
import pytest

from paretoscape import (DomainError, UnknownProblemError, available_problems,
                         build_grid, evaluate_grid, get_problem, make_aspar,
                         make_bisphere, make_sgk)
from paretoscape.problems import PROBLEM_FACTORIES


def _at(p, x1, x2):
    """(f1, f2) of problem ``p`` at one point, as Python floats."""
    f1, f2 = p.evaluate_arrays(x1, x2)
    return float(f1), float(f2)


def test_registry_names():
    assert available_problems() == ["aspar", "bisphere", "kursawe", "mindist", "sgk"]


def test_bisphere_center_values_exact():
    p = make_bisphere()  # centers (-1,0), (1,0)
    assert _at(p, 0.0, 0.0) == (1.0, 1.0)
    assert _at(p, -1.0, 0.0) == (0.0, 4.0)
    assert _at(p, 1.0, 0.0) == (4.0, 0.0)


def test_bisphere_parametrized():
    p = get_problem("bisphere:-1,0,1,0")
    assert _at(p, -1.0, 0.0) == (0.0, 4.0)
    q = get_problem("bisphere:0,0,0,2")
    f1, f2 = _at(q, 0.0, 1.0)
    assert f1 == 1.0 and f2 == 1.0


def test_aspar_frozen_values():
    # closed form: f1 = x1^4 - 2 x1^2 + 2 x2^2 + 1, f2 = (x1+0.5)^2 + (x2-2)^2
    p = make_aspar()
    assert _at(p, 0.0, 0.0) == (1.0, 4.25)
    assert _at(p, 1.0, 0.0) == (0.0, 6.25)
    assert _at(p, -1.0, 0.0) == (0.0, 4.25)


def test_sgk_frozen_values():
    p = make_sgk()
    f1, f2 = _at(p, 1.0, 1.0)
    # f1 = 1 - 1/(1 + 4*(1/3)^2) = 4/13; f2 = 1 - max(..., 3/(1+0)) = -2
    assert abs(f1 - 4.0 / 13.0) < 1e-15
    assert f2 == -2.0
    f1c, _ = _at(p, 2.0 / 3.0, 1.0)
    assert f1c == 0.0


def test_sgk_f2_has_exactly_three_local_minima():
    # the three peak centers of the max construction, as strict 8-neighbor
    # grid minima at a resolution fine enough to separate them
    p = make_sgk()
    n = 301
    x1 = np.linspace(p.lower[0], p.upper[0], n)
    x2 = np.linspace(p.lower[1], p.upper[1], n)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    _, f2 = p.evaluate_arrays(X1, X2)
    interior = f2[1:-1, 1:-1]
    strict_min = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            strict_min &= interior < f2[1 + di:n - 1 + di, 1 + dj:n - 1 + dj]
    mins = np.argwhere(strict_min) + 1
    assert mins.shape[0] == 3
    found = {(round(float(x1[i]), 3), round(float(x2[j]), 3)) for i, j in mins}
    expect = [(0.5, 0.0), (0.25, 2.0 / 3.0), (1.0, 1.0)]
    for ex, ey in expect:
        assert any(abs(fx - ex) <= 0.01 and abs(fy - ey) <= 0.01
                   for fx, fy in found), (ex, ey, found)


def test_mindist_and_kursawe_values():
    p = get_problem("mindist")
    assert _at(p, -2.0, -1.0) == (0.0, 4.0)
    assert _at(p, 2.0, 1.0) == (0.0, 4.0)
    k = get_problem("kursawe")
    f1, f2 = _at(k, 0.0, 0.0)
    assert f1 == -10.0 and f2 == 0.0


def test_out_of_bounds_raises_domain_error_naming_bound():
    p = make_bisphere()
    with pytest.raises(DomainError, match=r"\[0.0, 3.0\] along x1 .* \[-2.0, 2.0\]"):
        evaluate_grid(p, build_grid((0.0, 0.0), (3.0, 1.0), 5, 5))
    with pytest.raises(DomainError, match=r"\[-5.0, 1.0\] along x2 .* \[-2.0, 2.0\]"):
        evaluate_grid(p, build_grid((0.0, -5.0), (1.0, 1.0), 5, 5))


def test_unknown_problem_lists_available():
    with pytest.raises(UnknownProblemError, match="available:.*aspar.*sgk"):
        get_problem("dtlz1")


def test_parametrization_errors():
    with pytest.raises(UnknownProblemError, match="expects 4 parameters"):
        get_problem("bisphere:1,2")
    with pytest.raises(UnknownProblemError, match="takes no parameters"):
        get_problem("sgk:1,2,3,4")
    with pytest.raises(UnknownProblemError, match="could not parse"):
        get_problem("bisphere:a,b,c,d")
    for params in ("nan,0,1,0", "-1,0,inf,0", "-1,0,1,-inf"):
        with pytest.raises(UnknownProblemError, match="must be finite"):
            get_problem(f"bisphere:{params}")


def test_analytic_gradients_match_finite_differences_on_quadratic():
    # central differences are exact for quadratics: only rounding remains
    from paretoscape import finite_diff_gradients

    p = make_bisphere()
    g = build_grid(p.lower, p.upper, 81, 81)
    f1, _ = evaluate_grid(p, g)
    fd = finite_diff_gradients(f1, g)
    X1, X2 = g.meshes()
    an, _ = p.analytic_gradients(X1, X2)
    interior = np.abs(fd - an)[1:-1, 1:-1]
    assert interior.max() < 1e-10


def test_vectorized_matches_scalar_evaluation():
    rng = np.random.default_rng(42)
    for name in available_problems():
        p = PROBLEM_FACTORIES[name]()
        pts = rng.uniform(p.lower, p.upper, size=(20, 2))
        F1, F2 = p.evaluate_arrays(pts[:, 0], pts[:, 1])
        for k in range(20):
            f1, f2 = _at(p, *pts[k])
            assert f1 == F1[k] and f2 == F2[k]
