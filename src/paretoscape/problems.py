"""Built-in bi-objective test problems on box-constrained 2-D domains.

Every problem maps a point x = (x1, x2) inside its box to two objective
values (f1, f2), both to be minimised.  Evaluation is vectorised and
elementwise: the callables accept equally shaped coordinate arrays and
return objective arrays of the same shape, each element depending only on
its own coordinates.  ``evaluate_grid`` calls them on the float coordinate
meshes of one block of grid rows at a time, from several threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """A grid lies outside a problem's box domain."""


class UnknownProblemError(ValueError):
    """Requested problem name is not in the registry."""


EvalFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass
class BiObjectiveProblem:
    """A named bi-objective problem over the box [lower, upper].

    Attributes:
        name: registry name (parametrised instances keep the base name).
        lower, upper: box corners, each a float array of shape (2,).
        fn: vectorised elementwise evaluator (X1, X2) -> (F1, F2).
            ``evaluate_grid`` calls it, concurrently from several threads,
            with two equally shaped float arrays: the coordinates of one
            block of grid rows, after checking the grid box against
            ``lower`` and ``upper``.
        note: free-form provenance/usage remark shown by --list-problems.
    """

    name: str
    lower: np.ndarray
    upper: np.ndarray
    fn: EvalFn
    note: str = ""

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (2,) or self.upper.shape != (2,):
            raise ValueError("problem bounds must have shape (2,)")
        if not np.all(self.lower < self.upper):
            raise ValueError(
                f"problem {self.name!r}: lower bounds {self.lower.tolist()} must be "
                f"strictly below upper bounds {self.upper.tolist()}"
            )


# ---------------------------------------------------------------------------
# Problem definitions
# ---------------------------------------------------------------------------

def _bisphere_fn(a, b):
    ax, ay = a
    bx, by = b

    def fn(x1, x2):
        f1 = (x1 - ax) ** 2 + (x2 - ay) ** 2
        f2 = (x1 - bx) ** 2 + (x2 - by) ** 2
        return f1, f2

    return fn


def make_bisphere(a=(-1.0, 0.0), b=(1.0, 0.0)) -> BiObjectiveProblem:
    """Two squared-distance objectives with centres a and b.

    The efficient set is exactly the straight segment between the centres,
    which makes this the standard ground-truth problem for the detector.
    """
    a = (float(a[0]), float(a[1]))
    b = (float(b[0]), float(b[1]))
    return BiObjectiveProblem(
        name="bisphere",
        lower=np.array([-2.0, -2.0]),
        upper=np.array([2.0, 2.0]),
        fn=_bisphere_fn(a, b),
        note=f"squared distances to {a} and {b}; efficient set = connecting segment",
    )


def _aspar_fn(x1, x2):
    f1 = x1 ** 4 - 2.0 * x1 ** 2 + 2.0 * x2 ** 2 + 1.0
    f2 = (x1 + 0.5) ** 2 + (x2 - 2.0) ** 2
    return f1, f2


def make_aspar() -> BiObjectiveProblem:
    """Asymmetric pair: a two-basin quartic against an off-centre sphere.

    f1 has minima at (±1, 0) separated by a saddle at the origin; f2 is a
    single bowl at (-0.5, 2).  Produces one globally and one locally efficient
    branch plus saddle-connected critical-only points.
    """
    return BiObjectiveProblem(
        name="aspar",
        lower=np.array([-2.0, -1.0]),
        upper=np.array([2.0, 3.0]),
        fn=_aspar_fn,
        note="bi-modal quartic vs. shifted sphere; mixes global/local efficient branches",
    )


_SGK_PEAKS = ((1.5, 0.5, 0.0), (2.0, 0.25, 2.0 / 3.0), (3.0, 1.0, 1.0))


def _sgk_fn(x1, x2):
    f1 = 1.0 - 1.0 / (1.0 + 4.0 * ((x1 - 2.0 / 3.0) ** 2 + (x2 - 1.0) ** 2))
    g = [h / (1.0 + 4.0 * ((x1 - c1) ** 2 + (x2 - c2) ** 2)) for h, c1, c2 in _SGK_PEAKS]
    f2 = 1.0 - np.maximum(np.maximum(g[0], g[1]), g[2])
    return f1, f2


def make_sgk() -> BiObjectiveProblem:
    """Smooth peak function against a three-peak max construction.

    f2 takes the upper envelope of three inverse-quadratic peaks of heights
    1.5, 2 and 3, giving three separated basins and therefore three connected
    components of locally efficient points (one per peak, only the one
    attached to the highest peak is globally efficient).
    """
    return BiObjectiveProblem(
        name="sgk",
        lower=np.array([-0.25, -0.25]),
        upper=np.array([1.25, 1.25]),
        fn=_sgk_fn,
        note="three-basin max-of-peaks landscape; 3 efficient components expected",
    )


def _mindist_fn(x1, x2):
    d = lambda cx, cy: (x1 - cx) ** 2 + (x2 - cy) ** 2
    f1 = np.minimum(d(-2.0, -1.0), d(2.0, 1.0))
    f2 = np.minimum(d(-2.0, 1.0), d(2.0, -1.0))
    return f1, f2


def make_mindist() -> BiObjectiveProblem:
    """Minimum squared distance to one of two centre pairs (non-smooth ridges)."""
    return BiObjectiveProblem(
        name="mindist",
        lower=np.array([-4.0, -4.0]),
        upper=np.array([4.0, 4.0]),
        fn=_mindist_fn,
        note="min-distance to centre pairs {(-2,-1),(2,1)} / {(-2,1),(2,-1)}",
    )


def _kursawe_fn(x1, x2):
    f1 = -10.0 * np.exp(-0.2 * np.sqrt(x1 ** 2 + x2 ** 2))
    f2 = (
        np.abs(x1) ** 0.8 + 5.0 * np.sin(x1 ** 3)
        + np.abs(x2) ** 0.8 + 5.0 * np.sin(x2 ** 3)
    )
    return f1, f2


def make_kursawe() -> BiObjectiveProblem:
    """Two-variable Kursawe function (formula from the general benchmark
    literature; box [-5,5]² is the conventional choice there)."""
    return BiObjectiveProblem(
        name="kursawe",
        lower=np.array([-5.0, -5.0]),
        upper=np.array([5.0, 5.0]),
        fn=_kursawe_fn,
        note="externally sourced benchmark formula; highly multimodal f2",
    )


PROBLEM_FACTORIES: dict[str, Callable[..., BiObjectiveProblem]] = {
    "bisphere": make_bisphere,
    "aspar": make_aspar,
    "sgk": make_sgk,
    "mindist": make_mindist,
    "kursawe": make_kursawe,
}


def available_problems() -> list[str]:
    return sorted(PROBLEM_FACTORIES)


def get_problem(descriptor: str) -> BiObjectiveProblem:
    """Resolve a problem descriptor ``name`` or ``name:p1,p2,...``.

    Only ``bisphere`` is parametric: ``bisphere:ax,ay,bx,by`` sets its two
    finite centres.  Anything else, an empty parameter list after ``:``
    included, raises UnknownProblemError.
    """
    name, colon, params = descriptor.partition(":")
    name = name.strip()
    if name not in PROBLEM_FACTORIES:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(available_problems())}"
        )
    if not colon:
        return PROBLEM_FACTORIES[name]()
    if name != "bisphere":
        raise UnknownProblemError(
            f"problem {name!r} takes no parameters (only 'bisphere:ax,ay,bx,by' is parametric)"
        )
    try:
        vals = [float(v) for v in params.split(",")]
    except ValueError as exc:
        raise UnknownProblemError(f"could not parse parameters {params!r}: {exc}") from exc
    if len(vals) != 4:
        raise UnknownProblemError(
            f"bisphere expects 4 parameters ax,ay,bx,by, got {len(vals)}"
        )
    if not np.all(np.isfinite(vals)):
        raise UnknownProblemError(f"bisphere parameters must be finite, got {params!r}")
    return make_bisphere((vals[0], vals[1]), (vals[2], vals[3]))
