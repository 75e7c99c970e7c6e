"""Grid-based detection, ranking and visualisation of locally efficient
points of bi-objective continuous optimisation problems."""

from .problems import (BiObjectiveProblem, DomainError, UnknownProblemError,
                       available_problems, get_problem, make_aspar,
                       make_bisphere, make_kursawe, make_mindist, make_sgk)
from .grid import EvaluationError, Grid, build_grid, evaluate_grid
from .gradients import FieldSet, build_fieldset, export_fields_csv
from .criticality import (CLASS_NAMES, CriticalityMap, PointClass, classify,
                          export_critical_points_json, origin_in_hull)
from .landscape import (BasinMap, EfficientSetDecomposition, HeightField,
                        LandscapeResult, analyze, connected_components,
                        cost_landscape, decompose_efficient_set,
                        dominance_counts, export_decomposition_json,
                        export_heights_csv, gfh_heights)
from .render import (PlotArtifact, colormap_blue_red, compose_plot, render,
                     render_critical_map, render_height_map)

__version__ = "0.1.0"

__all__ = [
    "BiObjectiveProblem", "DomainError", "UnknownProblemError",
    "available_problems", "get_problem", "make_aspar", "make_bisphere",
    "make_kursawe", "make_mindist", "make_sgk",
    "EvaluationError", "Grid", "build_grid", "evaluate_grid",
    "FieldSet", "build_fieldset", "export_fields_csv",
    "CLASS_NAMES", "CriticalityMap", "PointClass", "classify",
    "export_critical_points_json", "origin_in_hull",
    "BasinMap", "EfficientSetDecomposition", "HeightField",
    "LandscapeResult", "analyze", "connected_components", "cost_landscape",
    "decompose_efficient_set", "dominance_counts",
    "export_decomposition_json", "export_heights_csv", "gfh_heights",
    "PlotArtifact", "colormap_blue_red", "compose_plot", "render",
    "render_critical_map", "render_height_map",
]
