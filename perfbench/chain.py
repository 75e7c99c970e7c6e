"""Traced replica of ``paretoscape.cli.run``, run as a child process.

Usage: python chain.py SPANS_JSON <paretoscape CLI arguments>

Calls each module's public functions in the order ``analyze`` and
``cli.run`` call them, wraps each call in a ``perf_counter`` span, writes
the same image and exports and prints the same summary line as the CLI.

A probe calls an inner function a second time on the same inputs (for
example ``interior_criticality``, which ``classify`` already runs).  Probes
are spans of their own, left out of the chain total, and each probe's result
is compared with what the outer call produced; any difference is listed
under "mismatches".  A stage the mode skips keeps its span, which then times
only the skipped branch.  Spans, counts and mismatches go to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from paretoscape.cli import parse_args
from paretoscape.criticality import (boundary_criticality, classify,
                                     export_critical_points_json,
                                     interior_criticality,
                                     neighbor_dominated_mask, triangle_corners)
from paretoscape.gradients import build_fieldset, export_fields_csv
from paretoscape.grid import build_grid, evaluate_grid
from paretoscape.landscape import (LandscapeResult, connected_components,
                                   cost_landscape, decompose_efficient_set,
                                   dominance_counts, export_decomposition_json,
                                   export_heights_csv, gfh_heights)
from paretoscape.problems import get_problem
from paretoscape.render import render


class Tracer:
    """In-memory spans (name, start, end, parent, probe) and counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.mismatches = []
        self._stack = []

    @contextmanager
    def span(self, name, probe=False):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append({"name": name, "start": t0, "end": t1,
                               "parent": parent, "probe": probe})

    def expect(self, name, same):
        if not same:
            self.mismatches.append(name)


def _pre_trim_efficient(critmap):
    """Efficient mask before the dominance trim, rebuilt from the evidence
    ``classify`` keeps: efficient triangles and efficient boundary pairs."""
    pre = np.zeros(critmap.grid.shape, dtype=bool)
    if critmap.triangles.shape[0]:
        ci, cj = triangle_corners(critmap.triangles[critmap.triangle_efficient])
        pre[ci.ravel(), cj.ravel()] = True
    eff_pairs = critmap.pairs[critmap.pair_efficient]
    pre[eff_pairs[:, 0], eff_pairs[:, 1]] = True
    pre[eff_pairs[:, 2], eff_pairs[:, 3]] = True
    return pre


def traced_run(config, tr: Tracer) -> dict:
    """``cli.run`` with ``analyze`` inlined, one span per public call."""
    span = tr.span
    with span("cli.run"):
        with span("problems.get_problem"):
            problem = get_problem(config.problem)
        lo = problem.lower if config.lower is None else config.lower
        up = problem.upper if config.upper is None else config.upper
        with span("grid.build"):
            grid = build_grid(lo, up, config.n1, config.n2)
        with span("gradients.build_fieldset"):
            fields = build_fieldset(problem, grid, zero_tol_rel=config.zero_tol,
                                    workers=config.workers)
        with span("grid.evaluate", probe=True):
            f1, f2 = evaluate_grid(problem, grid, workers=config.workers)
        tr.expect("grid.evaluate", np.array_equal(f1, fields.f1)
                  and np.array_equal(f2, fields.f2))
        # probe results are dropped once checked, so that they do not add
        # to the memory the later stages run in
        del f1, f2

        with span("criticality.classify"):
            critmap = classify(fields, div_tol_rel=config.div_tol)
        # classify replaces fields.mo but leaves g1, g2 and mo_raw alone,
        # so the probes below see the inputs classify saw
        with span("criticality.interior", probe=True):
            triangles, _ = interior_criticality(fields.g1, fields.g2, grid,
                                                fields.zero_tol)
        tr.expect("criticality.interior",
                  np.array_equal(triangles, critmap.triangles))
        del triangles
        with span("criticality.boundary", probe=True):
            pairs, pair_crit, pair_eff, _ = boundary_criticality(
                fields.g1, fields.g2, fields.mo_raw, grid)
        tr.expect("criticality.boundary",
                  np.array_equal(pairs, critmap.pairs)
                  and np.array_equal(pair_crit, critmap.pair_critical)
                  and np.array_equal(pair_eff, critmap.pair_efficient))
        with span("criticality.trim", probe=True):
            dominated = neighbor_dominated_mask(fields.f1, fields.f2)
        pre = _pre_trim_efficient(critmap)
        tr.expect("criticality.trim",
                  int((pre & dominated).sum()) == critmap.n_trimmed
                  and np.array_equal(pre & ~dominated, critmap.efficient_mask))
        del pre, dominated

        with span("landscape.decompose"):
            decomposition = decompose_efficient_set(critmap, fields.f1, fields.f2)
        with span("landscape.components", probe=True):
            labels, n_comp = connected_components(critmap.efficient_mask)
        tr.expect("landscape.components",
                  n_comp == decomposition.n_components
                  and np.array_equal(labels, decomposition.component_labels))
        del labels

        with span("landscape.gfh"):
            heights, basins = gfh_heights(fields, critmap, decomposition)
        cost = None
        with span("landscape.cost"):
            if config.mode == "cost":
                cost = cost_landscape(fields.f1, fields.f2, grid)
        with span("landscape.dominance", probe=True):
            if cost is not None:
                F = np.stack([fields.f1.ravel(order="F"),
                              fields.f2.ravel(order="F")], axis=1)
                counts = dominance_counts(F)
                tr.expect("landscape.dominance", np.array_equal(
                    counts.reshape((grid.n2, grid.n1)).T, cost.values))
                del F, counts
        result = LandscapeResult(problem=problem, grid=grid, fields=fields,
                                 critmap=critmap, decomposition=decomposition,
                                 heights=heights, basins=basins, cost=cost)

        shown = result.cost if config.mode == "cost" else result.heights
        with span("render.raster"):
            artifact = render(config.mode, heights=shown, critmap=critmap,
                              decomposition=decomposition,
                              log_scale=config.log_scale)
        if "warning" in artifact.legend:
            print(f"warning: {artifact.legend['warning']}", file=sys.stderr)
        with span("render.encode"):
            data = (artifact.to_png_bytes() if config.fmt == "png"
                    else artifact.to_ppm_bytes())
        with span("render.write"):
            with open(config.output_path(), "wb") as fh:
                fh.write(data)

        critical = config.mode == "critical"
        with span("gradients.export_csv"):
            if config.export_csv and critical:
                export_fields_csv(config.export_csv, fields)
        with span("landscape.export_csv"):
            if config.export_csv and not critical:
                export_heights_csv(config.export_csv, shown)
        with span("criticality.export_json"):
            if config.export_json and critical:
                export_critical_points_json(config.export_json, critmap, fields)
        with span("landscape.export_json"):
            if config.export_json and not critical:
                export_decomposition_json(config.export_json, decomposition,
                                          fields.f1, fields.f2)
        summary = result.summary()
        print(json.dumps(summary))

    n1, n2 = grid.shape
    tr.counts.update({
        "criticality.triangles": int(critmap.triangles.shape[0]),
        "criticality.triangle_ratio":
            critmap.triangles.shape[0] / (4 * (n1 - 1) * (n2 - 1)),
        "criticality.boundary_pairs": int(critmap.pair_critical.sum()),
        "criticality.efficient": int(critmap.efficient_mask.sum()),
        "criticality.trimmed": int(critmap.n_trimmed),
        "landscape.components": int(decomposition.n_components),
        "landscape.rank0": int(decomposition.n_rank0),
        "landscape.unconverged_ratio": basins.n_unconverged / (n1 * n2),
        "render.png_bytes": len(data),
    })
    return summary


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    config = parse_args(cli_argv)
    tr = Tracer()
    traced_run(config, tr)
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({"spans": tr.spans, "counts": tr.counts,
                   "mismatches": tr.mismatches}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
