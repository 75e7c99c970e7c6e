"""Accuracy of the detected efficient sets against closed-form ones.

Distances are in units of h, the larger grid spacing.  *Precision* is the
largest distance from a detected efficient point to the true set;
*coverage* is the largest distance from a sample of the true set (samples
h/16 apart) to a detected point.  An even n puts no true set on a grid
line, an odd n puts every one of them on grid lines."""

import numpy as np
import pytest

from oracles import (EFFICIENT_SEGMENTS, nearest_distances, segment_distances,
                     segment_samples)
from paretoscape import build_fieldset, build_grid, get_problem
from paretoscape.criticality import classify
from paretoscape.landscape import connected_components

# (precision, coverage) bounds in h for even and odd n, and the true
# component count.  Measured at n = 100, 200, 400 (even) and 101, 201, 401
# (odd): bisphere 0.50 / 0.00 and 0.71 / 0.50; mindist 0.28-0.38 /
# 0.00-0.50 and 1.69-2.47 / 1.35-2.00.  Each bound is the largest figure
# of its parity plus a margin of 0.1h.
BOUNDS = {
    "bisphere": {0: (0.60, 0.81), 1: (0.10, 0.60), "components": 1},
    "mindist": {0: (0.48, 2.57), 1: (0.60, 2.10), "components": 4},
}


@pytest.mark.parametrize("n", [100, 101, 200, 201, 400, 401])
@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_detected_set_lies_near_the_closed_form_set(name, n):
    p = get_problem(name)
    g = build_grid(p.lower, p.upper, n, n)
    mask = classify(build_fieldset(p, g)).efficient_mask
    h = max(g.s1, g.s2)
    i, j = np.nonzero(mask)
    points = np.stack([g.x1[i], g.x2[j]], axis=1)
    segments = EFFICIENT_SEGMENTS[name]
    precision = segment_distances(points, segments).max() / h
    coverage = nearest_distances(segment_samples(segments, h / 16),
                                 points).max() / h
    max_precision, max_coverage = BOUNDS[name][n % 2]
    assert precision <= max_precision, (name, n, precision)
    assert coverage <= max_coverage, (name, n, coverage)
    assert connected_components(mask)[1] == BOUNDS[name]["components"]
