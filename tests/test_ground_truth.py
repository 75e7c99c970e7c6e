"""Accuracy of the detected efficient sets against closed-form ones.

Distances are in units of h, the larger grid spacing.  *Precision* is the
largest distance from a detected efficient point to the true set;
*coverage* is the largest distance from a sample of the true set (samples
h/16 apart) to a detected point.  An even n puts no true set on a grid
line, an odd n puts every one of them on grid lines.  Bisphere centres
outside the box give sets on the box boundary, which check the boundary
pairs, their outward-descent test and the edge rotation."""

import numpy as np
import pytest

from oracles import (EFFICIENT_SEGMENTS, nearest_distances, segment_distances,
                     segment_samples)
from paretoscape import analyze, build_fieldset, build_grid, get_problem
from paretoscape.criticality import PointClass, classify
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


# the same for the box-constrained sets, all of one component, and whether
# their efficient points include interior ones.  Measured: -1,3,1,3 0.00 /
# 0.50 for either parity; 1,3,3,1 0.25 / 0.50 and 0.00 / 0.50; -1,0,1,3
# 1.32 / 0.65 and 1.39 / 0.60
BOUNDARY_BOUNDS = {
    "bisphere:-1,3,1,3": {0: (0.10, 0.60), 1: (0.10, 0.60), "interior": False},
    "bisphere:1,3,3,1": {0: (0.35, 0.60), 1: (0.10, 0.60), "interior": False},
    "bisphere:-1,0,1,3": {0: (1.42, 0.76), 1: (1.49, 0.71), "interior": True},
}


def _accuracy(name, g, mask):
    """(precision, coverage) of the efficient ``mask`` on grid ``g``, in
    units of h, against the closed-form set of ``name``."""
    h = max(g.s1, g.s2)
    i, j = np.nonzero(mask)
    points = np.stack([g.x1[i], g.x2[j]], axis=1)
    segments = EFFICIENT_SEGMENTS[name]
    return (segment_distances(points, segments).max() / h,
            nearest_distances(segment_samples(segments, h / 16),
                              points).max() / h)


@pytest.mark.parametrize("n", [100, 101, 200, 201, 400, 401])
@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_detected_set_lies_near_the_closed_form_set(name, n):
    p = get_problem(name)
    g = build_grid(p.lower, p.upper, n, n)
    mask = classify(build_fieldset(p, g)).efficient_mask
    precision, coverage = _accuracy(name, g, mask)
    max_precision, max_coverage = BOUNDS[name][n % 2]
    assert precision <= max_precision, (name, n, precision)
    assert coverage <= max_coverage, (name, n, coverage)
    assert connected_components(mask)[1] == BOUNDS[name]["components"]


@pytest.mark.parametrize("n", [100, 101, 200, 201, 400, 401])
@pytest.mark.parametrize("name", sorted(BOUNDARY_BOUNDS))
def test_box_constrained_set_lies_near_the_closed_form_set(name, n):
    r = analyze(get_problem(name), n, n)
    labels = r.critmap.labels
    precision, coverage = _accuracy(name, r.grid, r.critmap.efficient_mask)
    max_precision, max_coverage = BOUNDARY_BOUNDS[name][n % 2]
    assert precision <= max_precision, (name, n, precision)
    assert coverage <= max_coverage, (name, n, coverage)
    assert r.decomposition.n_components == 1
    assert (labels == PointClass.EFFICIENT_BOUNDARY).any()
    assert ((labels == PointClass.EFFICIENT_INTERIOR).any()
            == BOUNDARY_BOUNDS[name]["interior"])
    # the edge rotation carries every descent path to the set
    assert r.basins.n_unconverged == 0 and r.basins.n_cycles == 0


def test_segment_distances_takes_no_zero_length_segment():
    for name, segments in EFFICIENT_SEGMENTS.items():
        assert all(a != b for a, b in segments), name
    with pytest.raises(ValueError, match="length 0"):
        segment_distances(np.zeros((1, 2)), [((1.0, 2.0), (1.0, 2.0))])
