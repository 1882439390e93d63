"""Unit tests for the Gonzalez greedy farthest-point technique."""

import numpy as np
import pytest

from repro.core.greedy import greedy_select
from repro.exceptions import ParameterError


def well_separated_clusters():
    """Three tight clusters far apart plus their generator."""
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    pts = np.vstack([
        c + rng.normal(0, 0.5, size=(30, 2)) for c in centers
    ])
    labels = np.repeat([0, 1, 2], 30)
    return pts, labels


class TestGreedySelect:
    def test_selects_requested_count(self):
        pts, _ = well_separated_clusters()
        idx = greedy_select(pts, 5, seed=1)
        assert idx.shape == (5,)
        assert len(set(idx.tolist())) == 5

    def test_pierces_well_separated_clusters(self):
        pts, labels = well_separated_clusters()
        idx = greedy_select(pts, 3, seed=1)
        assert set(labels[idx]) == {0, 1, 2}

    def test_first_pick_respected(self):
        pts, _ = well_separated_clusters()
        idx = greedy_select(pts, 3, first=7)
        assert idx[0] == 7

    def test_deterministic_given_seed(self):
        pts, _ = well_separated_clusters()
        a = greedy_select(pts, 4, seed=5)
        b = greedy_select(pts, 4, seed=5)
        assert np.array_equal(a, b)

    def test_second_pick_is_farthest_from_first(self):
        pts = np.array([[0.0], [1.0], [10.0], [4.0]])
        idx = greedy_select(pts, 2, first=0)
        assert idx[1] == 2

    def test_each_pick_maximises_min_distance(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 100, size=(50, 3))
        idx = greedy_select(pts, 6, first=0, metric="euclidean")
        chosen = list(idx)
        for step in range(1, 6):
            prev = pts[chosen[:step]]
            dists = np.linalg.norm(pts[:, None, :] - prev[None], axis=2).min(axis=1)
            dists[chosen[:step]] = -np.inf
            assert dists[chosen[step]] == pytest.approx(dists.max())

    def test_manhattan_metric_changes_geometry(self):
        pts = np.array([[0.0, 0.0], [3.0, 3.0], [4.0, 0.0]])
        # from (0,0): manhattan farthest is (3,3)=6; euclidean is (3,3)~4.24 > 4
        idx_m = greedy_select(pts, 2, first=0, metric="manhattan")
        assert idx_m[1] == 1

    def test_select_all(self):
        pts, _ = well_separated_clusters()
        idx = greedy_select(pts, len(pts), seed=0)
        assert sorted(idx.tolist()) == list(range(len(pts)))

    def test_too_many_rejected(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ParameterError, match="cannot select"):
            greedy_select(pts, 4)

    def test_bad_first_rejected(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ParameterError, match="first"):
            greedy_select(pts, 2, first=3)
