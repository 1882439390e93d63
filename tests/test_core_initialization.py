"""Unit tests for the PROCLUS initialization phase."""

import numpy as np
import pytest

from repro.core.initialization import initialize_medoid_pool
from repro.data import generate
from repro.exceptions import ParameterError


class TestInitializeMedoidPool:
    def test_returns_requested_pool_size(self):
        ds = generate(500, 10, 3, seed=1)
        pool = initialize_medoid_pool(ds.points, 90, 15, seed=2)
        assert pool.shape == (15,)
        assert len(set(pool.tolist())) == 15

    def test_indices_within_range(self):
        ds = generate(300, 8, 3, seed=1)
        pool = initialize_medoid_pool(ds.points, 90, 15, seed=2)
        assert pool.min() >= 0
        assert pool.max() < 300

    def test_sample_clamped_to_n(self):
        ds = generate(40, 5, 2, seed=1)
        pool = initialize_medoid_pool(ds.points, 1000, 10, seed=2)
        assert pool.shape == (10,)

    def test_pool_gt_sample_rejected(self):
        ds = generate(100, 5, 2, seed=1)
        with pytest.raises(ParameterError, match="<= sample_size"):
            initialize_medoid_pool(ds.points, 10, 20)

    def test_pool_gt_n_rejected(self):
        ds = generate(10, 5, 2, seed=1)
        with pytest.raises(ParameterError, match="exceeds the number"):
            initialize_medoid_pool(ds.points, 100, 20)

    def test_deterministic(self):
        ds = generate(400, 10, 3, seed=1)
        a = initialize_medoid_pool(ds.points, 90, 15, seed=7)
        b = initialize_medoid_pool(ds.points, 90, 15, seed=7)
        assert np.array_equal(a, b)

    def test_pool_is_piercing_on_easy_data(self):
        """On well-separated data the pool should hit every cluster."""
        ds = generate(1000, 10, 4, cluster_dim_counts=[8] * 4,
                      outlier_fraction=0.02, seed=3)
        pool = initialize_medoid_pool(ds.points, 30 * 4, 5 * 4, seed=5)
        hit = set(int(l) for l in ds.labels[pool] if l >= 0)
        assert hit == {0, 1, 2, 3}

    def test_outliers_diluted_by_sampling(self):
        """The pool should not be dominated by outliers."""
        ds = generate(2000, 10, 3, outlier_fraction=0.05, seed=6)
        pool = initialize_medoid_pool(ds.points, 90, 15, seed=8)
        n_outliers = int(np.sum(ds.labels[pool] == -1))
        assert n_outliers <= 7  # far fewer than a pure-greedy pick would take
