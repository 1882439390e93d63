"""Unit tests for the robustness diagnostics (paper section 3)."""

import numpy as np
import pytest

from repro.core import locality_report, piercing_report, proclus
from repro.core.initialization import initialize_medoid_pool
from repro.data import generate


class TestPiercingReport:
    def test_piercing_set(self):
        labels = np.array([0, 0, 1, 1, 2, 2, -1])
        report = piercing_report([0, 2, 4], labels)
        assert report.is_piercing
        assert report.clusters_missed == ()
        assert report.n_outlier_points == 0
        assert report.n_duplicated_clusters == 0

    def test_missing_cluster(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        report = piercing_report([0, 1], labels)
        assert not report.is_piercing
        assert set(report.clusters_missed) == {1, 2}
        assert report.n_duplicated_clusters == 1

    def test_outlier_picks_counted(self):
        labels = np.array([0, -1, -1, 1])
        report = piercing_report([0, 1, 2, 3], labels)
        assert report.n_outlier_points == 2
        assert report.is_piercing

    def test_to_text(self):
        labels = np.array([0, 1])
        assert "piercing" in piercing_report([0, 1], labels).to_text()
        assert "NOT piercing" in piercing_report([0], labels).to_text()


class TestLocalityReport:
    def test_basic_fields(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 100, size=(500, 6))
        report = locality_report(X, [0, 100, 200])
        assert len(report.sizes) == 3
        assert len(report.deltas) == 3
        assert report.expected_random == pytest.approx(500 / 3)
        assert report.min_size <= report.mean_size

    def test_to_text(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 100, size=(200, 4))
        text = locality_report(X, [0, 50]).to_text()
        assert "locality sizes" in text
        assert "N/k" in text


class TestSectionThreeClaims:
    def test_greedy_pool_is_piercing_on_paper_workload(self):
        """Section 2.1: the two-step initialization yields a superset
        of a piercing set with high probability."""
        ds = generate(4000, 20, 5, cluster_dim_counts=[7] * 5,
                      outlier_fraction=0.05, seed=70)
        pool = initialize_medoid_pool(ds.points, 150, 25, seed=3)
        assert piercing_report(pool, ds.labels).is_piercing

    def test_greedy_medoid_localities_exceed_random_expectation(self):
        """Section 3: greedy-selected medoids are far apart, so their
        localities should be at least as large as random medoids'."""
        ds = generate(3000, 20, 5, cluster_dim_counts=[7] * 5,
                      outlier_fraction=0.05, seed=70)
        result = proclus(ds.points, 5, 7, seed=71, max_bad_tries=10,
                         keep_history=False)
        report = locality_report(ds.points, result.medoid_indices)
        assert report.meets_theorem_bound
