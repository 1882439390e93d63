"""Unit tests for the public PROCLUS API (estimator + function)."""

import sys

import numpy as np
import pytest

import repro.robustness.supervisor  # noqa: F401 - bound before patching
import repro.validation
from repro import Proclus, proclus
from repro.core import locality_report, sweep_k, sweep_l
from repro.data import generate
from repro.exceptions import DataError, NotFittedError, ParameterError
from repro.metrics import adjusted_rand_index
from repro.metrics.internal import projected_objective


@pytest.fixture(scope="module")
def easy_dataset():
    return generate(1500, 12, 3, cluster_dim_counts=[5, 5, 5],
                    outlier_fraction=0.03, seed=17)


@pytest.fixture(scope="module")
def fitted(easy_dataset):
    return proclus(easy_dataset.points, 3, 5, seed=17)


class TestFunctionalApi:
    def test_result_shapes(self, easy_dataset, fitted):
        assert fitted.labels.shape == (1500,)
        assert fitted.medoids.shape == (3, 12)
        assert fitted.medoid_indices.shape == (3,)
        assert set(fitted.dimensions) == {0, 1, 2}

    def test_labels_range(self, fitted):
        assert set(np.unique(fitted.labels)) <= {-1, 0, 1, 2}

    def test_dimension_budget(self, fitted):
        assert sum(len(d) for d in fitted.dimensions.values()) == 15
        assert all(len(d) >= 2 for d in fitted.dimensions.values())

    def test_medoids_are_data_points(self, easy_dataset, fitted):
        assert np.array_equal(
            fitted.medoids, easy_dataset.points[fitted.medoid_indices]
        )

    def test_quality_on_easy_data(self, easy_dataset, fitted):
        ari = adjusted_rand_index(fitted.labels, easy_dataset.labels)
        assert ari > 0.8

    def test_phase_timings_recorded(self, fitted):
        assert set(fitted.phase_seconds) == {
            "initialization", "iterative", "refinement"
        }
        assert all(v >= 0 for v in fitted.phase_seconds.values())

    def test_deterministic_given_seed(self, easy_dataset):
        a = proclus(easy_dataset.points, 3, 5, seed=3)
        b = proclus(easy_dataset.points, 3, 5, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert a.dimensions == b.dimensions

    def test_accepts_dataset_objects(self, easy_dataset):
        result = proclus(easy_dataset, 3, 5, seed=3, max_bad_tries=5)
        assert result.labels.shape == (1500,)

    def test_handle_outliers_false(self, easy_dataset):
        result = proclus(easy_dataset.points, 3, 5, seed=3,
                         handle_outliers=False, max_bad_tries=5)
        assert result.n_outliers == 0

    def test_invalid_l_rejected(self, easy_dataset):
        with pytest.raises(ParameterError):
            proclus(easy_dataset.points, 3, 1, seed=1)

    def test_non_integral_kl_rejected(self, easy_dataset):
        with pytest.raises(ParameterError, match="integral"):
            proclus(easy_dataset.points, 3, 2.5, seed=1)


class TestEstimator:
    def test_fit_returns_self(self, easy_dataset):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5)
        assert est.fit(easy_dataset.points) is est

    def test_attributes_after_fit(self, easy_dataset):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(easy_dataset.points)
        assert est.labels_.shape == (1500,)
        assert est.medoids_.shape == (3, 12)
        assert isinstance(est.objective_, float)
        assert set(est.dimensions_) == {0, 1, 2}

    def test_not_fitted_raises(self):
        est = Proclus(k=3, l=5)
        with pytest.raises(NotFittedError):
            _ = est.labels_

    def test_fit_predict(self, easy_dataset):
        labels = Proclus(k=3, l=5, seed=1,
                         max_bad_tries=5).fit_predict(easy_dataset.points)
        assert labels.shape == (1500,)

    def test_predict_new_points(self, easy_dataset):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(easy_dataset.points)
        new_labels = est.predict(easy_dataset.points[:10])
        assert new_labels.shape == (10,)
        assert set(new_labels.tolist()) <= {0, 1, 2}

    def test_predict_consistent_with_assignment(self, easy_dataset):
        """predict() on training points matches non-outlier fit labels."""
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(easy_dataset.points)
        predicted = est.predict(easy_dataset.points)
        mask = est.labels_ >= 0
        assert np.array_equal(predicted[mask], est.labels_[mask])


class TestObjectiveQuality:
    def test_objective_better_than_random_assignment(self, easy_dataset, fitted):
        from repro.core.objective import evaluate_clusters
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 3, size=1500)
        dim_sets = [fitted.dimensions[i] for i in range(3)]
        random_obj = evaluate_clusters(easy_dataset.points, random_labels, dim_sets)
        assert fitted.objective < random_obj


@pytest.fixture
def check_array_calls(monkeypatch):
    """Count ``check_array`` calls at every ``repro`` module that binds it."""
    original = repro.validation.check_array
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("name"))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "repro" or name.startswith("repro."))
                and getattr(module, "check_array", None) is original):
            monkeypatch.setattr(module, "check_array", counting)
    return calls


class TestValidateOnce:
    """The entry point scans X once; the phase kernels trust it."""

    @pytest.mark.parametrize("params", [
        {},
        {"cache": False},
        {"fit_sample_size": 500},
        {"restarts": 3, "n_jobs": 1},
    ], ids=["cached", "uncached", "fit_sample_size", "serial_restarts"])
    def test_fit_scans_x_once(self, easy_dataset, check_array_calls, params):
        proclus(easy_dataset.points, 3, 5, seed=17, max_bad_tries=5,
                **params)
        assert check_array_calls == ["X"]

    def test_predict_scans_x_once(self, easy_dataset, check_array_calls):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(
            easy_dataset.points)
        del check_array_calls[:]
        est.predict(easy_dataset.points[:10])
        assert check_array_calls == ["X"]


@pytest.fixture(params=[np.nan, np.inf], ids=["nan", "inf"])
def dirty_points(request, easy_dataset):
    X = easy_dataset.points.copy()
    X[7, 3] = request.param
    return X


class TestBoundaryRejectsBadValues:
    def test_proclus_collapse_duplicates(self, dirty_points):
        with pytest.raises(DataError):
            proclus(dirty_points, 3, 5, seed=1, collapse_duplicates=True)

    def test_proclus_auto_degrade(self, dirty_points):
        with pytest.raises(DataError):
            proclus(dirty_points, 3, 5, seed=1, auto_degrade=True)

    def test_estimator_predict(self, easy_dataset, dirty_points):
        est = Proclus(k=3, l=5, seed=1, max_bad_tries=5).fit(
            easy_dataset.points)
        with pytest.raises(DataError):
            est.predict(dirty_points)

    def test_locality_report(self, dirty_points):
        with pytest.raises(DataError):
            locality_report(dirty_points, [0, 1, 2])

    def test_sweep_k(self, dirty_points):
        with pytest.raises(DataError):
            sweep_k(dirty_points, [2, 3], 5, seed=1)

    def test_sweep_l(self, dirty_points):
        with pytest.raises(DataError):
            sweep_l(dirty_points, 3, [4, 5], seed=1)

    def test_projected_objective(self, dirty_points):
        labels = np.zeros(dirty_points.shape[0], dtype=np.int64)
        with pytest.raises(DataError):
            projected_objective(dirty_points, labels, {0: (0, 3)})
