"""The inference core: ``predict_points`` / ``ProclusResult.predict``.

The load-bearing contract is **fit/predict bit-identity**: running the
training matrix back through ``predict`` must reproduce
``result.labels`` exactly — across working dtypes, cache on/off,
serial/parallel fits, chunk sizes, and a save/load round-trip — because
the predict path *is* the refinement phase's assignment rule.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.predict import (DEFAULT_PREDICT_CHUNK, PredictReport,
                                normalize_dimension_sets, predict_points)
from repro.core.proclus import proclus
from repro.core.refinement import spheres_of_influence
from repro.core.serialization import load_result, save_result
from repro.exceptions import (BudgetExceededError, DataError, ParameterError)
from repro.obs import Tracer, use_tracer, validate_trace_lines
from repro.robustness.guards import Deadline


@pytest.fixture(scope="module")
def fitted(tiny_projected_dataset_module):
    ds = tiny_projected_dataset_module
    result = proclus(ds.points, 3, 4.0, seed=99)
    return ds, result


@pytest.fixture(scope="module")
def tiny_projected_dataset_module():
    from repro.data import generate
    return generate(600, 10, 3, cluster_dim_counts=[3, 3, 4],
                    outlier_fraction=0.05, seed=202)


# ---------------------------------------------------------------------------
# fit/predict bit-identity
# ---------------------------------------------------------------------------

class TestTrainingSetBitIdentity:
    def test_float64(self, fitted):
        ds, result = fitted
        assert np.array_equal(result.predict(ds.points), result.labels)

    def test_float32(self, tiny_projected_dataset_module):
        ds = tiny_projected_dataset_module
        result = proclus(ds.points, 3, 4.0, seed=99, dtype="float32")
        assert result.medoids.dtype == np.float32
        assert np.array_equal(result.predict(ds.points), result.labels)

    def test_cache_off(self, tiny_projected_dataset_module):
        ds = tiny_projected_dataset_module
        result = proclus(ds.points, 3, 4.0, seed=99, cache=False)
        assert np.array_equal(result.predict(ds.points), result.labels)

    def test_parallel_fit(self, tiny_projected_dataset_module):
        ds = tiny_projected_dataset_module
        result = proclus(ds.points, 3, 4.0, seed=99, restarts=2, n_jobs=2)
        assert np.array_equal(result.predict(ds.points), result.labels)

    def test_save_load_round_trip(self, fitted, tmp_path):
        ds, result = fitted
        path = save_result(result, tmp_path / "model.npz")
        loaded = load_result(path)
        assert np.array_equal(loaded.predict(ds.points), result.labels)

    def test_no_outlier_fit_predicts_without_rule(
            self, tiny_projected_dataset_module):
        ds = tiny_projected_dataset_module
        result = proclus(ds.points, 3, 4.0, seed=99, handle_outliers=False)
        labels = result.predict(ds.points, handle_outliers=False)
        assert np.array_equal(labels, result.labels)
        assert not (labels == -1).any()


class TestChunkInvariance:
    def test_chunk_size_never_changes_bits(self, fitted):
        ds, result = fitted
        reference = result.predict(ds.points)
        for chunk in (1, 7, 37, 599, 600, DEFAULT_PREDICT_CHUNK):
            assert np.array_equal(
                result.predict(ds.points, chunk_size=chunk), reference)

    def test_memory_budget_never_changes_bits(self, fitted):
        ds, result = fitted
        reference = result.predict(ds.points)
        assert np.array_equal(
            result.predict(ds.points, memory_budget_bytes=1 << 14), reference)

    def test_traced_equals_untraced(self, fitted):
        ds, result = fitted
        untraced = result.predict(ds.points)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = result.predict(ds.points)
        assert np.array_equal(traced, untraced)
        records = list(tracer.iter_records())
        assert any(r.get("name") == "predict" for r in records)
        counters = next(r["values"] for r in records
                        if r.get("type") == "counters")
        assert {"predict.points", "predict.outliers"} <= set(counters)
        assert counters["predict.points"] == ds.n_points


# ---------------------------------------------------------------------------
# sphere-of-influence semantics
# ---------------------------------------------------------------------------

class TestSphereOfInfluence:
    def _model(self):
        # two medoids 10 apart on dim 0; both clusters project onto {0}
        medoids = np.array([[0.0, 0.0], [10.0, 0.0]])
        return medoids, [(0,), (0,)]

    def test_point_inside_sphere_is_assigned(self):
        medoids, dims = self._model()
        report = predict_points(np.array([[1.0, 50.0]]), medoids, dims)
        assert report.labels.tolist() == [0]

    def test_point_outside_every_sphere_is_outlier(self):
        medoids, dims = self._model()
        # 25 from medoid 0 and 15 from medoid 1 on dim 0: both exceed
        # the sphere radius of 10 -> outlier, strict `>` rule
        report = predict_points(np.array([[25.0, 0.0]]), medoids, dims)
        assert report.labels.tolist() == [-1]
        assert report.n_outliers == 1

    def test_point_exactly_on_sphere_is_kept(self):
        medoids, dims = self._model()
        # distance to medoid 1 is exactly 10 == sphere: strict > keeps it
        report = predict_points(np.array([[20.0, 0.0]]), medoids, dims)
        assert report.labels.tolist() == [1]

    def test_single_medoid_rejects_nothing(self):
        report = predict_points(np.array([[1e6, 1e6]]),
                                np.zeros((1, 2)), [(0, 1)])
        assert report.labels.tolist() == [0]
        assert np.isinf(report.spheres).all()

    def test_handle_outliers_false_always_assigns(self):
        medoids, dims = self._model()
        report = predict_points(np.array([[1e6, 0.0]]), medoids, dims,
                                handle_outliers=False)
        assert report.labels.tolist() == [1]

    def test_precomputed_spheres_match_recomputed(self, fitted):
        ds, result = fitted
        dims = normalize_dimension_sets(result.dimensions,
                                        result.k, ds.points.shape[1])
        spheres = spheres_of_influence(result.medoids, dims)
        a = predict_points(ds.points, result.medoids, result.dimensions)
        b = predict_points(ds.points, result.medoids, result.dimensions,
                           spheres=spheres)
        assert np.array_equal(a.labels, b.labels)

    def test_segmental_distance_is_per_cluster_subspace(self):
        # medoid 0 looks at dim 0 only, medoid 1 at dim 1 only: a point
        # near the origin on dim 0 but far on dim 1 must pick cluster 0
        medoids = np.array([[0.0, 0.0], [0.0, 0.0]])
        report = predict_points(np.array([[0.5, 9.0]]), medoids,
                                [(0,), (1,)], handle_outliers=False)
        assert report.labels.tolist() == [0]


# ---------------------------------------------------------------------------
# validation and policies
# ---------------------------------------------------------------------------

class TestValidation:
    def test_wrong_dimensionality_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ParameterError, match="expects d=10"):
            result.predict(np.zeros((3, 4)))

    def test_non_numeric_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ParameterError):
            result.predict([["a", "b"]])

    def test_empty_batch_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ParameterError, match="empty"):
            result.predict(np.zeros((0, 10)))

    def test_3d_batch_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ParameterError, match="2-dimensional"):
            result.predict(np.zeros((2, 3, 10)))

    def test_oversized_batch_rejected(self, fitted):
        ds, result = fitted
        with pytest.raises(ParameterError, match="at most 10"):
            result.predict_report(ds.points, max_points=10)

    def test_single_point_accepted_as_row(self, fitted):
        ds, result = fitted
        labels = result.predict(ds.points[0])
        assert labels.shape == (1,)
        assert labels[0] == result.labels[0]

    def test_nan_raises_by_default(self, fitted):
        ds, result = fitted
        bad = ds.points[:5].copy()
        bad[2, 3] = np.nan
        with pytest.raises(ParameterError, match="NaN"):
            result.predict(bad)

    def test_nan_policy_drop_labels_row_outlier(self, fitted):
        ds, result = fitted
        bad = ds.points[:5].copy()
        bad[2, 3] = np.nan
        report = result.predict_report(bad, on_bad_values="drop")
        assert report.labels.shape == (5,)
        assert report.labels[2] == -1
        keep = [0, 1, 3, 4]
        assert np.array_equal(report.labels[keep], result.labels[:5][keep])
        assert report.warnings

    def test_all_rows_dropped_is_all_outliers_not_error(self, fitted):
        _, result = fitted
        batch = np.full((3, 10), np.nan)
        report = result.predict_report(batch, on_bad_values="drop")
        assert report.labels.tolist() == [-1, -1, -1]
        assert report.n_outliers == 3

    def test_nan_policy_impute_assigns_every_row(self, fitted):
        ds, result = fitted
        bad = ds.points[:20].copy()
        bad[2, 3] = np.inf
        report = result.predict_report(bad, on_bad_values="impute_median")
        assert report.labels.shape == (20,)
        assert report.sanitization is not None

    def test_missing_cluster_id_rejected(self):
        with pytest.raises(ParameterError, match="missing cluster id"):
            normalize_dimension_sets({0: [0]}, 2, 3)

    def test_empty_dimension_set_rejected(self):
        with pytest.raises(ParameterError, match="empty dimension set"):
            normalize_dimension_sets([[0], []], 2, 3)

    def test_out_of_range_dimension_rejected(self):
        with pytest.raises(ParameterError, match="outside"):
            normalize_dimension_sets([[0], [7]], 2, 3)

    def test_bad_medoids_rejected(self):
        with pytest.raises(DataError):
            predict_points(np.zeros((2, 2)),
                           np.array([[np.nan, 0.0]]), [(0,)])

    def test_wrong_sphere_shape_rejected(self, fitted):
        ds, result = fitted
        with pytest.raises(ParameterError, match="spheres"):
            result.predict_report(ds.points[:3], spheres=np.zeros(7))


class TestDeadline:
    def test_expired_deadline_discards_batch(self, fitted):
        ds, result = fitted
        deadline = Deadline.start(0.0)
        with pytest.raises(BudgetExceededError):
            result.predict(ds.points, deadline=deadline, chunk_size=10)

    def test_unlimited_deadline_is_fine(self, fitted):
        ds, result = fitted
        labels = result.predict(ds.points, deadline=Deadline.start(None))
        assert np.array_equal(labels, result.labels)


class TestReportShape:
    def test_to_dict_is_json_wire_shape(self, fitted):
        ds, result = fitted
        payload = result.predict_report(ds.points[:4]).to_dict()
        assert set(payload) == {"labels", "n_points", "n_outliers",
                                "warnings"}
        assert payload["n_points"] == 4
        assert all(isinstance(v, int) for v in payload["labels"])

    def test_to_dict_json_bytes_match_per_element_ints(self):
        labels = np.array([0, -1, 2, 2**31 + 5, 2**40, -1], dtype=np.int64)
        report = PredictReport(labels=labels, n_points=6, n_outliers=2,
                               spheres=np.zeros(3), warnings=["w"])
        per_element = {"labels": [int(v) for v in labels], "n_points": 6,
                       "n_outliers": 2, "warnings": ["w"]}
        assert json.dumps(report.to_dict()) == json.dumps(per_element)

    def test_return_distances(self, fitted):
        ds, result = fitted
        report = result.predict_report(ds.points[:8], return_distances=True)
        assert report.distances is not None
        assert report.distances.shape == (8, result.k)
        assert isinstance(report, PredictReport)

    def test_labels_are_int64(self, fitted):
        ds, result = fitted
        assert result.predict(ds.points[:4]).dtype == np.int64

    def test_trace_records_validate(self, fitted, tmp_path):
        ds, result = fitted
        tracer = Tracer()
        with use_tracer(tracer):
            result.predict(ds.points[:16])
        path = tracer.write_jsonl(tmp_path / "predict.jsonl")
        with open(path, encoding="utf-8") as fh:
            validate_trace_lines(fh)
