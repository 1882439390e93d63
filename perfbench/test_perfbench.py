"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They use small versions of the fit workloads (same options, fewer
points), so they take seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fit_worker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _data(n: int, seed: int = 7) -> np.ndarray:
    return run._make_data(n, seed).points


def _traced_fit(X, kwargs, work_dir):
    tracer = spans.Tracer(worker_dir=str(work_dir))
    tracer.install()
    patches = tracer.patched_attributes()
    try:
        root = tracer.begin("core.proclus")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_worker._fit(X, kwargs, 7)
        tracer.end(root)
    finally:
        tracer.uninstall()
    merged = spans.merge(tracer.take(), spans.load_worker_spans(str(work_dir)),
                         parents=("robustness.supervisor",))
    return result, merged, patches, tracer


def _untraced_fit(X, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_worker._fit(X, kwargs, 7)


def _check_traced_run(X, kwargs, tmp_path):
    plain = _untraced_fit(X, kwargs)
    traced, merged, patches, tracer = _traced_fit(X, kwargs, tmp_path)
    # every wrapped attribute holds its original object again
    assert patches and tracer.restored()
    for owner, attr, original, wrapper in patches:
        current = spans._current(owner, attr)
        assert current is original, (owner, attr)
        assert current is not wrapper
    # tracing does not perturb the outputs
    assert fit_worker.fingerprint(traced) == fit_worker.fingerprint(plain)
    root = next(s for s in merged if s[0] == "core.proclus")
    cover = spans.coverage(merged, root[1], root[2],
                           waits=("core.proclus", "robustness.supervisor"))
    return merged, cover


def test_fig7_shape_traced_fit_is_identical_and_covered(tmp_path):
    merged, cover = _check_traced_run(_data(20_000),
                                      fit_worker.FIT_KWARGS["fit_fig7_200k"],
                                      tmp_path)
    names = {s[0] for s in merged}
    for layer in ("validation.check_array", "core.objective",
                  "core.dimensions.find", "core.dimensions.localities",
                  "perf.kernels.segmental_columns",
                  "distance.matrix.cross_distances", "core.refinement"):
        assert layer in names
    assert cover >= 0.95


def test_sampled_shape_collects_worker_spans(tmp_path):
    kwargs = dict(fit_worker.FIT_KWARGS["fit_sampled_1m"])
    merged, cover = _check_traced_run(_data(200_000), kwargs, tmp_path)
    supervisor = [i for i, s in enumerate(merged)
                  if s[0] == "robustness.supervisor"]
    assert len(supervisor) == 1
    workers = [s for s in merged if s[0] == spans.WORKER_SPAN]
    assert len(workers) == kwargs["restarts"]
    assert all(s[3] == supervisor[0] for s in workers)
    # the layers inside the workers are visible, not one opaque span
    assert any(s[0] == "core.objective" for s in merged)
    assert cover >= 0.95
    assert not os.listdir(tmp_path)  # worker span files were consumed


def test_modules_resolve_through_sys_modules():
    import repro.core

    # the package attribute is the re-exported function, not the module
    assert callable(repro.core.proclus)
    assert not hasattr(repro.core.proclus, "__path__")
    tracer = spans.Tracer()
    tracer.install()
    try:
        module = sys.modules["repro.core.proclus"]
        assert module.check_array.__wrapped__ is \
            sys.modules["repro.validation"].check_array.__wrapped__
        assert hasattr(sys.modules["repro.core.iterative"].assign_points,
                       "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(sys.modules["repro.core.proclus"].check_array,
                       "__wrapped__")


def test_serve_layers_are_restored():
    tracer = spans.Tracer()
    tracer.install()
    server = sys.modules["repro.serve.server"]
    client = sys.modules["repro.serve.client"]
    admission = sys.modules["repro.serve.admission"].AdmissionController
    assert server.json is not json and client.json is not json
    assert hasattr(server.predict_points, "__wrapped__")
    tracer.uninstall()
    assert server.json is json and client.json is json
    assert not hasattr(server.predict_points, "__wrapped__")
    assert not hasattr(admission.acquire, "__wrapped__")


def test_json_proxy_times_and_counts_bytes():
    tracer = spans.Tracer()
    proxy = spans._JsonProxy(tracer, json, "serve.client")
    text = proxy.dumps({"points": [[1.0, 2.0]]})
    assert proxy.loads(text) == {"points": [[1.0, 2.0]]}
    assert proxy.JSONDecodeError is json.JSONDecodeError
    recorded = tracer.take()
    assert [s[0] for s in recorded] == ["serve.client.encode",
                                        "serve.client.decode"]
    assert recorded[0][4] == {"bytes": float(len(text))}


def test_self_time_excludes_children_and_overlap():
    recorded = [
        ["root", 0.0, 10.0, None, {}],
        ["a", 1.0, 4.0, 0, {}],
        ["b", 3.0, 6.0, 0, {}],  # overlaps a (parallel workers)
        ["c", 1.5, 2.0, 1, {}],
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.5, 3.0, 0.5])
    summary = spans.summarize(recorded, keep=lambda s: s[0] != "root")
    assert set(summary) == {"a", "b", "c"}
    assert summary["a"]["self_s"] == pytest.approx(2.5)
    assert spans.coverage(recorded, 0.0, 10.0, waits=("root",)) == \
        pytest.approx(0.5)


def test_merge_parents_foreign_spans_to_the_enclosing_host():
    base = [["trip", 0.0, 1.0, None, {}], ["trip", 2.0, 3.0, None, {}]]
    other = [["decode", 2.1, 2.2, None, {}], ["inner", 2.12, 2.15, 0, {}]]
    merged = spans.merge(base, [other], parents=("trip",))
    assert merged[2][3] == 1
    assert merged[3][3] == 2


def test_fit_checks_floor_the_mean_ari_and_check_every_fit():
    fits = [{"case": j, "fingerprint": f"f{j}"} for j in range(3)]
    fits.append({"case": 0, "fingerprint": "other"})
    reference = {j: f"f{j}" for j in range(3)}
    consistent = {0: True, 1: False, 2: True}
    # one low case does not fail the run when the mean clears the floor
    assert run.fit_checks(fits, [], reference, consistent,
                          [0.9, 0.9, 0.2], 0.4) == [True, False, True, False]
    assert run.fit_checks(fits, [], reference, dict.fromkeys(range(3), True),
                          [0.3, 0.3, 0.2], 0.4) == [False] * 4
    traced = [{"case": 2, "fingerprint": "f2", "restored": False}]
    assert run.fit_checks(fits[:1], traced, reference, consistent,
                          [1.0], 0.4) == [True, False]


def test_saved_model_reproduces_the_fit_labels(tmp_path):
    X = _data(3000)
    result = _untraced_fit(X, {})
    np.save(tmp_path / "data.npy", X)
    fit_worker.save_model(result, str(tmp_path / "model.npz"))
    labels, consistent = run._check_model(str(tmp_path / "model.npz"),
                                          str(tmp_path / "data.npy"))
    assert consistent
    assert np.array_equal(labels, result.labels)


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_names()


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_fig7_200k",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
