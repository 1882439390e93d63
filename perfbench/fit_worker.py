"""Child process of the fit workloads: runs ``proclus()`` fits and reports.

The benchmark generates a run's inputs (the *cases*: a data array and
a ``proclus`` seed each), saves them to the run's work directory and
starts this script in a fresh interpreter, so the peak memory it
reports belongs to the fits alone.  Fits cycle through the cases until
``--seconds`` would be exceeded; see :func:`run` for the order and the
repeats.  The report is written as JSON to ``--out``, the labels of
each case's first fit, with its medoids and dimension sets, to
``model-<case>.npz`` beside it (see :func:`save_model`).

    python3 perfbench/fit_worker.py --workload fit_fig7_200k \\
        --cases RUN/cases.json --seconds 30 --trace 0 --out RUN/fits.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import warnings
from typing import Any, Dict, List

import numpy as np

import spans

#: proclus() keyword arguments per fit workload (k = l = 5 for both).
FIT_KWARGS: Dict[str, Dict[str, Any]] = {
    "fit_fig7_200k": {},
    "fit_sampled_1m": {"dtype": "float32", "fit_sample_size": 20_000,
                       "restarts": 4, "n_jobs": 2},
}

WARMUP_ROWS = 20_000
WARMUP_KWARGS = {"fit_sampled_1m": {"fit_sample_size": 5_000}}

#: Per-layer span names reported as ``<name>.s`` (self seconds per fit).
SELF_TIME_LAYERS = (
    "validation.check_array",
    "core.proclus",
    "core.initialization",
    "core.iterative",
    "core.dimensions.localities",
    "core.dimensions.find",
    "core.dimensions.from_clusters",
    "core.assignment",
    "core.assignment.matrix",
    "core.objective",
    "core.refinement",
    "core.predict",
    "perf.kernels.segmental_columns",
    "distance.matrix.cross_distances",
    "perf.parallel.publish",
    "perf.parallel.restart",
    "robustness.supervisor.shutdown",
)

#: (span name, counter, metric suffix) reported per fit.
COUNT_LAYERS = (
    ("validation.check_array", "calls", "calls"),
    ("core.objective", "calls", "calls"),
    ("perf.kernels.segmental_columns", "rows", "rows"),
    ("perf.kernels.segmental_columns", "bytes_computed", "bytes_computed"),
    ("distance.matrix.cross_distances", "rows", "rows"),
    ("core.predict", "points", "points"),
)

CACHE_STORES = ("distance", "segmental", "locality", "stats")


def fingerprint(result: Any) -> str:
    """sha256 over labels, medoid indices and ``repr(objective)``."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.labels, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(result.medoid_indices,
                                  dtype=np.int64).tobytes())
    h.update(repr(float(result.objective)).encode())
    return h.hexdigest()


def save_model(result: Any, path: str) -> None:
    """Write a fit's labels, medoids and dimension sets (as a mask)."""
    mask = np.zeros(result.medoids.shape, dtype=bool)
    for cluster, dims in result.dimensions.items():
        mask[cluster, list(dims)] = True
    np.savez(path, labels=np.asarray(result.labels, dtype=np.int64),
             medoids=result.medoids, dimensions=mask)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _cpu_s() -> float:
    """User + system seconds of this process and its reaped children.

    Pool workers are reaped when their pool shuts down inside the fit,
    so a difference of two readings covers the whole fit.
    """
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _fit(X: np.ndarray, kwargs: Dict[str, Any], seed: int) -> Any:
    from repro.core.proclus import proclus

    return proclus(X, 5, 5, seed=seed, **kwargs)


def layer_metrics(summary: Dict[str, Dict[str, float]], n_ops: int,
                  results: List[Any]) -> Dict[str, float]:
    """Per-fit layer metrics from the traced fits' spans and results."""
    def row(name: str) -> Dict[str, float]:
        return summary.get(name, {})

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    out: Dict[str, float] = {}
    for name in SELF_TIME_LAYERS:
        out[name + ".s"] = row(name).get("self_s", 0.0) / n_ops
    for name, key, suffix in COUNT_LAYERS:
        out[f"{name}.{suffix}"] = row(name).get(key, 0.0) / n_ops
    out["core.iterative.iterations"] = mean(
        [float(r.n_iterations) for r in results])
    for store in CACHE_STORES:
        out["perf.cache.hit_rate." + store] = mean(
            [float(((r.cache_stats or {}).get(store) or {}).get(
                "hit_rate", 0.0)) for r in results])
    out["robustness.supervisor.wall_s"] = (
        row("robustness.supervisor").get("total_s", 0.0) / n_ops)
    out["robustness.supervisor.worker_busy_s"] = (
        row(spans.WORKER_SPAN).get("total_s", 0.0) / n_ops)
    out["robustness.supervisor.retries"] = mean(
        [float((r.fault_tolerance or {}).get("retries", 0)) for r in results])
    return out


class Cases:
    """The run's inputs: ``(data file, proclus seed)`` pairs, loaded lazily."""

    def __init__(self, cases: List[Dict[str, Any]]) -> None:
        self.cases = cases
        self._path = None
        self._X = None

    def __len__(self) -> int:
        return len(self.cases)

    def get(self, j: int):
        case = self.cases[j]
        if case["data"] != self._path:
            self._X = None  # release the previous array first
            self._X = np.load(case["data"])
            self._path = case["data"]
        return self._X, int(case["seed"])


def _traced(X: np.ndarray, kwargs: Dict[str, Any], seed: int,
            work_dir: str):
    """One traced fit: (result, merged spans, coverage, wall, restored)."""
    tracer = spans.Tracer(worker_dir=work_dir)
    tracer.install()
    try:
        root = tracer.begin("core.proclus")
        t0 = time.perf_counter()
        result = _fit(X, kwargs, seed)
        t1 = time.perf_counter()
        tracer.end(root)
    finally:
        tracer.uninstall()
    merged = spans.merge(tracer.take(), spans.load_worker_spans(work_dir),
                         parents=("robustness.supervisor",))
    cover = spans.coverage(merged, t0, t1,
                           waits=("core.proclus", "robustness.supervisor"))
    return result, merged, cover, t1 - t0, tracer.restored()


def run(workload: str, cases: Cases, seconds: float, trace: bool,
        work_dir: str) -> Dict[str, Any]:
    """Fit for about ``seconds``, cycling through the cases.

    Untraced: cases 0, 1, 2, ... while time allows, then the quickest
    case again unless some case already ran twice, so every run
    compares a repeat.
    Traced: each case runs untraced, then traced, and the two compare.
    """
    kwargs = FIT_KWARGS[workload]
    X, seed = cases.get(0)
    # an untimed small fit with the same options first, so lazily
    # imported modules and pool machinery are ready before timing
    _fit(X[:WARMUP_ROWS], dict(kwargs, **WARMUP_KWARGS.get(workload, {})),
         seed)
    fits: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    traced_results: List[Any] = []
    all_spans: List[list] = []
    coverages: List[float] = []

    def fit_case(j: int) -> None:
        X, seed = cases.get(j)
        c0 = _cpu_s()
        t0 = time.perf_counter()
        result = _fit(X, kwargs, seed)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - c0
        if not any(f["case"] == j for f in fits):
            save_model(result, os.path.join(work_dir, f"model-{j}.npz"))
        fits.append({"case": j, "wall_s": wall, "cpu_s": cpu,
                     "fingerprint": fingerprint(result),
                     "n_iterations": int(result.n_iterations)})

    began = time.perf_counter()
    j = 0
    while True:
        fit_case(j % len(cases))
        if trace:
            X, seed = cases.get(j % len(cases))
            result, merged, cover, wall, restored = _traced(
                X, kwargs, seed, work_dir)
            all_spans = spans.merge(all_spans, [merged], parents=())
            coverages.append(cover)
            traced_results.append(result)
            traced.append({"case": j % len(cases), "wall_s": wall,
                           "fingerprint": fingerprint(result),
                           "restored": restored})
        j += 1
        elapsed = time.perf_counter() - began
        per_op = statistics.median(f["wall_s"] for f in fits)
        if trace:
            per_op += statistics.median(f["wall_s"] for f in traced)
        repeated = trace or j > len(cases)
        shortest = min(fits, key=lambda f: f["wall_s"])
        reserve = 0.0 if repeated else shortest["wall_s"]
        if elapsed + per_op + reserve > seconds:
            break
    if not repeated:
        fit_case(shortest["case"])

    report: Dict[str, Any] = {"fits": fits, "traced": traced,
                              "peak_rss_mb": _peak_rss_mb()}
    if trace:
        metrics = layer_metrics(spans.summarize(all_spans), len(traced),
                                traced_results)
        metrics["trace.coverage"] = statistics.median(coverages)
        metrics["trace.overhead"] = (
            statistics.median(f["wall_s"] for f in traced)
            - statistics.median(f["wall_s"] for f in fits))
        report["layers"] = metrics
    return report


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FIT_KWARGS))
    parser.add_argument("--cases", required=True,
                        help="JSON list of {data: .npy path, seed: int}")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    with open(args.cases) as fh:
        cases = Cases(json.load(fh))
    report = run(args.workload, cases, args.seconds, bool(args.trace),
                 os.path.dirname(os.path.abspath(args.out)))
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
