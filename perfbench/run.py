"""End-to-end benchmark of PROCLUS fits and served predicts.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload fit_fig7_200k --seed 7 \\
        --seconds 30 --trace 0

Workloads (data: ``make_scalability_config(N, 20, 5, seed)`` drawn by
``SyntheticDataGenerator``; the program only ever sees the arrays):

``fit_fig7_200k``
    ``proclus(X, 5, 5, seed=seed)`` on N=200 000, float64, cache on.
``fit_sampled_1m``
    ``proclus(X, 5, 5, seed=seed, dtype="float32",
    fit_sample_size=20_000, restarts=4, n_jobs=2)`` on N=1 000 000.
``serve_predict``
    A model fitted at set-up on 20 000 points is served by
    ``python -m repro serve``; one closed-loop ``PredictClient`` sends
    rounds of an ``online`` phase (200 requests of 1, 10 or 100 points)
    and a ``bulk`` phase (2 requests of 10 000 points), drawn from the
    20 000 held-out points of the same draw.

Every run checks the program's outputs (see ``perfbench/expected.json``)
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.  The lines before
it give every figure by name, unit and sample count.  ``LAYERS.md``
explains each metric (the fit figures are CPU seconds, because the
wall of a shared VM includes stolen time) and which layer should move
which figure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-run")

FIT_POINTS = {"fit_fig7_200k": 200_000, "fit_sampled_1m": 1_000_000}
#: Cases per fit run: (count, whether each case draws its own data).
#: One seed's fit time is mostly the seed's (the hill climb's length and
#: swaps vary several-fold), so a run spreads its fits over several.
FIT_CASES = {"fit_fig7_200k": (6, True), "fit_sampled_1m": (6, False)}
CASE_STRIDE = 100_003
WORKLOADS = ("fit_fig7_200k", "fit_sampled_1m", "serve_predict")

#: (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("op_cpu_ms", "ms"),
    ("points_per_cpu_s", "points/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

SERVE_TRAIN = 20_000
SERVE_HELD_OUT = 20_000
ONLINE_PER_ROUND = 200
ONLINE_SIZES = (1, 10, 100)
BULK_PER_ROUND = 2
BULK_SIZE = 10_000
MIN_ONLINE = 1200
MIN_BULK = 10
COLD_IMPORTS = 3
SERVER_SPAWNS = 3
PHASES = ("online", "bulk")
FAILURE_COUNTERS = ("shed", "breaker_rejections", "deadline_exceeded",
                    "invalid_requests", "internal_errors")
SERVE_STAGES = (
    # (metric stem, span name, counter or None for self seconds)
    ("serve.client.encode.s", "serve.client.encode", None),
    ("serve.client.request_bytes", "serve.client.encode", "bytes"),
    ("serve.server.decode.s", "serve.server.decode", None),
    ("serve.server.encode.s", "serve.server.encode", None),
    ("serve.server.response_bytes", "serve.server.encode", "bytes"),
    ("serve.client.decode.s", "serve.client.decode", None),
    ("core.predict.s", "core.predict", None),
    ("core.predict.points", "core.predict", "points"),
    ("serve.admission.wait_s", "serve.admission", None),
)
#: Spans inside one round trip; what they leave over is transport.
ROUND_TRIP_STAGES = ("serve.client.encode", "serve.client.decode",
                     "serve.server.decode", "serve.server.encode",
                     "core.predict", "serve.admission")


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    import fit_worker

    out = []
    for name in fit_worker.SELF_TIME_LAYERS:
        out.append((name + ".s", "s", "lower"))
    for name, _, suffix in fit_worker.COUNT_LAYERS:
        unit = "bytes" if suffix == "bytes_computed" else "count"
        out.append((f"{name}.{suffix}", unit, "lower"))
    out.append(("core.iterative.iterations", "count", "lower"))
    for store in fit_worker.CACHE_STORES:
        out.append(("perf.cache.hit_rate." + store, "ratio", "higher"))
    out += [("robustness.supervisor.wall_s", "s", "lower"),
            ("robustness.supervisor.worker_busy_s", "s", "lower"),
            ("robustness.supervisor.retries", "count", "lower")]
    for phase in PHASES:
        for stem, _, counter in SERVE_STAGES:
            unit = ("s" if counter is None else
                    "bytes" if counter == "bytes" else "count")
            out.append((f"{stem}.{phase}", unit, "lower"))
        out.append((f"serve.transport.s.{phase}", "s", "lower"))
        for kind in FAILURE_COUNTERS:
            out.append((f"serve.failures.{kind}.{phase}", "count", "lower"))
    out += [("trace.coverage", "ratio", "higher"),
            ("trace.overhead", "s", "lower")]
    return out


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _expected() -> Dict[str, Any]:
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        return json.load(fh)


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _reap(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, Any]:
    """Wait for ``proc``; return (exit code, its resource usage).

    ``os.wait4`` gives the usage of this one child, so earlier children
    of the benchmark do not leak into its peak RSS or CPU time.  A child
    that outlives ``timeout_s`` is killed.
    """
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _cpu_s(usage: Any) -> float:
    return usage.ru_utime + usage.ru_stime


def cold_imports() -> Tuple[List[float], List[float]]:
    """CPU and wall seconds of ``import repro`` in fresh interpreters.

    One unmeasured import first, so every measured one finds the same
    byte-code cache state.
    """
    cpu, wall = [], []
    for i in range(COLD_IMPORTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import repro"],
                                env=_env(), cwd=ROOT)
        code, usage = _reap(proc, timeout_s=120)
        if code != 0:
            raise RuntimeError(f"import repro exited with code {code}")
        if i:
            wall.append(time.perf_counter() - t0)
            cpu.append(_cpu_s(usage))
    return cpu, wall


def _setup_line(what: str, cpu: List[float], wall: List[float]) -> str:
    return (f"setup ({what}): cpu " + ", ".join(f"{c:.4f}" for c in cpu)
            + " s; wall " + ", ".join(f"{w:.4f}" for w in wall) + " s")


def _make_data(n: int, seed: int):
    from repro.data.synthetic import SyntheticDataGenerator
    from repro.experiments.configs import make_scalability_config

    return SyntheticDataGenerator(
        make_scalability_config(n, 20, 5, seed=seed)).generate()


# ----------------------------------------------------------------------
# Fit workloads
# ----------------------------------------------------------------------

def case_seeds(seed: int, n: int) -> List[int]:
    """Seeds of a run's cases; case 0 uses the run's seed itself."""
    return [seed + CASE_STRIDE * j for j in range(n)]


def _check_model(path: str, data: str) -> Tuple[Any, bool]:
    """A fit's labels, and whether ``predict_points`` reproduces them.

    Assigning the training points to the fitted medoids and dimension
    sets must give the fit's own labels on every seed, so this checks
    the assignment and refinement output of fits no fingerprint pins.
    """
    import numpy as np

    from repro.core.predict import predict_points

    with np.load(path) as model:
        labels = model["labels"]
        dims = [tuple(int(i) for i in np.flatnonzero(row))
                for row in model["dimensions"]]
        predicted = predict_points(np.load(data), model["medoids"],
                                   dims).labels
    return labels, bool(np.array_equal(predicted, labels))


def fit_checks(fits: List[Dict[str, Any]], traced: List[Dict[str, Any]],
               reference: Dict[int, str], consistent: Dict[int, bool],
               aris: List[float], floor: float) -> List[bool]:
    """One pass/fail per fit of a run, traced fits included.

    A fit passes when its fingerprint equals its case's reference and
    its labels are those ``predict_points`` gives.  The ARI floor is on
    the mean over the run's cases, and failing it fails every fit: one
    fit is a randomised local search, and on a draw whose largest
    cluster holds most of the points its best objective may split that
    cluster (ARI 0.08-0.2 seen), so a floor on single fits would fail
    correct code on some seeds.
    """
    quality = statistics.fmean(aris) >= floor
    checks = [f["fingerprint"] == reference[f["case"]]
              and consistent[f["case"]] and quality for f in fits]
    checks += [f["fingerprint"] == reference[f["case"]] and f["restored"]
               for f in traced]
    return checks


def run_fit(workload: str, seed: int, seconds: float, trace: bool,
            work: str) -> Dict[str, Any]:
    import numpy as np

    from repro.metrics.external import adjusted_rand_index

    n = FIT_POINTS[workload]
    n_cases, own_data = FIT_CASES[workload]
    cases, truths = [], {}
    for case_seed in case_seeds(seed, n_cases):
        data_seed = case_seed if own_data else seed
        path = os.path.join(work, f"data-{data_seed}.npy")
        if data_seed not in truths:
            ds = _make_data(n, data_seed)
            np.save(path, ds.points)
            truths[data_seed] = ds.labels
            del ds
        cases.append({"data": path, "seed": case_seed,
                      "data_seed": data_seed})
    lines: List[str] = []
    cases_path = os.path.join(work, "cases.json")
    with open(cases_path, "w") as fh:
        json.dump(cases, fh)
    setup_cpu, setup_wall = ([], []) if trace else cold_imports()

    out_path = os.path.join(work, "fits.json")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "fit_worker.py"),
         "--workload", workload, "--cases", cases_path,
         "--seconds", str(seconds), "--trace", str(int(trace)),
         "--out", out_path], env=_env(), cwd=ROOT)
    code, _ = _reap(proc, timeout_s=seconds + 120)
    if code != 0:
        raise RuntimeError(f"fit worker exited with code {code}")
    if setup_wall:
        lines.append(_setup_line("cold import", setup_cpu, setup_wall))
    with open(out_path) as fh:
        report = json.load(fh)

    expected = _expected()
    floor = expected["ari_floor"][workload]
    pinned = expected["fingerprints"].get(workload, {})
    fits, traced = report["fits"], report["traced"]
    reference, consistent, aris = {}, {}, []
    for j in sorted({f["case"] for f in fits}):
        case = cases[j]
        first = next(f for f in fits if f["case"] == j)
        labels, consistent[j] = _check_model(
            os.path.join(work, f"model-{j}.npz"), case["data"])
        aris.append(adjusted_rand_index(labels, truths[case["data_seed"]]))
        key = str(case["seed"])
        reference[j] = pinned.get(key, first["fingerprint"])
        runs = [f for f in fits if f["case"] == j]
        lines.append(
            f"case {j}: data seed {case['data_seed']}, proclus seed "
            f"{case['seed']}: {len(runs)} fits, iterations "
            f"{first['n_iterations']}, ari {aris[-1]:.4f}, labels "
            f"{'==' if consistent[j] else '!='} predict_points, "
            f"fingerprint {first['fingerprint'][:16]} "
            f"({'pinned' if key in pinned else 'repeat agreement'})")
    lines.append(f"mean ari {statistics.fmean(aris):.4f} over {len(aris)} "
                 f"cases (floor {floor})")
    checks = fit_checks(fits, traced, reference, consistent, aris, floor)

    walls = [f["wall_s"] for f in fits]
    lines.append(f"fit_s {statistics.median(walls):.4f} s "
                 f"(median wall of {len(fits)} fits)")
    # The fit figures are CPU seconds (user + system, pool workers
    # included): on a shared VM the wall includes time the hypervisor
    # steals, which swings the wall by a quarter from one minute to the
    # next.  On fit_fig7_200k the operation is one iteration's share of
    # a fit, because a fit's iteration count varies several-fold with
    # the seed.
    if workload == "fit_fig7_200k":
        per_op = [f["cpu_s"] / f["n_iterations"] for f in fits]
    else:
        per_op = [f["cpu_s"] for f in fits]
    op_s = statistics.median(per_op)
    lines.append(f"fit_cpu_s {statistics.median(f['cpu_s'] for f in fits):.4f}"
                 f" s (median of {len(fits)} fits)")
    metrics = {
        "op_cpu_ms": op_s * 1000.0,
        "points_per_cpu_s": n / op_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setup_cpu) if setup_cpu else None,
    }
    return {"checks": checks, "metrics": metrics, "lines": lines,
            "layers": report.get("layers")}


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, model: str, spans_path: Optional[str] = None) -> None:
        from repro.serve import PredictClient

        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", model]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_entry.py"),
                   spans_path, model]
        cmd += ["--port", "0"]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT,
                                     stdout=subprocess.PIPE, text=True)
        try:
            banner = self.proc.stdout.readline().strip()
            if not banner.startswith("listening on http://"):
                raise RuntimeError(f"server did not start: {banner!r}")
            self.port = int(banner.rsplit(":", 1)[1].rstrip("/"))
            self.client = PredictClient(port=self.port, seed=0)
            give_up = time.monotonic() + 60.0
            while not self.client.ready():
                if time.monotonic() > give_up:
                    raise RuntimeError("server never became ready")
                time.sleep(0.002)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - t0

    def stop(self) -> Any:
        """SIGTERM (graceful drain); return the server's resource usage."""
        self.proc.send_signal(signal.SIGTERM)
        code, usage = _reap(self.proc, timeout_s=30.0)
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        return usage


def _serve_data(seed: int):
    import numpy as np

    ds = _make_data(SERVE_TRAIN + SERVE_HELD_OUT, seed)
    order = np.random.default_rng(seed + 1).permutation(ds.points.shape[0])
    train, held = order[:SERVE_TRAIN], order[SERVE_TRAIN:]
    return (ds.points[train], ds.points[held], ds.labels[held])


def _rounds(servers: Dict[str, Server], held, expected_labels, seed: int,
            seconds: float, record: Dict[str, Any],
            stats_deltas: Optional[Dict[str, Dict[str, int]]] = None) -> None:
    """Send online/bulk rounds until ``seconds`` (and the minimums) pass.

    ``servers`` maps each phase to the server it talks to.
    """
    import numpy as np

    rng = np.random.default_rng(seed + 2)
    began = time.perf_counter()
    n_rounds = 0
    before = {id(server): server.client.stats()["counters"]
              for server in servers.values()} if stats_deltas else {}
    while True:
        for phase in PHASES:
            client = servers[phase].client
            if phase == "online":
                sizes = rng.choice(ONLINE_SIZES, size=ONLINE_PER_ROUND)
                offsets = [int(rng.integers(0, held.shape[0] - s + 1))
                           for s in sizes]
            else:
                sizes = [BULK_SIZE] * BULK_PER_ROUND
                offsets = [(j * BULK_SIZE) % held.shape[0]
                           for j in range(BULK_PER_ROUND)]
            t_phase = time.perf_counter()
            for size, off in zip(sizes, offsets):
                batch = held[off:off + size]
                record["sent"] += 1
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    labels = client.predict(batch)["labels"]
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    record["failed"] += 1
                    record["errors"].append(f"{phase}: {exc}")
                    continue
                t1 = time.perf_counter()
                record[phase + "_client_cpu"] += time.process_time() - c0
                record[phase].append(t1 - t0)
                record["intervals"].append((phase, t0, t1))
                if not np.array_equal(np.asarray(labels),
                                      expected_labels[off:off + size]):
                    record["failed"] += 1
                    record["errors"].append(f"{phase}: labels differ")
            record[phase + "_wall"] += time.perf_counter() - t_phase
            record["phase_spans"].append((phase, t_phase, time.perf_counter()))
            if stats_deltas:
                key = id(servers[phase])
                after = client.stats()["counters"]
                for kind in FAILURE_COUNTERS:
                    stats_deltas[phase][kind] += (after.get(kind, 0)
                                                  - before[key].get(kind, 0))
                before[key] = after
        n_rounds += 1
        elapsed = time.perf_counter() - began
        if (len(record["online"]) >= MIN_ONLINE
                and len(record["bulk"]) >= MIN_BULK
                and elapsed * (n_rounds + 1) / n_rounds > seconds):
            break


def _request_checks(record: Dict[str, Any]) -> List[bool]:
    """One pass/fail per request sent."""
    return [True] * (record["sent"] - record["failed"]) + \
        [False] * record["failed"]


def _new_record() -> Dict[str, Any]:
    return {"sent": 0, "online": [], "bulk": [], "online_client_cpu": 0.0,
            "bulk_client_cpu": 0.0, "online_wall": 0.0, "bulk_wall": 0.0, "intervals": [],
            "phase_spans": [], "failed": 0, "errors": []}


def run_serve(seed: int, seconds: float, trace: bool,
              work: str) -> Dict[str, Any]:
    import warnings

    import numpy as np

    from repro.core.predict import predict_points
    from repro.core.proclus import proclus
    from repro.core.serialization import load_result, save_result
    from repro.metrics.external import adjusted_rand_index

    train, held, truth = _serve_data(seed)
    model = os.path.join(work, "model.npz")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        save_result(proclus(train, 5, 5, seed=seed), model)
    loaded = load_result(model)
    expected_labels = predict_points(held, loaded.medoids,
                                     loaded.dimensions).labels
    consistent = np.array_equal(
        predict_points(train, loaded.medoids, loaded.dimensions).labels,
        loaded.labels)
    ari = adjusted_rand_index(expected_labels, truth)
    floor = _expected()["ari_floor"]["serve_predict"]
    model_ok = consistent and ari >= floor

    if trace:
        return _run_serve_traced(model, held, expected_labels, seed, seconds,
                                 work, model_ok)

    setup_cpu, setup_wall = [], []
    for _ in range(SERVER_SPAWNS):
        server = Server(model)
        setup_wall.append(server.setup_s)
        setup_cpu.append(_cpu_s(server.stop()))
    # one server per phase: a server's CPU time is only known when it
    # exits, so each phase's server CPU comes from its own process
    servers: Dict[str, Server] = {}
    usage: Dict[str, Any] = {}
    record = _new_record()
    try:
        for phase in PHASES:
            servers[phase] = Server(model)
        _rounds(servers, held, expected_labels, seed, seconds, record)
    finally:
        for phase, server in servers.items():
            usage[phase] = server.stop()
    # CPU per request: the client's, plus the server's beyond what a
    # server costs to start, get ready and stop (the set-up median)
    idle = statistics.median(setup_cpu)
    cpu = {phase: (_cpu_s(usage[phase]) - idle
                   + record[phase + "_client_cpu"]) / len(record[phase])
           for phase in PHASES}
    rss = max(u.ru_maxrss for u in usage.values()) / 1024.0

    online, bulk = record["online"], record["bulk"]
    online_p50 = statistics.median(online)
    online_p99 = _percentile(online, 0.99)
    bulk_p50 = statistics.median(bulk)
    bulk_pps = BULK_SIZE / bulk_p50
    lines = [
        f"model: {SERVE_TRAIN} points, training labels "
        f"{'==' if consistent else '!='} predict_points, held-out ari "
        f"{ari:.4f} (floor {floor})",
        f"online_p50_ms {online_p50 * 1e3:.4f} ms (n={len(online)})",
        f"online_p99_ms {online_p99 * 1e3:.4f} ms (n={len(online)}, "
        f"{len(online) - 1 - int(0.99 * len(online))} beyond)",
        f"online_rps {len(online) / record['online_wall']:.2f} 1/s "
        f"(n={len(online)})",
        f"bulk_p50_ms {bulk_p50 * 1e3:.4f} ms (n={len(bulk)})",
        f"bulk_points_per_s {bulk_pps:.1f} points/s (n={len(bulk)}; "
        f"{BULK_SIZE} ÷ bulk_p50)",
        f"online_cpu_ms {cpu['online'] * 1e3:.4f} ms per request, client + "
        f"server (n={len(online)})",
        f"bulk_cpu_ms {cpu['bulk'] * 1e3:.4f} ms per request, client + "
        f"server (n={len(bulk)})",
        _setup_line("server spawn to ready", setup_cpu, setup_wall),
    ] + record["errors"][:5]
    metrics = {
        "op_cpu_ms": cpu["online"] * 1000.0,
        "points_per_cpu_s": BULK_SIZE / cpu["bulk"],
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_cpu),
    }
    checks = _request_checks(record)
    checks.append(model_ok)  # the served model itself
    return {"checks": checks, "metrics": metrics, "lines": lines,
            "layers": None}


def _run_serve_traced(model: str, held, expected_labels, seed: int,
                      seconds: float, work: str,
                      model_ok: bool) -> Dict[str, Any]:
    import fit_worker
    import spans

    half = seconds / 2.0
    plain = Server(model)
    ref = _new_record()
    try:
        _rounds(dict.fromkeys(PHASES, plain), held, expected_labels, seed,
                half, ref)
    finally:
        plain.stop()

    spans_path = os.path.join(work, "server-spans.json")
    server = Server(model, spans_path=spans_path)
    tracer = spans.Tracer()
    record = _new_record()
    deltas = {p: {k: 0 for k in FAILURE_COUNTERS} for p in PHASES}
    tracer.install()
    try:
        _rounds(dict.fromkeys(PHASES, server), held, expected_labels, seed,
                half, record, deltas)
    finally:
        tracer.uninstall()
        server.stop()
    with open(spans_path) as fh:
        server_side = json.load(fh)

    client_spans = tracer.take()
    # round trips as parents of the client-side json spans
    trips = [[f"serve.roundtrip.{phase}", t0, t1, None, {}]
             for phase, t0, t1 in record["intervals"]]
    all_spans = spans.merge(
        trips, [client_spans, server_side["spans"]],
        parents=tuple(f"serve.roundtrip.{phase}" for phase in PHASES))

    layers: Dict[str, float] = {}
    n_total = len(record["online"]) + len(record["bulk"])
    summary = spans.summarize(all_spans)
    fit_layers = fit_worker.layer_metrics(summary, n_total, [])
    layers.update(fit_layers)
    for phase in PHASES:
        windows = [(t0, t1) for p, t0, t1 in record["phase_spans"]
                   if p == phase]
        rows = spans.summarize(
            all_spans,
            keep=lambda s: any(t0 <= s[1] <= t1 for t0, t1 in windows))
        n = len(record[phase])
        for stem, span_name, counter in SERVE_STAGES:
            row = rows.get(span_name, {})
            value = row.get("self_s" if counter is None else counter, 0.0)
            if stem == "serve.admission.wait_s":
                value = row.get("total_s", 0.0)
            layers[f"{stem}.{phase}"] = value / n
        trip = rows.get(f"serve.roundtrip.{phase}", {}).get("total_s", 0.0)
        inside = sum(rows.get(name, {}).get("total_s", 0.0)
                     for name in ROUND_TRIP_STAGES)
        layers[f"serve.transport.s.{phase}"] = (trip - inside) / n
        for kind in FAILURE_COUNTERS:
            layers[f"serve.failures.{kind}.{phase}"] = float(
                deltas[phase][kind])
    phase_wall = record["online_wall"] + record["bulk_wall"]
    trip_wall = sum(t1 - t0 for _, t0, t1 in record["intervals"])
    layers["trace.coverage"] = trip_wall / phase_wall
    ref_n = len(ref["online"]) + len(ref["bulk"])
    layers["trace.overhead"] = (
        phase_wall / n_total - (ref["online_wall"] + ref["bulk_wall"]) / ref_n)

    restored = tracer.restored() and server_side["restored"]
    checks = _request_checks(ref) + _request_checks(record)
    checks += [model_ok, restored]
    lines = [f"traced: {n_total} requests, reference: {ref_n} requests, "
             f"wrappers restored: {restored}"] + record["errors"][:5]
    return {"checks": checks, "metrics": None, "lines": lines,
            "layers": layers}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of PROCLUS fits and served "
                    "predicts (run from the checkout root).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so children are stopped and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no package at {SRC}/repro; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload == "serve_predict":
            out = run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            out = run_fit(args.workload, args.seed, args.seconds,
                          bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    checks = out["checks"]
    failed = checks.count(False)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(checks)} operations, {failed} failed "
          f"(error_rate {failed / len(checks):.4f})")
    for line in out["lines"]:
        print("  " + line)
    if args.trace:
        # a layer the workload never enters reads 0
        metrics = {name: {"value": float(out["layers"].get(name, 0.0)),
                          "unit": unit}
                   for name, unit, _ in per_layer_names()}
    else:
        metrics = {name: {"value": float(out["metrics"][name]), "unit": unit}
                   for name, unit in END_TO_END}
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
