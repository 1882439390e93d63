#!/usr/bin/env python
"""End-to-end smoke test of the serving stack, as CI runs it.

Exercises the full production path through real processes and real
sockets — the parts in-process unit tests cannot cover:

1. ``proclus generate`` + ``proclus cluster --save-model`` produce a
   fingerprinted model file;
2. ``proclus serve`` is launched as a subprocess and polled on
   ``/readyz`` until it accepts traffic;
3. the full training set goes over both wire formats — once through
   :class:`repro.serve.PredictClient` (``application/x-npy``) and once
   as a raw ``http.client`` JSON POST — and both label vectors must be
   **bit-identical** to a local ``load_result(...).predict(...)``:
   serving must not perturb the numerics.  ``/stats`` must have counted
   both requests, one of them as ``npy_requests``;
4. the server gets a real ``SIGTERM`` mid-life and must drain and exit
   with code 0.

Exit code 0 on success; any assertion or subprocess failure is fatal.
Run from the repository root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np


def _run_cli(*argv: str) -> None:
    cmd = [sys.executable, "-m", "repro", *argv]
    print("+", " ".join(argv))
    subprocess.run(cmd, check=True, env=_env())


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _post_json(port: int, points: np.ndarray) -> dict:
    """POST ``points`` as JSON, the public curl-friendly format."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("POST", "/predict",
                     body=json.dumps({"points": points.tolist()}),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 200, (resp.status, body)
        return body
    finally:
        conn.close()


def main() -> int:
    from repro.core.serialization import load_result
    from repro.data.io import load_csv
    from repro.serve import PredictClient

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        data = os.path.join(tmp, "data.csv")
        model = os.path.join(tmp, "model.npz")
        _run_cli("generate", data, "--n-points", "2000", "--n-dims", "14",
                 "--n-clusters", "4", "--seed", "23")
        _run_cli("cluster", data, "-k", "4", "-l", "5", "--seed", "23",
                 "--save-model", model)

        result = load_result(model)
        points = load_csv(data).points
        local_labels = result.predict(points)
        assert np.array_equal(local_labels, result.labels), \
            "predict(X_train) must reproduce the fitted labels bit-identically"

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", model, "--port", "0"],
            env=_env(), stdout=subprocess.PIPE, text=True)
        try:
            banner = (proc.stdout.readline() or "").strip()
            print(banner)
            assert banner.startswith("listening on http://"), banner
            port = int(banner.rsplit(":", 1)[1].rstrip("/"))
            client = PredictClient(port=port, seed=0)

            deadline = time.monotonic() + 15.0
            while not client.ready():
                assert time.monotonic() < deadline, "server never became ready"
                time.sleep(0.05)

            served = np.asarray(
                client.predict(points, deadline_s=30.0)["labels"])
            assert np.array_equal(served, local_labels), \
                "npy-served labels must be bit-identical to local predict"
            by_json = np.asarray(_post_json(port, points)["labels"])
            assert np.array_equal(by_json, local_labels), \
                "JSON-served labels must be bit-identical to local predict"
            print(f"served {served.size} labels over npy and JSON, both "
                  f"bit-identical to local predict "
                  f"({int((served == -1).sum())} outliers)")

            stats = client.stats()
            assert stats["breaker"]["state"] == "closed", stats["breaker"]
            assert stats["counters"].get("predictions", 0) == 2, stats
            assert stats["counters"].get("npy_requests", 0) == 1, stats

            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=15)
            assert code == 0, f"SIGTERM drain must exit 0, got {code}"
            print("SIGTERM drain: exit 0")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
